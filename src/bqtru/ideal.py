"""Lattices built from the secret grid subset T and the public key.

The two-sided ideal is generated by q and Lagrange interpolants supported
on the secret point set T; decryption scans its coefficient lattice
directly (lattice.coset_decode).  This module derives T from G and builds
the 12 n^2-dimensional public key-recovery lattice that `bqtru attack`
reduces at toy scale, an int64 row basis that lattice.lll_reduce takes
as it is.  Its power-of-two expansion (whose dimension
analysis.expansion_ratio computes) and the key-membership identity every
honest key satisfies are reference paths in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .quat import Quaternion
from .ring import EvalDomain, mult_matrix


def derive_T(rho_G: np.ndarray) -> list:
    """Grid indices where all four components of G vanish (may be empty),
    read from its evaluation array rho(G)."""
    return np.flatnonzero(~rho_G.any(axis=0)).tolist()


def _quat_block_matrix(H: Quaternion) -> np.ndarray:
    """4x4 block matrix M with vector(F) @ M == vector(F o H) for every F."""
    H0, H1, H2, H3 = (mult_matrix(c) for c in H.rows)
    return np.block([
        [H0, H1, H2, H3],
        [H1, H0, H3, H2],
        [H2, -H3, H0, -H1],
        [-H3, H2, -H1, H0],
    ])


def build_bqtru_lattice(H: Quaternion, dom: EvalDomain) -> np.ndarray:
    """Key-recovery lattice [[qI, 0, 0], [HH, I, 0], [DD, 0, I]] of dimension 12 n^2,
    as an int64 row basis.

    HH maps vector(F) to vector(F o H) mod q, and DD holds the interpolant
    rows, the inverse transform of the identity, once per quaternion slot.
    """
    nsq = dom.size
    four = 4 * nsq
    rows = np.zeros((3 * four, 3 * four), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = _quat_block_matrix(H) % dom.q
    D = dom.inverse_transform(np.eye(nsq, dtype=np.int64))
    for b in range(4):
        rows[2 * four + b * nsq:2 * four + (b + 1) * nsq, b * nsq:(b + 1) * nsq] = D
    rows[four:, four:] = np.eye(2 * four, dtype=np.int64)
    return rows


def hybrid_norm(g_part, f_part, rho_part) -> float:
    """Euclidean length of the (g, f) halves plus Hamming weight of the rho half."""
    g = np.asarray(g_part, dtype=np.float64)
    f = np.asarray(f_part, dtype=np.float64)
    ham = int(np.count_nonzero(np.asarray(rho_part)))
    return math.sqrt(float(np.dot(g, g) + np.dot(f, f))) + ham
