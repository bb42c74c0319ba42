"""The secret grid subset T, and the key-recovery lattice of a public key.

The paper's two-sided ideal is generated by q and Lagrange interpolants
supported on a secret point set T, the grid points where G vanishes.
Every balanced G vanishes at (1,1), and keygen admits only T = {(1,1)},
so the ideal's coefficient lattice has one generator, (n^2)^-1 * 1 mod q,
whose q cosets decryption scans (lattice.coset_decode); the general T,
its weights and the scan over several generators are reference paths in
tests/oracles.py.  This module derives T from G and builds the
4 n^2-dimensional key-recovery lattice that `bqtru attack` reduces at toy
scale, an int64 row basis that lattice.lll_reduce takes as it is.
The paper's 12 n^2-dimensional lattice with its hybrid norm, its
power-of-two expansion (whose dimension analysis.expansion_ratio
computes) and the key-membership identity every honest key satisfies are
reference paths in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .quat import Quaternion, quat_to_matrix
from .ring import mult_matrix


def derive_T(rho_G: np.ndarray) -> list:
    """Grid indices where all four components of G vanish (may be empty),
    read from its evaluation array rho(G)."""
    return np.flatnonzero(~rho_G.any(axis=0)).tolist()


def build_key_lattice(H: Quaternion) -> np.ndarray:
    """Key-recovery lattice [[I, M], [0, qI]] of dimension 4 n^2, as an
    int64 row basis, from the public key H mod q.

    theta_hat = H(1,1) (n^2)^-1 mod q, per component, and
    H0 = H - theta_hat * 1 (1 the all-ones row) vanishes at (1,1).  Every
    key has T = {(1,1)}, so theta is theta_hat * 1 and F o H0 = G mod q; split
    quaternions are 2x2 matrices (quat.quat_to_matrix), so A_F A_H0 = A_G,
    and M = [[mult_matrix(A00), mult_matrix(A01)], [mult_matrix(A10),
    mult_matrix(A11)]] mod q, with A = A_H0, maps a row of A_F to the same
    row of A_G.  The key rows (f0+f1, f2+f3, g0+g1, g2+g3) and
    (f2-f3, f0-f1, g2-g3, g0-g1), and each n x n block of them rotated by
    one monomial, are lattice points.

    (1, 0, 0, 0) and (0, 1, 0, 0), with 1 the all-ones row, are lattice
    points of norm n that say nothing about the key: H0 vanishes at (1,1).
    """
    q, nsq = H.modulus, H.rows.shape[1]
    theta_hat = H.rows.sum(axis=1) * pow(nsq, -1, q) % q
    A = quat_to_matrix(Quaternion(H.rows - theta_hat[:, None], q))
    half = 2 * nsq
    rows = np.zeros((2 * half, 2 * half), dtype=np.int64)
    rows[:half, :half] = np.eye(half, dtype=np.int64)
    rows[:half, half:] = np.block([[mult_matrix(a) for a in row] for row in A]) % q
    rows[half:, half:] = q * np.eye(half, dtype=np.int64)
    return rows
