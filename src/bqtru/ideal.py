"""Lattices built from the secret grid subset T and the public key.

The two-sided ideal is generated by q and Lagrange interpolants supported
on the secret point set T; decryption scans its coefficient lattice
directly (lattice.coset_decode).  This module derives T from G and builds
the public key-recovery lattice and its power-of-two expansion, plus the
membership identity that every honestly generated key must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonIntegralU
from .quat import Quaternion
from .ring import EvalDomain, mult_matrix


@dataclass(frozen=True)
class LatticeBasis:
    rows: np.ndarray
    dim: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows))
        if self.rows.shape != (self.dim, self.dim):
            raise ValueError("basis must be square with dim rows")


def derive_T(rho_G: np.ndarray) -> list:
    """Grid indices where all four components of G vanish (may be empty),
    read from its evaluation array rho(G)."""
    return np.flatnonzero(~rho_G.any(axis=1)).tolist()


def _quat_block_matrix(H: Quaternion) -> np.ndarray:
    """4x4 block matrix M with vector(F) @ M == vector(F o H) for every F."""
    H0, H1, H2, H3 = (mult_matrix(c) for c in H.components)
    return np.block([
        [H0, H1, H2, H3],
        [H1, H0, H3, H2],
        [H2, -H3, H0, -H1],
        [-H3, H2, -H1, H0],
    ])


def _recovery_lattice(H: Quaternion, dom: EvalDomain, scales, label: str) -> LatticeBasis:
    """[[qI, 0, 0], [HH, I, 0], [DD, 0, I]], where DD holds, per quaternion
    slot, the interpolant rows scaled by each of the scales in turn."""
    nsq = dom.size
    four = 4 * nsq
    HH = _quat_block_matrix(H) % dom.q
    D = dom.lagrange_matrix()
    scaled = np.concatenate([c * D for c in scales], axis=0)  # (len(scales) n^2, n^2)
    per = len(scales) * nsq
    tail = 4 * per
    dim = 2 * four + tail
    rows = np.zeros((dim, dim), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = HH
    rows[four:2 * four, four:2 * four] = np.eye(four, dtype=np.int64)
    for b in range(4):
        rows[2 * four + b * per:2 * four + (b + 1) * per, b * nsq:(b + 1) * nsq] = scaled
    rows[2 * four:, 2 * four:] = np.eye(tail, dtype=np.int64)
    return LatticeBasis(rows.astype(object), dim, label)


def build_bqtru_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """Key-recovery lattice [[qI, 0, 0], [HH, I, 0], [DD, 0, I]] of dimension 12 n^2."""
    return _recovery_lattice(H, dom, [1], "bqtru")


def build_expanded_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """Expansion with interpolant rows scaled by powers of two 1, 2, ..., 2^l.

    Dimension (4l + 12) n^2 with l = floor(log2 q); the scaled copies let a
    reducer reach interpolant combinations with coefficients up to q using
    only small integer multiples.
    """
    ell = int(math.floor(math.log2(dom.q)))
    return _recovery_lattice(H, dom, [1 << t for t in range(ell + 1)], "expanded")


def expansion_psi(member, dom: EvalDomain) -> np.ndarray:
    """Recombine an expanded-lattice vector's scaled-row coordinates.

    Folds the 4(l+1)n^2 tail block back to 4n^2 by summing 2^t-weighted
    slices; the image of any expanded-lattice member lies in the 12 n^2
    lattice built from the same public key.
    """
    nsq = dom.size
    four = 4 * nsq
    ell = int(math.floor(math.log2(dom.q)))
    per = (ell + 1) * nsq
    member = np.asarray(member, dtype=object)
    head = member[:2 * four]
    folded = []
    for b in range(4):
        block = member[2 * four + b * per:2 * four + (b + 1) * per]
        acc = np.zeros(nsq, dtype=object)
        for t in range(ell + 1):
            acc = acc + (1 << t) * block[t * nsq:(t + 1) * nsq]
        folded.append(acc)
    return np.concatenate([head] + folded)


def hybrid_norm(g_part, f_part, rho_part) -> float:
    """Euclidean length of the (g, f) halves plus Hamming weight of the rho half."""
    g = np.asarray(g_part, dtype=np.float64)
    f = np.asarray(f_part, dtype=np.float64)
    ham = int(np.count_nonzero(np.asarray(rho_part)))
    return math.sqrt(float(np.dot(g, g) + np.dot(f, f))) + ham


# ---------------------------------------------------------------------------
# key membership (the short-vector identity behind key recovery)
# ---------------------------------------------------------------------------

def rho_flat(rho_vals: np.ndarray) -> np.ndarray:
    """Flatten an (n^2, 4) evaluation array component-major to length 4n^2."""
    return np.asarray(rho_vals).T.reshape(-1)


def gamma_vector(rho_gamma: np.ndarray, dom: EvalDomain) -> np.ndarray:
    """Integer coefficient vector (length 4n^2) interpolating rho_gamma.

    Uses the same interpolant rows, in [0, q), as the lattice
    constructions, so the result is the exact integer product
    rho_flat @ blockdiag(D).
    """
    D = dom.lagrange_matrix().astype(object)
    vals = np.asarray(rho_gamma, dtype=object)
    return np.concatenate([vals[:, c] @ D for c in range(4)])


def verify_key_membership(sk, pk, dom: EvalDomain, strict: bool = False) -> bool:
    """Check the defining identity (-U, F, -rho(gamma)) @ M == (G, F, -rho(gamma)).

    U is the exact integer quotient (F o H - G - gamma) / q; a non-integral
    quotient means the key material is inconsistent (returns False, or
    raises NonIntegralU in strict mode, where it flags an upstream bug).
    """
    q = dom.q
    four = 4 * dom.size
    F = sk.F.lift_centered() if sk.F.modulus is not None else sk.F
    G = sk.G.lift_centered() if sk.G.modulus is not None else sk.G
    M = build_bqtru_lattice(pk.H, dom)
    HH = M.rows[four:2 * four, :four]
    FH_vec = F.vector().astype(object) @ HH
    gamma = gamma_vector(sk.rho_gamma, dom)
    diff = FH_vec - G.vector().astype(object) - gamma
    if any(int(v) % q != 0 for v in diff):
        if strict:
            raise NonIntegralU("F o H - G - gamma is not divisible by q")
        return False
    U = np.array([int(v) // q for v in diff], dtype=object)
    r = rho_flat(np.asarray(sk.rho_gamma, dtype=object))
    x = np.concatenate([-U, F.vector().astype(object), -r])
    target = np.concatenate([G.vector().astype(object), F.vector().astype(object), -r])
    return bool(np.array_equal(x @ M.rows, target))
