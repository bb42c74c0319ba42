"""Minimal univariate NTRU over Z_q[x]/(x^n - 1), used as a baseline.

Key generation, encryption and decryption only; no command reads or
writes an NTRU key, so there is no key file format.

Deliberately schoolbook: one encryption costs a single cyclic convolution
of n^2 scalar multiplications, which is the figure the operation-count
comparisons are made against.  Ternary sampling, centered residues and
seed coercion are the bivariate scheme's (ring.signed_ternary,
ring.centered, ring.as_rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DecryptionFailure,
    NotInvertible,
    RetriesExhausted,
    WeightTooLarge,
)
from .ring import OpCounter, as_rng, centered, signed_ternary

MULT_COUNTER = OpCounter()

#: (n, plus, minus, rng) -> length-n vector with plus +1s and minus -1s;
#: the bivariate scheme draws its ternary polynomials with the same sampler
sample_ntru_ternary = signed_ternary


@dataclass(frozen=True)
class NtruParams:
    n: int
    p: int
    q: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        # conv sums n products below (q-1)**2 in int64
        if self.n * (self.q - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"q={self.q} is too large for int64 arithmetic at n={self.n}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        if self.q <= self.p:
            raise ValueError("q must exceed p")
        if 2 * self.d + 1 > self.n:
            raise WeightTooLarge("2d+1 nonzero slots do not fit")


@lru_cache(maxsize=None)
def _cyclic_index(n: int) -> np.ndarray:
    """IDX[k, i] = (k - i) mod n, so g[IDX] @ f is the cyclic convolution."""
    k = np.arange(n)
    return (k[:, None] - k[None, :]) % n


def conv(f: np.ndarray, g: np.ndarray, modulus: int | None = None) -> np.ndarray:
    """Cyclic convolution; counts its n^2 scalar multiplications."""
    n = len(f)
    MULT_COUNTER.count += n * n
    out = np.asarray(g, dtype=np.int64)[_cyclic_index(n)] @ np.asarray(f, dtype=np.int64)
    return out % modulus if modulus is not None else out


def circulant(h: np.ndarray) -> np.ndarray:
    """Matrix with row r = x^r * h; vector(f) @ circulant(h) = vector(f*h)."""
    n = len(h)
    return np.stack([np.roll(h, r) for r in range(n)])


def solve_mod_prime(A: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Solve A x = b over Z_m (m prime) by Gauss-Jordan elimination in int64.

    Every intermediate stays within (m-1)**2 in absolute value, so the
    arithmetic is exact while that is below 2**63; raises NotInvertible
    when A is singular mod m.
    """
    if (m - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus {m} is too large for int64 elimination")
    k = A.shape[0]
    M = np.concatenate([np.asarray(A, dtype=np.int64) % m,
                        np.asarray(b, dtype=np.int64).reshape(-1, 1) % m], axis=1)
    for col in range(k):
        nonzero = np.flatnonzero(M[col:, col])
        if nonzero.size == 0:
            raise NotInvertible("singular system")
        piv = col + int(nonzero[0])
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        # columns left of col are already zero in the pivot row
        M[col, col:] = M[col, col:] * pow(int(M[col, col]), m - 2, m) % m
        factors = M[:, col].copy()
        factors[col] = 0
        M[:, col:] -= factors[:, None] * M[col, col:]
        M[:, col:] %= m
    return M[:, k].copy()


def poly_inverse(f: np.ndarray, modulus: int) -> np.ndarray:
    """Inverse mod a prime or a power of two (Hensel lifting from GF(2)).

    Over a prime field the inverse u solves u @ circulant(f) = e0.
    """
    f = np.asarray(f, dtype=np.int64) % modulus
    e0 = np.zeros(len(f), dtype=np.int64)
    e0[0] = 1
    if modulus % 2 == 0:
        k = modulus.bit_length() - 1
        if modulus != 1 << k:
            raise ValueError("even modulus must be a power of two")
        inv = solve_mod_prime(circulant(f).T, e0, 2)
        two = 2 * e0
        m = 2
        while m < modulus:
            m = min(m * m, modulus)
            # Newton step: inv <- inv * (2 - f * inv) mod m
            prod = conv(f % m, inv, m)
            inv = conv(inv, (two - prod) % m, m)
        return inv % modulus
    return solve_mod_prime(circulant(f).T, e0, modulus)


def ntru_keygen(params: NtruParams, rng, max_attempts: int = 1000):
    """Public h = f^{-1} * g mod q; private (f, g).

    f takes d+1 ones and d minus-ones -- a balanced f has f(1) = 0 and is
    never invertible.  g is balanced.
    """
    rng = as_rng(rng)
    n, p, q, d = params.n, params.p, params.q, params.d
    for _ in range(max_attempts):
        f = sample_ntru_ternary(n, d + 1, d, rng)
        try:
            f_q = poly_inverse(f, q)
            f_p = poly_inverse(f, p)
        except NotInvertible:
            continue
        g = sample_ntru_ternary(n, d, d, rng)
        h = conv(f_q, g, q)
        return h, (f, g, f_p)
    raise RetriesExhausted(f"no invertible f in {max_attempts} attempts")


def ntru_encrypt(h: np.ndarray, m: np.ndarray, params: NtruParams, rng,
                 r: np.ndarray | None = None) -> np.ndarray:
    if r is None:
        rng = as_rng(rng)
        r = sample_ntru_ternary(params.n, params.d, params.d, rng)
    return (params.p * conv(h, r, params.q) + m) % params.q


def ntru_decrypt(sk, c: np.ndarray, params: NtruParams, strict: bool = False) -> np.ndarray:
    f, g, f_p = sk
    p, q = params.p, params.q
    a = centered(conv(f, c, q), q)
    m = centered(conv(f_p, a % p, p), p)
    if strict:
        resid = (a - conv(f, m)) // p
        if np.abs(resid).max() > 2 * params.d or resid.sum() != 0:
            raise DecryptionFailure("mask residual is not a valid g*r")
    return m


def ntru_public_key_bits(params: NtruParams) -> int:
    return params.n * (params.q - 1).bit_length()
