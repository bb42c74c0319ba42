"""Minimal univariate NTRU over Z_q[x]/(x^n - 1), used as a baseline.

Key generation, encryption and decryption only; no command reads or
writes an NTRU key, so there is no key file format.

Deliberately schoolbook: one encryption costs a single cyclic convolution
of n^2 scalar multiplications, which is the figure the operation-count
comparisons are made against.  Inverses are unit-group powers by the
bivariate ring's routine, ring.unit_inverse, over conv and the Frobenius
map x -> x^m, with a Newton lift to a power-of-two q.  Ternary sampling,
centered residues and seed coercion are the bivariate scheme's too
(ring.signed_ternary, ring.centered, ring.as_rng).
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
from .params import _is_prime
from .ring import as_rng, centered, signed_ternary, unit_inverse


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
    """Cyclic convolution: n^2 scalar multiplications."""
    out = np.asarray(g, dtype=np.int64)[_cyclic_index(len(f))] @ np.asarray(f, dtype=np.int64)
    return out % modulus if modulus is not None else out


def _frobenius(f: np.ndarray, m: int) -> np.ndarray:
    """f**m mod m, m prime: f(x^m), each coefficient moved to its monomial's m-th power."""
    out = np.zeros(len(f), dtype=np.int64)
    np.add.at(out, np.arange(len(f)) * m % len(f), f)
    return out % m


def poly_inverse(f: np.ndarray, modulus: int) -> np.ndarray:
    """Inverse mod an odd prime or a power of two; raises NotInvertible,
    and ValueError for any other modulus.

    Mod a prime m it is ring.unit_inverse's power of f under conv and
    _frobenius, whose exponent and Frobenius map hold for a prime alone.
    Mod 2^k the inverse mod 2 is lifted by Newton's iteration
    inv <- inv * (2 - f * inv), which doubles the exponent each step.
    """
    f = np.asarray(f, dtype=np.int64) % modulus
    n = len(f)
    # conv sums n products below (modulus-1)**2
    if n * (modulus - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus {modulus} is too large for int64 convolution at n={n}")
    if modulus % 2:
        if not _is_prime(modulus):
            raise ValueError(f"odd modulus {modulus} is not prime")
        return unit_inverse(f, modulus, n, conv, _frobenius)
    if modulus & (modulus - 1):
        raise ValueError("even modulus must be a power of two")
    inv, m = unit_inverse(f % 2, 2, n, conv, _frobenius), 2
    while m < modulus:
        m = min(m * m, modulus)
        inv = (2 * inv - conv(inv, conv(f, inv, m), m)) % m
    return inv


MAX_F_DRAWS = 1000  # ntru_keygen's limit on f draws


def ntru_keygen(params: NtruParams, rng):
    """Public h = f^{-1} * g mod q; private (f, g).

    f takes d+1 ones and d minus-ones -- a balanced f has f(1) = 0 and is
    never invertible.  g is balanced.
    """
    rng = as_rng(rng)
    n, p, q, d = params.n, params.p, params.q, params.d
    for _ in range(MAX_F_DRAWS):
        f = signed_ternary(n, d + 1, d, rng)
        try:
            f_q = poly_inverse(f, q)
            f_p = poly_inverse(f, p)
        except NotInvertible:
            continue
        g = signed_ternary(n, d, d, rng)
        h = conv(f_q, g, q)
        return h, (f, g, f_p)
    raise RetriesExhausted(f"no invertible f in {MAX_F_DRAWS} attempts")


def ntru_encrypt(h: np.ndarray, m: np.ndarray, params: NtruParams, rng,
                 r: np.ndarray | None = None) -> np.ndarray:
    if r is None:
        rng = as_rng(rng)
        r = signed_ternary(params.n, params.d, params.d, rng)
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
