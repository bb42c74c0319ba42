"""Exact arithmetic in Z_m[x,y]/(x^n - 1, y^n - 1).

An element is an int64 length-n**2 coefficient row, as each row of a
quaternion is; the coefficient of x^a y^b lives at index a*n + b
(x-major lexicographic order).  The modulus is an argument of each
operation: an odd prime, or None for unreduced integer arithmetic.
conv_mul reduces both rows mod m first, so a product is exact while
n**2 * (m-1)**2 < 2**63 (params.fits_int64); Params rejects larger moduli.

Inverses are powers: every unit u satisfies u**e == 1 for
e = (m**k - 1) * m**s, where n = m**s * n' with m not dividing n' and
k = ord_{n'}(m), so ring_inverse returns f**(e-1).  It walks the base-m
digits of e-1: each m-th power is the Frobenius map f(x,y) -> f(x^m, y^m),
a coefficient map, so only the digit products are convolutions (6 at
n = 11, m = 3, counting the check).

Mod q the ring is Z_q^(n**2), because n | q-1: EvalDomain maps
coefficients to the values on the n**2-point grid of n-th roots of unity
and back, each way a product with an n x n Vandermonde matrix on both
sides (back, its inverse, with the factor n^-1 folded in once per
domain), so a product mod q costs two transforms, n**2 scalar products
and one inverse transform instead of a convolution.  Its lagrange_matrix,
the inverse transform of the identity, holds the interpolant rows the
secret and key-recovery lattices are made of.  Mod a prime m with n not
dividing m-1 (p in every shipped set), product_domain supplies an
auxiliary prime P = 1 (mod n) large enough that products of centered
lifts are exact over Z, and the result is reduced mod m.

A module-level counter tracks convolution products so that callers can
verify operation counts (16 vs 7 ring products per quaternion multiply);
the evaluation domain runs none.

The rules the other modules share are written here once: the centered
residue (centered), signed ternary sampling (signed_ternary, for the
scheme and the NTRU baseline alike) and the coercion of a seed to a
random.Random (as_rng).
"""

from __future__ import annotations

import math
import random
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContextMismatch, NotInvertible, WeightTooLarge
from .params import _is_prime, fits_int64


class OpCounter:
    """A resettable operation count (diagnostic only; not used for logic)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


#: incremented once per convolution product
CONV_COUNTER = OpCounter()


@lru_cache(maxsize=None)
def _sub_index(n: int) -> np.ndarray:
    """SUB[k, m] = index of the monomial x^(a-c) y^(b-d) for k=(a,b), m=(c,d)."""
    idx = np.arange(n * n)
    a, b = idx // n, idx % n
    c, d = a[:, None], b[:, None]
    return (((a[None, :] - c) % n) * n + (b[None, :] - d) % n).T


def centered(a, m: int) -> np.ndarray:
    """Residues of a mod m in (-m/2, m/2]: [-(m-1)/2, (m-1)/2] for odd m,
    [-m/2 + 1, m/2] for even m."""
    a = np.asarray(a) % m
    return np.where(a > m // 2, a - m, a)


def signed_ternary(size: int, plus: int, minus: int, rng: random.Random) -> np.ndarray:
    """plus coefficients +1 and minus coefficients -1 at uniformly drawn
    distinct slots of a length-size int64 vector, the rest 0."""
    if plus + minus > size:
        raise WeightTooLarge(f"{plus}+{minus} nonzeros do not fit in {size} slots")
    out = np.zeros(size, dtype=np.int64)
    picks = rng.sample(range(size), plus + minus)
    out[picks[:plus]] = 1
    out[picks[plus:]] = -1
    return out


def as_rng(rng) -> random.Random:
    """rng itself if it is a random.Random, else a random.Random seeded with it."""
    return rng if isinstance(rng, random.Random) else random.Random(rng)


def conv_mul(f, g, m=None) -> np.ndarray:
    """2-D cyclic convolution product of two length-n**2 rows.

    With a modulus m both rows are reduced mod m first, so the product is
    exact under params.fits_int64 whatever sums the caller passes, and the
    result lies in [0, m).  Rows of different lengths raise ContextMismatch.
    """
    f, g = np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64)
    n = math.isqrt(f.size)
    if f.shape != (n * n,) or g.shape != f.shape:
        raise ContextMismatch(f"rows of shapes {f.shape} and {g.shape}, not one length n**2")
    if m is not None:
        f, g = f % m, g % m
    CONV_COUNTER.count += 1
    res = g[_sub_index(n)] @ f
    return res if m is None else res % m


def mult_matrix(f) -> np.ndarray:
    """Matrix M with row r equal to the coefficient row of (monomial_r * f).

    Satisfies g @ M = conv_mul(g, f) for every row g of the same length.
    """
    f = np.asarray(f, dtype=np.int64)
    return f[_sub_index(math.isqrt(f.size))].T.copy()


class EvalDomain:
    """The n**2-point root-of-unity grid mod q and its Lagrange interpolants.

    omega is derived from the smallest primitive root of q, so domains are
    deterministic and reproducible for fixed (n, q); eval_domain returns
    one shared domain per (n, q).

    Point k = a*n + b is (omega^a, omega^b), so the values of f on the
    grid are the n x n array V @ coeffs(f) @ V with the symmetric
    Vandermonde V[a, i] = omega^(a*i); transform and inverse_transform
    apply that map and its inverse to stacked rows in O(n**3) each.  The
    inverse is the same sandwich with V^-1 mod q, the Vandermonde at
    omega^-1 with the factor n^-1 folded in, so no per-call scaling is left.
    """

    def __init__(self, n: int, q: int):
        if (q - 1) % n != 0:
            raise ValueError(f"n={n} must divide q-1={q - 1}")
        self.n = n
        self.q = q
        omega = pow(_primitive_root(q), (q - 1) // n, q)
        assert pow(omega, n, q) == 1
        w_pows = [pow(omega, a, q) for a in range(n)]
        self.points = [(w_pows[a], w_pows[b]) for a in range(n) for b in range(n)]
        ai = np.outer(np.arange(n), np.arange(n))
        w = np.array(w_pows, dtype=np.int64)
        self._vandermonde = w[ai % n]
        # V's inverse: n^-1 times the Vandermonde at omega^-1, so the
        # inverse sandwich carries the factor n^-2 itself
        self._vandermonde_inv = w[-ai % n] * pow(n, q - 2, q) % q

    @property
    def size(self) -> int:
        return self.n * self.n

    def _sandwich(self, V: np.ndarray, rows) -> np.ndarray:
        """Rows of V @ X @ V mod q, X each row of rows as an n x n array.

        Every entry is reduced into [0, q) first, so each matrix product
        sums n terms below (q-1)**2: exact while n * (q-1)**2 < 2**63.
        """
        n, q = self.n, self.q
        X = (np.asarray(rows, dtype=np.int64) % q).reshape(-1, n, n)
        Y = np.matmul(V, X) % q
        return (np.matmul(Y, V) % q).reshape(-1, n * n)

    def transform(self, coeffs) -> np.ndarray:
        """Grid values of each row of a (k, n**2) coefficient array, ordered like points."""
        return self._sandwich(self._vandermonde, coeffs)

    def inverse_transform(self, values) -> np.ndarray:
        """Coefficient rows, in [0, q), of the elements taking each row of grid values."""
        return self._sandwich(self._vandermonde_inv, values)

    @cached_property
    def lagrange_matrix(self) -> np.ndarray:
        """Row k = coefficient vector of the interpolant for points[k], in [0, q):
        the inverse transform of the identity, computed once and read-only."""
        rows = self.inverse_transform(np.eye(self.size, dtype=np.int64))
        rows.flags.writeable = False
        return rows


@lru_cache(maxsize=None)
def eval_domain(n: int, q: int) -> EvalDomain:
    """The shared EvalDomain for (n, q); its tables are built once per process."""
    return EvalDomain(n, q)


@lru_cache(maxsize=None)
def product_domain(n: int, m: int) -> EvalDomain:
    """An evaluation domain that gives exact products mod m, m an odd prime.

    It is m's own domain when n | m-1.  Otherwise it is the domain of the
    smallest prime P = 1 (mod n) above 4 * n**2 * (m-1)**2.  A sum of up
    to four products of centered lifts has coefficients of absolute value
    at most n**2 * (m-1)**2, so its centered lift mod P is the integer
    result, which is then reduced mod m.
    """
    if (m - 1) % n == 0:
        P = m
    else:
        P = (4 * n * (m - 1) ** 2 + 1) * n + 1
        while not _is_prime(P):
            P += n
    # the transform sums n products below (P-1)**2, a quaternion norm four
    if max(n, 4) * (P - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"no int64 evaluation domain for products mod {m} at n={n}")
    return eval_domain(n, P)


def _primitive_root(q: int) -> int:
    phi = q - 1
    factors = set()
    m, f = phi, 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for g in range(2, q):
        if all(pow(g, phi // r, q) != 1 for r in factors):
            return g
    raise ValueError(f"no primitive root mod {q}")


def _unit_exponent(n: int, m: int) -> int:
    """An exponent e with u**e == 1 for every unit u of Z_m[x,y]/(x^n-1, y^n-1).

    Write n = m**s * n' with m not dividing n', and k = ord_{n'}(m).  The
    s-fold Frobenius u -> u**(m**s) maps the ring into Z_m[x^(m**s), y^(m**s)],
    a product of fields of order m**d with d | k, so e = (m**k - 1) * m**s.
    """
    s, n1 = 0, n
    while n1 % m == 0:
        s, n1 = s + 1, n1 // m
    k, r = 1, m % n1
    while r != 1 % n1:
        k, r = k + 1, r * m % n1
    return (m ** k - 1) * m ** s


@lru_cache(maxsize=None)
def _frobenius_index(n: int, m: int) -> np.ndarray:
    """FROB[k] = index of x^(m*a) y^(m*b) for k = (a, b)."""
    idx = np.arange(n * n)
    return (idx // n * m % n) * n + idx % n * m % n


def frobenius(f, m: int) -> np.ndarray:
    """f**m mod m, m prime: f(x^m, y^m), no convolution.

    The m-th power is additive in characteristic m and fixes Z_m, so it
    moves each coefficient to its monomial raised to the m-th power;
    coefficients that land on one monomial (when m divides n) add up.
    """
    out = np.zeros(len(f), dtype=np.int64)
    np.add.at(out, _frobenius_index(math.isqrt(len(f)), m), f)
    return out % m


def _power(f: np.ndarray, d: int, m: int) -> np.ndarray:
    """f**d mod m, d >= 1, by left-to-right square-and-multiply."""
    u = f
    for bit in bin(d)[3:]:
        u = conv_mul(u, u, m)
        if bit == "1":
            u = conv_mul(u, f, m)
    return u


def ring_inverse(f, m: int) -> np.ndarray:
    """Inverse mod m of the row f in Z_m[x,y]/(x^n-1, y^n-1), m an odd prime.

    Every unit satisfies u**e == 1 (see _unit_exponent), so the inverse is
    f**(e-1).  With the base-m digits d_j of e-1, Horner's rule
    u <- frobenius(u) * f**d_j needs one convolution per nonzero digit
    after the first, plus those for the digit powers: the digits of e-1
    are m-1 and m-2 only, so at m = 3 that is f**2 alone.  That gives 6
    convolutions at n = 11 and 7 at n = 7 (m = 3, counting the check).
    Raises NotInvertible when f * f**(e-1) is not 1.
    """
    f = np.asarray(f, dtype=np.int64) % m
    n = math.isqrt(f.size)
    if not fits_int64(n, m):
        raise ValueError(f"modulus {m} is too large for int64 convolution")
    digits, r = [], _unit_exponent(n, m) - 1
    while r:
        r, d = divmod(r, m)
        digits.append(d)
    powers = {d: _power(f, d, m) for d in set(digits) if d}
    u = powers[digits[-1]]
    for d in reversed(digits[:-1]):
        u = frobenius(u, m)
        if d:
            u = conv_mul(u, powers[d], m)
    if conv_mul(f, u, m).tolist() != [1] + [0] * (n * n - 1):
        raise NotInvertible("element is not a unit")
    return u
