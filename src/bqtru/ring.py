"""Exact arithmetic in Z_m[x,y]/(x^n - 1, y^n - 1).

An element is an int64 length-n**2 coefficient row, as each row of a
quaternion is; the coefficient of x^a y^b lives at index a*n + b
(x-major lexicographic order).  The modulus is an argument of each
operation: an odd prime, or None for unreduced integer arithmetic.
conv_mul reduces both rows mod m first, so a product is exact while
n**2 * (m-1)**2 < 2**63 (params.fits_int64); Params rejects larger moduli.

Inverses are powers: every unit u satisfies u**e == 1 for
e = (m**k - 1) * m**s, where n = m**s * n' with m not dividing n' and
k = ord_{n'}(m), so unit_inverse returns f**(e-1).  It walks the base-m
digits of e-1: each m-th power is the Frobenius map f(x,y) -> f(x^m, y^m),
a coefficient map, so only the digit products are convolutions (6 at
n = 11, m = 3, counting the check).  The same holds in Z_m[x]/(x^n - 1),
so unit_inverse takes the ring's product and Frobenius map as arguments:
ring_inverse passes conv_mul and frobenius, the NTRU baseline its own.

Mod q the ring is Z_q^(n**2), because n | q-1: EvalDomain maps
coefficients to the values on the n**2-point grid of n-th roots of unity
and back, each way a product with an n x n Vandermonde matrix on both
sides (back, its inverse, with the factor n^-1 folded in once per
domain), so a product mod q costs two transforms, n**2 scalar products
and one inverse transform instead of a convolution.  transform is the
one map from coefficient rows to the grid, for keys, messages and
ciphertexts alike; it reduces its rows mod q first, so signed rows need
no lift.  The domain keeps its two Vandermonde matrices and nothing
else: the interpolant of grid point k, which the secret and key-recovery
lattices are made of, is the inverse transform of the k-th indicator
row, and callers compute the rows they need.  Mod a prime m with n not
dividing m-1 (p in every shipped set), product_domain supplies an
auxiliary prime P = 1 (mod n) large enough that products of centered
lifts are exact over Z; its callers lift onto it and reduce the centered
result mod m.

A module-level counter tracks convolution products so that callers can
verify operation counts (16 vs 7 ring products per quaternion multiply);
the evaluation domain runs none.

The rules the other modules share are written here once: the centered
residue (centered), signed ternary sampling (signed_ternary, for the
scheme and the NTRU baseline alike) and the coercion of a seed to a
random.Random (as_rng).  The sampler draws what CPython 3.11's
random.Random.sample draws, over getrandbits alone, so a seed fixes it.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

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


def signed_ternary(size: int, plus, minus, rng: random.Random) -> np.ndarray:
    """plus coefficients +1 and minus coefficients -1 at uniformly drawn
    distinct slots of a length-size int64 vector, the rest 0.  Given lists
    of counts, it draws a row per pair of counts, in order, into one array;
    a row's slots are _sample_slots(size, plus + minus, rng), plus first.
    Every row's weight is checked before the first draw, so WeightTooLarge
    leaves rng as it was; the values are then written in one scatter."""
    if isinstance(plus, int):
        return signed_ternary(size, [plus], [minus], rng)[0]
    for up, down in zip(plus, minus):
        if up + down > size:
            raise WeightTooLarge(f"{up}+{down} nonzeros do not fit in {size} slots")
    slots = [j for up, down in zip(plus, minus) for j in _sample_slots(size, up + down, rng)]
    offsets, signs = _scatter_pattern(size, tuple(plus), tuple(minus))
    out = np.zeros(len(plus) * size, dtype=np.int64)
    out[offsets + np.array(slots, dtype=np.intp)] = signs
    return out.reshape(len(plus), size)


@lru_cache(maxsize=32)
def _scatter_pattern(size: int, plus: tuple, minus: tuple) -> tuple:
    """(row * size, sign) of each slot signed_ternary draws for these
    counts, in draw order: a row's plus ones, then its minus ones."""
    rows = np.repeat(np.arange(len(plus)), [up + down for up, down in zip(plus, minus)])
    signs = [sign for up, down in zip(plus, minus) for sign in [1] * up + [-1] * down]
    return rows * size, np.array(signs, dtype=np.int64)


def _sample_slots(size: int, k: int, rng: random.Random) -> list:
    """rng.sample(range(size), k) as CPython 3.11 draws it, pick for pick
    and leaving rng in the same state, over rng.getrandbits alone: a
    partial Fisher-Yates shuffle (Durstenfeld's Algorithm 235) while the
    pool is no larger than a k-element set, else redraws that reject a
    repeated slot.  An index below m is getrandbits(m.bit_length()), drawn
    again while it is m or more."""
    getrandbits, picks = rng.getrandbits, []
    if size <= (21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))):
        pool = list(range(size))
        for m in range(size, size - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
        return picks
    seen = set()
    for _ in range(k):
        j = getrandbits(size.bit_length())
        while j >= size or j in seen:
            j = getrandbits(size.bit_length())
        seen.add(j)
        picks.append(j)
    return picks


def as_rng(rng) -> random.Random:
    """rng itself if it is a random.Random, else a random.Random seeded with
    it; a negative int raises ValueError, since random.Random seeds from
    the absolute value and -s would draw what s draws."""
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int) and rng < 0:
        raise ValueError(f"a seed is a nonnegative int, not {rng}")
    return random.Random(rng)


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
    """The n**2-point root-of-unity grid mod q: evaluation there and interpolation.

    omega is derived from the smallest primitive root of q, so domains are
    deterministic and reproducible for fixed (n, q); eval_domain returns
    one shared domain per (n, q).

    Point k = a*n + b is (omega^a, omega^b), so the values of f on the
    grid are the n x n array V @ coeffs(f) @ V with the symmetric
    Vandermonde V[a, i] = omega^(a*i); transform and inverse_transform
    apply that map and its inverse to stacked rows in O(n**3) each.  The
    inverse is the same sandwich with V^-1 mod q, the Vandermonde at
    omega^-1 with the factor n^-1 folded in, so no per-call scaling is left;
    the inverse transform of the k-th indicator row is the Lagrange
    interpolant of point k.
    """

    def __init__(self, n: int, q: int):
        if (q - 1) % n != 0:
            raise ValueError(f"n={n} must divide q-1={q - 1}")
        self.n = n
        self.q = q
        omega = pow(_primitive_root(q), (q - 1) // n, q)
        assert pow(omega, n, q) == 1
        ai = np.outer(np.arange(n), np.arange(n))
        w = np.array([pow(omega, a, q) for a in range(n)], dtype=np.int64)
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
        """Grid values of each row of a (k, n**2) coefficient array, in point order."""
        return self._sandwich(self._vandermonde, coeffs)

    def inverse_transform(self, values) -> np.ndarray:
        """Coefficient rows, in [0, q), of the elements taking each row of grid values."""
        return self._sandwich(self._vandermonde_inv, values)


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
    def too_large(P):
        # the transform sums n products below (P-1)**2, a quaternion norm four
        return max(n, 4) * (P - 1) ** 2 >= 2 ** 63

    if (m - 1) % n == 0:
        P = m
    else:
        P = (4 * n * (m - 1) ** 2 + 1) * n + 1
        # P only grows, so the search stops at the first P past the bound
        while not too_large(P) and not _is_prime(P):
            P += n
    if too_large(P):
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
    """An exponent e with u**e == 1 for every unit u of Z_m[C_n] or
    Z_m[C_n x C_n], m prime: Z_m[x]/(x^n-1) or Z_m[x,y]/(x^n-1, y^n-1).

    Write n = m**s * n' with m not dividing n', and k = ord_{n'}(m).  The
    s-fold Frobenius u -> u**(m**s) maps either ring into its subring in
    x^(m**s) (and y^(m**s)), a product of fields of order m**d with d | k,
    so e = (m**k - 1) * m**s.
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


def _power(f: np.ndarray, d: int, m: int, mul) -> np.ndarray:
    """f**d mod m, d >= 1, by left-to-right square-and-multiply."""
    u = f
    for bit in bin(d)[3:]:
        u = mul(u, u, m)
        if bit == "1":
            u = mul(u, f, m)
    return u


def unit_inverse(f: np.ndarray, m: int, n: int, mul, frob) -> np.ndarray:
    """Inverse of the row f, reduced mod the prime m, in Z_m[C_n] or
    Z_m[C_n x C_n], the ring whose product is mul(a, b, m) and whose m-th
    power map is frob(a, m).

    Every unit satisfies u**e == 1 (see _unit_exponent), so the inverse is
    f**(e-1).  With the base-m digits d_j of e-1, Horner's rule
    u <- frob(u) * f**d_j needs one product per nonzero digit after the
    first, plus those for the digit powers: the digits of e-1 are m-1 and
    m-2 only, so at m = 3 that is f**2 alone, and at m = 2 none.  Raises
    NotInvertible when f * f**(e-1) is not 1.
    """
    digits, r = [], _unit_exponent(n, m) - 1
    while r:
        r, d = divmod(r, m)
        digits.append(d)
    powers = {d: _power(f, d, m, mul) for d in set(digits) if d}
    u = powers[digits[-1]]
    for d in reversed(digits[:-1]):
        u = frob(u, m)
        if d:
            u = mul(u, powers[d], m)
    if mul(f, u, m).tolist() != [1] + [0] * (f.size - 1):
        raise NotInvertible("element is not a unit")
    return u


def ring_inverse(f, m: int) -> np.ndarray:
    """Inverse mod m of the row f in Z_m[x,y]/(x^n-1, y^n-1), m a prime,
    by unit_inverse: 6 convolutions at n = 11 and 7 at n = 7 (m = 3, counting
    the check).  Raises NotInvertible when f is not a unit, and ValueError,
    before any product, for a modulus that is not prime or is too large for
    int64 products: the unit-group exponent holds only for a prime m (at
    m = 9, n = 3 its order search never ends, and at m = 25 the unit 1 + x
    fails the check)."""
    f = np.asarray(f, dtype=np.int64)
    n = math.isqrt(f.size)
    if not fits_int64(n, m):
        raise ValueError(f"modulus {m} is too large for int64 convolution")
    if not _is_prime(m):
        raise ValueError(f"ring_inverse needs a prime modulus, not {m}")
    return unit_inverse(f % m, m, n, conv_mul, frobenius)
