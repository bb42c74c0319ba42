"""Exact arithmetic in Z_m[x,y]/(x^n - 1, y^n - 1).

Elements are length-n**2 coefficient vectors; the coefficient of x^a y^b
lives at index a*n + b (x-major lexicographic order).  The modulus is an
odd prime, or None for unreduced integer arithmetic.  Coefficients are
int64, so a product is exact while n**2 * (m-1)**2 < 2**63; Params
rejects larger moduli.

Inverses are powers: every unit u satisfies u**e == 1 for
e = (m**k - 1) * m**s, where n = m**s * n' with m not dividing n' and
k = ord_{n'}(m), so ring_inverse returns f**(e-1).  It walks the base-m
digits of e-1: each m-th power is the Frobenius map f(x,y) -> f(x^m, y^m),
a coefficient map, so only the digit products are convolutions (6 at
n = 11, m = 3, counting the check).

Mod q the ring is Z_q^(n**2), because n | q-1: EvalDomain maps
coefficients to the values on the n**2-point grid of n-th roots of unity
and back, each way a product with the n x n Vandermonde matrix on both
sides, so a product mod q costs two transforms, n**2 scalar products and
one inverse transform instead of a convolution.  Its lagrange_matrix,
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

import random
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContextMismatch, NotInvertible, WeightTooLarge
from .params import _is_prime


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


class RingElem:
    """Element of Z_m[x,y]/(x^n-1, y^n-1) as a coefficient vector."""

    __slots__ = ("coeffs", "modulus", "n")

    def __init__(self, coeffs, n: int, modulus=None):
        arr = np.asarray(coeffs, dtype=np.int64).copy()
        if arr.shape != (n * n,):
            raise ValueError(f"expected {n * n} coefficients, got {arr.shape}")
        if modulus is not None:
            arr %= modulus
        self.coeffs = arr
        self.n = n
        self.modulus = modulus

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, n: int, modulus=None) -> "RingElem":
        c = np.zeros(n * n, dtype=np.int64)
        c[0] = 1
        return cls(c, n, modulus)

    # -- context ------------------------------------------------------
    def _check_ctx(self, other: "RingElem"):
        if self.n != other.n or self.modulus != other.modulus:
            raise ContextMismatch(
                f"(n={self.n}, m={self.modulus}) vs (n={other.n}, m={other.modulus})"
            )

    def with_modulus(self, modulus) -> "RingElem":
        """Reinterpret the coefficients under a (possibly different) modulus."""
        return RingElem(self.coeffs, self.n, modulus)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "RingElem") -> "RingElem":
        self._check_ctx(other)
        return RingElem(self.coeffs + other.coeffs, self.n, self.modulus)

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check_ctx(other)
        return RingElem(self.coeffs - other.coeffs, self.n, self.modulus)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.coeffs, self.n, self.modulus)

    def __mul__(self, other: "RingElem") -> "RingElem":
        return conv_mul(self, other)

    def scale(self, c: int) -> "RingElem":
        """Scalar multiple; not counted as a convolution."""
        return RingElem(self.coeffs * c, self.n, self.modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self.n == other.n
            and self.modulus == other.modulus
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.n, self.modulus, self.coeffs.tobytes()))

    def __repr__(self):
        return f"RingElem(n={self.n}, mod={self.modulus}, {self.coeffs.tolist()})"

    # -- lifts --------------------------------------------------------
    def lift_centered(self) -> "RingElem":
        """Map each coefficient to its representative in [-(m-1)/2, (m-1)/2]."""
        m = self.modulus
        if m is None:
            return RingElem(self.coeffs, self.n, None)
        if m % 2 == 0:
            raise ValueError("centered lift requires an odd modulus")
        return RingElem(centered(self.coeffs, m), self.n, None)

    def lift_positive(self) -> "RingElem":
        """Representative in [0, m) viewed over Z."""
        if self.modulus is None:
            return RingElem(self.coeffs, self.n, None)
        return RingElem(self.coeffs % self.modulus, self.n, None)


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


def conv_mul(f: RingElem, g: RingElem) -> RingElem:
    """2-D cyclic convolution product."""
    f._check_ctx(g)
    CONV_COUNTER.count += 1
    res = g.coeffs[_sub_index(f.n)] @ f.coeffs
    return RingElem(res, f.n, f.modulus)


def mult_matrix(f: RingElem) -> np.ndarray:
    """Matrix M with row r equal to the coefficient vector of (monomial_r * f).

    Satisfies vec(g) @ M = vec(g * f) for every g in the same ring.
    """
    return f.coeffs[_sub_index(f.n)].T.copy()


class EvalDomain:
    """The n**2-point root-of-unity grid mod q and its Lagrange interpolants.

    omega is derived from the smallest primitive root of q, so domains are
    deterministic and reproducible for fixed (n, q); eval_domain returns
    one shared domain per (n, q).

    Point k = a*n + b is (omega^a, omega^b), so the values of f on the
    grid are the n x n array V @ coeffs(f) @ V with the symmetric
    Vandermonde V[a, i] = omega^(a*i); transform and inverse_transform
    apply that map and its inverse to stacked rows in O(n**3) each.
    """

    def __init__(self, n: int, q: int):
        if (q - 1) % n != 0:
            raise ValueError(f"n={n} must divide q-1={q - 1}")
        self.n = n
        self.q = q
        self.omega = self._find_omega(n, q)
        w_pows = [pow(self.omega, a, q) for a in range(n)]
        self._w_pows = np.array(w_pows, dtype=np.int64)
        self.points = [(w_pows[a], w_pows[b]) for a in range(n) for b in range(n)]
        ai = np.outer(np.arange(n), np.arange(n))
        self._vandermonde = self._w_pows[ai % n]
        self._vandermonde_inv = self._w_pows[-ai % n]
        self._ninv2 = pow(n * n, q - 2, q)

    @staticmethod
    def _find_omega(n: int, q: int) -> int:
        g = _primitive_root(q)
        omega = pow(g, (q - 1) // n, q)
        assert pow(omega, n, q) == 1
        return omega

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
        return self._sandwich(self._vandermonde_inv, values) * self._ninv2 % self.q

    @cached_property
    def lagrange_matrix(self) -> np.ndarray:
        """Row k = coefficient vector of the interpolant for points[k], in [0, q):
        the inverse transform of the identity, computed once and read-only."""
        rows = self.inverse_transform(np.eye(self.size, dtype=np.int64))
        rows.flags.writeable = False
        return rows

    def eval_all(self, f: RingElem) -> np.ndarray:
        """Values of f on all grid points, ordered like self.points."""
        if f.modulus != self.q or f.n != self.n:
            raise ContextMismatch("element does not match the domain")
        return self.transform(f.coeffs[None])[0]


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


def frobenius(f: RingElem) -> RingElem:
    """f**m for f over Z_m, m prime: f(x^m, y^m), no convolution.

    The m-th power is additive in characteristic m and fixes Z_m, so it
    moves each coefficient to its monomial raised to the m-th power;
    coefficients that land on one monomial (when m divides n) add up.
    """
    m = f.modulus
    if m is None:
        raise ValueError("the Frobenius map needs a prime modulus")
    out = np.zeros_like(f.coeffs)
    np.add.at(out, _frobenius_index(f.n, m), f.coeffs)
    return RingElem(out, f.n, m)


def _power(f: RingElem, d: int) -> RingElem:
    """f**d, d >= 1, by left-to-right square-and-multiply."""
    u = f
    for bit in bin(d)[3:]:
        u = conv_mul(u, u)
        if bit == "1":
            u = conv_mul(u, f)
    return u


def ring_inverse(f: RingElem) -> RingElem:
    """Inverse of f in Z_m[x,y]/(x^n-1, y^n-1), m an odd prime.

    Every unit satisfies u**e == 1 (see _unit_exponent), so the inverse is
    f**(e-1).  With the base-m digits d_j of e-1, Horner's rule
    u <- frobenius(u) * f**d_j needs one convolution per nonzero digit
    after the first, plus those for the digit powers: the digits of e-1
    are m-1 and m-2 only, so at m = 3 that is f**2 alone.  That gives 6
    convolutions at n = 11 and 7 at n = 7 (m = 3, counting the check).
    Raises NotInvertible when f * f**(e-1) is not 1.
    """
    m, n = f.modulus, f.n
    if m is None:
        raise ValueError("modulus required")
    if n * n * (m - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus {m} is too large for int64 convolution")
    digits, r = [], _unit_exponent(n, m) - 1
    while r:
        r, d = divmod(r, m)
        digits.append(d)
    powers = {d: _power(f, d) for d in set(digits) if d}
    u = powers[digits[-1]]
    for d in reversed(digits[:-1]):
        u = frobenius(u)
        if d:
            u = conv_mul(u, powers[d])
    if conv_mul(f, u) != RingElem.one(n, m):
        raise NotInvertible("element is not a unit")
    return u
