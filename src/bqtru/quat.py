"""Split-quaternion algebra (i^2 = j^2 = 1, ij = -ji = k) over the bivariate ring.

Products are available in two equivalent coefficient-domain forms: the
schoolbook expansion (16 ring products) and the Strassen route through
the 2x2 matrix image (7 ring products).  Both convolve the operands' rows
with ring.conv_mul, which counts them in ring.CONV_COUNTER; they are the
paper's reference paths.

A quaternion is one int64 (4, n**2) array, a row of coefficients per
component.  Mod q it is also its evaluation array rho(F), of the same
layout: column k is the scalar quaternion F(points[k]) over Z_q.  rho is
an isomorphism of algebras, so a mod-q product is n**2 scalar products,
no convolution, and rho_interpolate maps back.  rho and rho_interpolate
are the one pair of grid maps, for F's own domain and for
ring.product_domain alike: rho transforms the centered lifts of the
coefficients, and rho_interpolate reduces the centered result mod the
target modulus.  So the norm N(F) and the inverse mod p,
N(F)^-1 o conj(F), run pointwise on an auxiliary prime's grid, and
quat_inverse_mod_p convolves only inside ring_inverse.

A pointwise product u * v is two steps: rho_left_tensor gathers u's
(4, 4, n**2) left-multiplication tensor, and rho_apply applies it to v
with one einsum.  A key builds the tensor of its cached evaluation array
once and applies it per message; rho_mul composes the two steps for
one-off products.  rho_inverse inverts pointwise off the secret set T,
which is how keygen inverts F modulo the secret ideal.  rho_norms is the
one scalar-quaternion norm: it gives the grid values of N(F), and keygen
vets the scalar weight W it draws with it.  norm_zeros_off_T is the one
test that a norm vanishes only inside T, for keygen, private-key load
and rho_inverse.  Centered lifts use ring.centered.  Conjugation in the
coefficient domain, scalar products and the inverse mod the secret ideal
are reference paths in tests/oracles.py.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import ContextMismatch, EvenModulus, NormVanishesOutsideT
from .ring import EvalDomain, centered, conv_mul, product_domain, ring_inverse

# componentwise signs of conj(F) = c0 - c1*i - c2*j - c3*k, one per row
_CONJ = np.array([[1], [-1], [-1], [-1]])


class Quaternion:
    """c0 + c1*i + c2*j + c3*k as one int64 (4, n**2) array, row r holding
    c_r's coefficients, reduced mod modulus (None means over Z)."""

    __slots__ = ("rows", "modulus")

    def __init__(self, rows, modulus=None):
        arr = np.array(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != 4 or math.isqrt(arr.shape[1]) ** 2 != arr.shape[1]:
            raise ContextMismatch(f"a quaternion is a (4, n**2) array, not {arr.shape}")
        if modulus is not None:
            arr %= modulus
        self.rows, self.modulus = arr, modulus

    @property
    def n(self) -> int:
        return math.isqrt(self.rows.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.modulus == other.modulus and bool(np.array_equal(self.rows, other.rows))

    def with_modulus(self, modulus) -> "Quaternion":
        return Quaternion(self.rows, modulus)

    def __repr__(self):
        return f"Quaternion(n={self.n}, mod={self.modulus})"


def _common_modulus(F: Quaternion, G: Quaternion):
    if F.modulus != G.modulus:
        raise ContextMismatch(f"moduli {F.modulus} and {G.modulus}")
    return F.modulus


def quat_mul_schoolbook(F: Quaternion, G: Quaternion) -> Quaternion:
    """Direct product expansion; exactly 16 convolution products."""
    m = _common_modulus(F, G)
    f0, f1, f2, f3 = F.rows
    g0, g1, g2, g3 = G.rows
    mul = partial(conv_mul, m=m)
    return Quaternion([
        mul(f0, g0) + mul(f1, g1) + mul(f2, g2) - mul(f3, g3),
        mul(f0, g1) + mul(f1, g0) - mul(f2, g3) + mul(f3, g2),
        mul(f0, g2) + mul(f1, g3) + mul(f2, g0) - mul(f3, g1),
        mul(f0, g3) + mul(f1, g2) - mul(f2, g1) + mul(f3, g0),
    ], m)


def quat_to_matrix(F: Quaternion) -> np.ndarray:
    """2x2 matrix image [[c0+c1, c2+c3], [c2-c3, c0-c1]] of the algebra
    isomorphism, a (2, 2, n**2) array of unreduced rows."""
    c0, c1, c2, c3 = F.rows
    return np.array([[c0 + c1, c2 + c3], [c2 - c3, c0 - c1]])


def matrix_to_quat(M, m: int) -> Quaternion:
    """Inverse of quat_to_matrix mod m; requires an odd modulus (divides by 2)."""
    if m is None or m % 2 == 0:
        raise EvenModulus("matrix image inversion needs an odd modulus")
    (a, b), (c, d) = M
    return Quaternion(np.array([a + d, a - d, b + c, b - c]) % m * ((m + 1) // 2), m)


def quat_mul_strassen(F: Quaternion, G: Quaternion) -> Quaternion:
    """Product via Strassen's seven multiplications on the 2x2 images; the
    recombination needs an odd modulus.  conv_mul reduces the unreduced
    sums it gets mod m, so every product is exact under params.fits_int64.
    """
    m = _common_modulus(F, G)
    (a00, a01), (a10, a11) = quat_to_matrix(F)
    (b00, b01), (b10, b11) = quat_to_matrix(G)
    m1 = conv_mul(a00 + a11, b00 + b11, m)
    m2 = conv_mul(a10 + a11, b00, m)
    m3 = conv_mul(a00, b01 - b11, m)
    m4 = conv_mul(a11, b10 - b00, m)
    m5 = conv_mul(a00 + a01, b11, m)
    m6 = conv_mul(a10 - a00, b00 + b01, m)
    m7 = conv_mul(a01 - a11, b10 + b11, m)
    return matrix_to_quat([[m1 + m4 - m5 + m7, m3 + m5], [m2 + m4, m1 - m2 + m3 + m6]], m)


def quat_norm(F: Quaternion) -> np.ndarray:
    """N(F) = c0^2 - c1^2 - c2^2 + c3^2, a row mod F.modulus (an odd prime),
    with F o conj(F) = N(F); pointwise in ring.product_domain, no convolution."""
    m = F.modulus
    if m is None:
        raise ValueError("the quaternion norm needs a prime modulus")
    dom = product_domain(F.n, m)
    return _norm_from_rho(rho(F, dom), dom, m)


def _norm_from_rho(rho_F: np.ndarray, dom: EvalDomain, m: int) -> np.ndarray:
    """N(F) mod m, a row in [0, m), from F's evaluation array on product_domain(F.n, m)."""
    return centered(dom.inverse_transform(rho_norms(rho_F, dom.q)[None])[0], dom.q) % m


def quat_inverse_mod_p(F: Quaternion) -> Quaternion:
    """Inverse in the quaternion algebra over Z_p: N(F)^-1 o conj(F).

    rho(F) on ring.product_domain is computed once; the norm is one row
    mapped back and N(F)^-1 one row mapped there, so ring_inverse's digit
    products are the only convolutions.
    """
    m = F.modulus
    dom = product_domain(F.n, m)
    rho_F = rho(F, dom)
    ninv = ring_inverse(_norm_from_rho(rho_F, dom, m), m)
    ninv_vals = dom.transform(centered(ninv, m)[None])[0]
    return rho_interpolate(ninv_vals * _CONJ * rho_F % dom.q, dom, m)


# ---------------------------------------------------------------------------
# scalar quaternions over Z_q (entries are integers, not polynomials)
# ---------------------------------------------------------------------------

def rho(F: Quaternion, dom: EvalDomain) -> np.ndarray:
    """Grid evaluation map: column k is the scalar quaternion F(points[k]).

    Shape (4, n**2), like F.rows; a homomorphism for both + and the
    quaternion product.  dom is F's own domain or product_domain(F.n,
    F.modulus); either way the centered lifts of F's coefficients are
    transformed.
    """
    m = F.modulus
    # a product domain's prime exceeds m: a smaller dom.q is foreign, unbuilt
    if F.n != dom.n or m is None or dom.q < m or (
            dom.q > m and product_domain(F.n, m).q != dom.q):
        raise ContextMismatch("quaternion does not match the domain")
    return dom.transform(centered(F.rows, m))


def rho_interpolate(vals, dom: EvalDomain, m: int | None = None) -> Quaternion:
    """The quaternion mod m (dom.q by default) whose evaluation array is vals:
    the inverse of rho, taking the centered result mod m."""
    return Quaternion(centered(dom.inverse_transform(vals), dom.q), dom.q if m is None else m)


# left multiplication by a = a0 + a1*i + a2*j + a3*k is the 4x4 matrix
# a[_LEFT_IDX] * _LEFT_SIGN: (a * b)[r] = sum_c _LEFT_SIGN[r, c] * a[_LEFT_IDX[r, c]] * b[c]
_LEFT_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1, 1, 1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, -1, 1, 1]])


def rho_left_tensor(u: np.ndarray, q: int) -> np.ndarray:
    """The (4, 4, n**2) left-multiplication tensor of an evaluation array mod q:
    slice [:, :, k] is the 4x4 matrix of b -> u[:, k] * b, entries in (-q, q).

    One gather builds it; a key builds the tensor of its cached array once.
    """
    a = np.asarray(u, dtype=np.int64) % q
    return a[_LEFT_IDX] * _LEFT_SIGN[..., None]


def rho_apply(left: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """u * v mod q, pointwise, from u's rho_left_tensor and v in [0, q).

    One einsum; each entry sums four products below q**2, exact in int64
    under Params' bound, so v is taken as it is, with no reducing copy.
    """
    return np.einsum("rck,ck->rk", left, v) % q


def rho_mul(u: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Pointwise scalar-quaternion product of two evaluation arrays mod q,
    for one-off products: rho_apply of u's tensor to v reduced mod q."""
    return rho_apply(rho_left_tensor(u, q), np.asarray(v, dtype=np.int64) % q, q)


def rho_norms(u: np.ndarray, q: int) -> np.ndarray:
    """Scalar norms mod q of the columns of an evaluation array: the grid values of N(F).

    A single scalar quaternion (a 4-vector) gives its norm a0^2 - a1^2 - a2^2 + a3^2.
    """
    a0, a1, a2, a3 = np.asarray(u, dtype=np.int64) % q
    return (a0 * a0 - a1 * a1 - a2 * a2 + a3 * a3) % q


def norm_zeros_off_T(norms: np.ndarray, t_indices) -> np.ndarray:
    """Grid indices outside T at which the norm values vanish."""
    zero = norms == 0
    zero[list(t_indices)] = False
    return np.flatnonzero(zero)


def rho_inverse(u: np.ndarray, q: int, t_indices=()) -> np.ndarray:
    """Pointwise inverse mod prime q of an evaluation array off T, zero on T.

    Raises NormVanishesOutsideT when a point outside T has zero norm.
    """
    a = np.asarray(u, dtype=np.int64) % q
    norms = rho_norms(a, q)
    bad = norm_zeros_off_T(norms, t_indices)
    if bad.size:
        raise NormVanishesOutsideT(f"norm vanishes at grid index {int(bad[0])} outside T")
    # N^(q-2) = N^-1 by Fermat, by square-and-multiply on the whole array
    ninv, base, e = np.ones_like(norms), norms, q - 2
    while e:
        if e & 1:
            ninv = ninv * base % q
        base = base * base % q
        e >>= 1
    ninv[list(t_indices)] = 0
    return a * _CONJ * ninv % q

