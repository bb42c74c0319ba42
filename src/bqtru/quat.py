"""Split-quaternion algebra (i^2 = j^2 = 1, ij = -ji = k) over the bivariate ring.

Products are available in two equivalent coefficient-domain forms: the
schoolbook expansion (16 ring products) and the Strassen route through
the 2x2 matrix image (7 ring products).  Both count their convolutions in
ring.CONV_COUNTER; they are the paper's reference paths.

The norm N(F) and the inverse mod p, N(F)^-1 o conj(F), run pointwise in
ring.product_domain (q's own grid, or an auxiliary prime's for p), so
quat_inverse_mod_p convolves only inside ring_inverse.

Mod q a quaternion is also its evaluation array rho(F): row k is the
scalar quaternion F(points[k]) over Z_q.  rho is an isomorphism of
algebras, so a mod-q product is rho_mul of two arrays (n**2 scalar
products, no convolution) and rho_interpolate maps back.  rho_inverse
inverts pointwise off the secret set T, which is how keygen inverts F
modulo the secret ideal.  rho_norms is the one scalar-quaternion norm: it
gives the grid values of N(F), and keygen vets the scalar weight W it
draws with it.  norm_zeros_off_T is the one test that a norm vanishes
only inside T, for keygen, private-key load and rho_inverse.  Centered
lifts use ring.centered.  Conjugation in the coefficient domain, scalar
products and the inverse mod the secret ideal are reference paths in
tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .errors import ContextMismatch, EvenModulus, NormVanishesOutsideT
from .ring import EvalDomain, RingElem, centered, conv_mul, product_domain, ring_inverse


class Quaternion:
    """c0 + c1*i + c2*j + c3*k with RingElem components sharing one context."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: RingElem, c1: RingElem, c2: RingElem, c3: RingElem):
        for c in (c1, c2, c3):
            if c.n != c0.n or c.modulus != c0.modulus:
                raise ContextMismatch("quaternion components must share one ring context")
        self.c0, self.c1, self.c2, self.c3 = c0, c1, c2, c3

    @property
    def components(self):
        return (self.c0, self.c1, self.c2, self.c3)

    @property
    def n(self) -> int:
        return self.c0.n

    @property
    def modulus(self):
        return self.c0.modulus

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "Quaternion":
        return Quaternion(*(-a for a in self.components))

    def scale(self, c: int) -> "Quaternion":
        return Quaternion(*(a.scale(c) for a in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def __hash__(self):
        return hash(self.components)

    def with_modulus(self, modulus) -> "Quaternion":
        return Quaternion(*(c.with_modulus(modulus) for c in self.components))

    def lift_centered(self) -> "Quaternion":
        return Quaternion(*(c.lift_centered() for c in self.components))

    def lift_positive(self) -> "Quaternion":
        return Quaternion(*(c.lift_positive() for c in self.components))

    def vector(self) -> np.ndarray:
        """Concatenated coefficient vector (length 4*n**2)."""
        return np.concatenate([c.coeffs for c in self.components])

    @classmethod
    def from_vector(cls, vec, n: int, modulus=None) -> "Quaternion":
        vec = np.asarray(vec)
        nsq = n * n
        return cls(*(RingElem(vec[i * nsq:(i + 1) * nsq], n, modulus) for i in range(4)))

    def __repr__(self):
        return f"Quaternion(n={self.n}, mod={self.modulus})"


def quat_mul_schoolbook(F: Quaternion, G: Quaternion) -> Quaternion:
    """Direct product expansion; exactly 16 convolution products."""
    f0, f1, f2, f3 = F.components
    g0, g1, g2, g3 = G.components
    c0 = conv_mul(f0, g0) + conv_mul(f1, g1) + conv_mul(f2, g2) - conv_mul(f3, g3)
    c1 = conv_mul(f0, g1) + conv_mul(f1, g0) - conv_mul(f2, g3) + conv_mul(f3, g2)
    c2 = conv_mul(f0, g2) + conv_mul(f1, g3) + conv_mul(f2, g0) - conv_mul(f3, g1)
    c3 = conv_mul(f0, g3) + conv_mul(f1, g2) - conv_mul(f2, g1) + conv_mul(f3, g0)
    return Quaternion(c0, c1, c2, c3)


def quat_to_matrix(F: Quaternion):
    """2x2 matrix image [[c0+c1, c2+c3], [c2-c3, c0-c1]] of the algebra isomorphism."""
    c0, c1, c2, c3 = F.components
    return [[c0 + c1, c2 + c3], [c2 - c3, c0 - c1]]


def matrix_to_quat(M) -> Quaternion:
    """Inverse of quat_to_matrix; requires an odd modulus (divides by 2)."""
    m = M[0][0].modulus
    if m is None or m % 2 == 0:
        raise EvenModulus("matrix image inversion needs an odd modulus")
    inv2 = (m + 1) // 2
    c0 = (M[0][0] + M[1][1]).scale(inv2)
    c1 = (M[0][0] - M[1][1]).scale(inv2)
    c2 = (M[0][1] + M[1][0]).scale(inv2)
    c3 = (M[0][1] - M[1][0]).scale(inv2)
    return Quaternion(c0, c1, c2, c3)


def quat_mul_strassen(F: Quaternion, G: Quaternion) -> Quaternion:
    """Product via Strassen's seven multiplications on the 2x2 images."""
    m = F.modulus
    if m is None or m % 2 == 0:
        raise EvenModulus("Strassen recombination needs the inverse of 2")
    A = quat_to_matrix(F)
    B = quat_to_matrix(G)
    m1 = conv_mul(A[0][0] + A[1][1], B[0][0] + B[1][1])
    m2 = conv_mul(A[1][0] + A[1][1], B[0][0])
    m3 = conv_mul(A[0][0], B[0][1] - B[1][1])
    m4 = conv_mul(A[1][1], B[1][0] - B[0][0])
    m5 = conv_mul(A[0][0] + A[0][1], B[1][1])
    m6 = conv_mul(A[1][0] - A[0][0], B[0][0] + B[0][1])
    m7 = conv_mul(A[0][1] - A[1][1], B[1][0] + B[1][1])
    C = [[m1 + m4 - m5 + m7, m3 + m5], [m2 + m4, m1 - m2 + m3 + m6]]
    return matrix_to_quat(C)


def _grid_values(comps, dom: EvalDomain) -> np.ndarray:
    """Rows of grid values in dom of the centered lifts of ring elements."""
    return dom.transform(centered(np.stack([c.coeffs for c in comps]), comps[0].modulus))


def _from_grid_values(vals: np.ndarray, n: int, m: int, dom: EvalDomain):
    """Ring elements mod m from rows of grid values in dom of exact integer results."""
    return [RingElem(c, n, m) for c in centered(dom.inverse_transform(vals), dom.q)]


def quat_norm(F: Quaternion) -> RingElem:
    """N(F) = c0^2 - c1^2 - c2^2 + c3^2; satisfies F o conj(F) = N(F).

    Computed pointwise in ring.product_domain, with no convolution; the
    modulus must be an odd prime.
    """
    m = F.modulus
    if m is None:
        raise ValueError("the quaternion norm needs a prime modulus")
    dom = product_domain(F.n, m)
    N = rho_norms(_grid_values(F.components, dom).T, dom.q)
    return _from_grid_values(N[None], F.n, m, dom)[0]


def quat_inverse_mod_p(F: Quaternion) -> Quaternion:
    """Inverse in the quaternion algebra over Z_p: N(F)^-1 o conj(F).

    F is transformed once into ring.product_domain; the norm and the four
    products are pointwise there, so ring_inverse's digit products are
    the only convolutions.
    """
    m, n = F.modulus, F.n
    dom = product_domain(n, m)
    vals = _grid_values(F.components, dom)
    N = _from_grid_values(rho_norms(vals.T, dom.q)[None], n, m, dom)[0]
    ninv = _grid_values((ring_inverse(N),), dom)
    conj = vals * np.array([[1], [-1], [-1], [-1]])
    return Quaternion(*_from_grid_values(ninv * conj % dom.q, n, m, dom))


# ---------------------------------------------------------------------------
# scalar quaternions over Z_q (entries are integers, not polynomials)
# ---------------------------------------------------------------------------

def rho(F: Quaternion, dom: EvalDomain) -> np.ndarray:
    """Grid evaluation map: row k is the scalar quaternion F(points[k]).

    Shape (n**2, 4); a homomorphism for both + and the quaternion product.
    """
    if F.modulus != dom.q or F.n != dom.n:
        raise ContextMismatch("quaternion does not match the domain")
    return dom.transform(np.stack([c.coeffs for c in F.components])).T


def rho_interpolate(vals, dom: EvalDomain) -> Quaternion:
    """The quaternion mod q whose evaluation array is vals (inverse of rho)."""
    coeffs = dom.inverse_transform(np.asarray(vals, dtype=np.int64).T)
    return Quaternion(*(RingElem(c, dom.n, dom.q) for c in coeffs))


def rho_mul(u: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Pointwise scalar-quaternion product of two evaluation arrays mod q.

    Each entry sums four products below (q-1)**2, exact in int64 under
    Params' bound.
    """
    a0, a1, a2, a3 = (np.asarray(u, dtype=np.int64) % q).T
    b0, b1, b2, b3 = (np.asarray(v, dtype=np.int64) % q).T
    return np.stack([
        a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
        a0 * b2 + a1 * b3 + a2 * b0 - a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=1) % q


def rho_norms(u: np.ndarray, q: int) -> np.ndarray:
    """Scalar norms mod q of the rows of an evaluation array: the grid values of N(F).

    A single scalar quaternion (a 4-vector) gives its norm a0^2 - a1^2 - a2^2 + a3^2.
    """
    a0, a1, a2, a3 = (np.asarray(u, dtype=np.int64) % q).T
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
    return a * np.array([1, -1, -1, -1]) * ninv[:, None] % q

