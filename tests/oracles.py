"""Reference paths that the property tests check the library against.

The paper hides a secret set T of grid points, where G vanishes, and
decrypts by a closest-vector search in the secret lattice
D' = qZ^{n^2} + sum_{t in T} Z*lambda_t: an HNF basis of D', Babai's
nearest plane and Schnorr-Euchner sphere decoding.  bqtru admits only
T = {(1,1)}, which every balanced G has, decrypts by an exact scan of the
q cosets of one generator (bqtru.lattice.coset_decode) and never builds
D'.  So the paper's general construction lives here as oracles: keygen
admitting any T whose q^|T| classes the scan bound allows, with a weight
per point of T (paper_keygen and rho_theta), the exact scan over the
q^|T| classes of several generators (coset_scan), decryption through it
(paper_decrypt), sigma (the weighted sum of Lagrange interpolants on T),
the HNF basis of D', both searches in it and a brute-force closest-vector
search.

The paper's other claims are checked through the rest of this module:
the grid points, derived from the smallest primitive root on their own;
point evaluation, Lagrange interpolants built from per-point powers and
interpolation on the grid;
quaternion sums, differences, negatives and scalar multiples; the
conjugate, scalar quaternion products and inverses, the pointwise product
written out row by row, and the inverse of F modulo the secret ideal; the
inverse in either group ring, bqtru's and the NTRU baseline's, as a
Gauss-Jordan solve mod a prime; the quaternion with given coefficient rows
and the centered lift; the paper's 12 n^2-dimensional key-recovery
lattice with its hybrid norm, whose key vector holds rho(gamma) =
rho(F) * rho(theta), the key-membership identity and the
(4 floor(log2 q) + 12) n^2-dimensional expanded key-recovery lattice with
its fold back to the 12 n^2 one; a float64 Gram-Schmidt of given rows and
the LLL conditions read from it; the message codec written one digit at a
time; the text writer as one % into a format per layout; and the sampled
noise variance of honest keys.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from bqtru.errors import (
    BqtruError,
    ContextMismatch,
    MalformedData,
    NotInvertible,
    PayloadTooLarge,
    RetriesExhausted,
)
from bqtru.ideal import derive_T
from bqtru.lattice import LLL_DELTA
from bqtru.params import Params
from bqtru.quat import (
    Quaternion,
    norm_zeros_off_T,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_norm,
    rho_apply,
    rho_inverse,
    rho_mul,
    rho_norms,
)
from bqtru.ring import EvalDomain, centered, conv_mul, mult_matrix, signed_ternary
from bqtru.scheme import F_DRAWS_PER_G, MAX_G_DRAWS, keygen, message_capacity, random_message


class InvalidWeight(BqtruError):
    """Ideal weight must be nonzero mod q."""


class NoPointInRadius(BqtruError):
    """Sphere decoder found no lattice point within the given radius."""


class NotAGridPoint(BqtruError):
    """Requested point is not on the root-of-unity evaluation grid."""


class NonIntegralU(BqtruError):
    """Key membership check produced a non-integral quotient."""


@dataclass(frozen=True)
class LatticeBasis:
    """A square row basis of dimension dim (exact integer or object entries)."""

    rows: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows))
        if self.rows.shape != (self.dim, self.dim):
            raise ValueError("basis must be square with dim rows")


# ---------------------------------------------------------------------------
# constants and predicates that only the tests need
# ---------------------------------------------------------------------------

def ring_zero(n: int) -> np.ndarray:
    return np.zeros(n * n, dtype=np.int64)


def monomial(n: int, a: int, b: int, coeff: int = 1) -> np.ndarray:
    """coeff * x^a y^b as a coefficient row."""
    c = ring_zero(n)
    c[(a % n) * n + (b % n)] = coeff
    return c


def quat_unit(which: str, n: int, modulus=None) -> Quaternion:
    """The basis quaternion named by which, one of "1", "i", "j", "k"."""
    rows = np.zeros((4, n * n), dtype=np.int64)
    rows["1ijk".index(which), 0] = 1
    return Quaternion(rows, modulus)


def quat_one(n: int, modulus=None) -> Quaternion:
    return quat_unit("1", n, modulus)


def _check_ctx(F: Quaternion, G: Quaternion):
    if F.n != G.n or F.modulus != G.modulus:
        raise ContextMismatch(f"(n={F.n}, m={F.modulus}) vs (n={G.n}, m={G.modulus})")


def quat_add(F: Quaternion, G: Quaternion) -> Quaternion:
    _check_ctx(F, G)
    return Quaternion(F.rows + G.rows, F.modulus)


def quat_sub(F: Quaternion, G: Quaternion) -> Quaternion:
    _check_ctx(F, G)
    return Quaternion(F.rows - G.rows, F.modulus)


def quat_neg(F: Quaternion) -> Quaternion:
    return Quaternion(-F.rows, F.modulus)


def quat_scale(F: Quaternion, c: int) -> Quaternion:
    return Quaternion(F.rows * c, F.modulus)


def quat_from_vector(vec, n: int, modulus=None) -> Quaternion:
    """The quaternion whose concatenated coefficients, or (4, n^2) rows, are vec."""
    return Quaternion(np.asarray(vec).reshape(4, n * n), modulus)


def lift_centered(F: Quaternion) -> Quaternion:
    """F with each coefficient mapped to its centered representative mod
    its modulus, and no modulus."""
    if F.modulus is not None and F.modulus % 2 == 0:
        raise ValueError("centered lift requires an odd modulus")
    return Quaternion(F.rows if F.modulus is None else centered(F.rows, F.modulus))


def is_zero(x) -> bool:
    """Whether a Quaternion or an array is zero."""
    if isinstance(x, Quaternion):
        x = x.rows
    return not np.asarray(x).any()


# ---------------------------------------------------------------------------
# evaluation and interpolation on the grid
# ---------------------------------------------------------------------------

def ring_eval(f, a: int, b: int, q: int) -> int:
    """Evaluate the coefficient row f at (a, b) in Z_q; a ring homomorphism mod q."""
    f = np.asarray(f, dtype=np.int64) % q
    n = math.isqrt(f.size)
    pa = np.ones(n, dtype=np.int64)
    pb = np.ones(n, dtype=np.int64)
    for i in range(1, n):
        pa[i] = pa[i - 1] * a % q
        pb[i] = pb[i - 1] * b % q
    grid = f.reshape(n, n)
    return int((pa @ (grid @ pb % q)) % q)


def grid_points(dom: EvalDomain) -> list:
    """The grid in point order: point k = a*n + b is (omega^a, omega^b) with
    omega = g^((q-1)/n), g the smallest primitive root mod q, found as the
    first g whose powers take all q-1 nonzero values."""
    n, q = dom.n, dom.q
    g = next(g for g in range(2, q) if len({pow(g, e, q) for e in range(q - 1)}) == q - 1)
    w = [pow(g, (q - 1) // n * a, q) for a in range(n)]
    return [(w[a], w[b]) for a in range(n) for b in range(n)]


def lagrange_rows(dom: EvalDomain, points) -> np.ndarray:
    """The interpolant of each grid point (a, b), one row each, in [0, q):
    coefficient i*n + j is a^-i b^-j n^-2 mod q."""
    n, q = dom.n, dom.q
    ninv2 = pow(n * n, -1, q)
    rows = np.empty((len(points), n * n), dtype=np.int64)
    for row, (a, b) in zip(rows, points):
        pa = np.array([pow(a, -i, q) for i in range(n)], dtype=np.int64)
        pb = np.array([pow(b, -j, q) * ninv2 % q for j in range(n)], dtype=np.int64)
        row[:] = np.outer(pa, pb).reshape(-1) % q
    return rows


def lagrange_interpolant(dom: EvalDomain, a: int, b: int) -> np.ndarray:
    """The unique element that is 1 at (a, b) and 0 at every other grid point."""
    point = (a % dom.q, b % dom.q)
    if point not in grid_points(dom):
        raise NotAGridPoint(f"({a}, {b}) is not on the grid")
    return lagrange_rows(dom, [point])[0]


def absorb_check(alpha, dom: EvalDomain, a: int, b: int) -> bool:
    """Check alpha * lam_{a,b} == alpha(a,b) * lam_{a,b} coefficientwise mod dom.q."""
    lam = lagrange_interpolant(dom, a, b)
    return np.array_equal(conv_mul(alpha, lam, dom.q),
                          lam * ring_eval(alpha, a, b, dom.q) % dom.q)


def interpolate(dom: EvalDomain, values) -> np.ndarray:
    """Inverse of grid evaluation: the element taking the given grid values."""
    vals = np.asarray(values, dtype=np.int64)
    if vals.shape != (dom.size,):
        raise ValueError(f"expected {dom.size} values")
    return dom.inverse_transform(vals[None])[0]


# ---------------------------------------------------------------------------
# quaternions: conjugate, scalar quaternions, inverse modulo the secret ideal
# ---------------------------------------------------------------------------

def conjugate(F: Quaternion) -> Quaternion:
    return Quaternion(F.rows * np.array([[1], [-1], [-1], [-1]]), F.modulus)


def from_scalar(s, n: int, modulus=None) -> Quaternion:
    """Embed a length-4 scalar quaternion as constant polynomials."""
    rows = np.zeros((4, n * n), dtype=np.int64)
    rows[:, 0] = [int(v) for v in s]
    return Quaternion(rows, modulus)


def scalar_norm(a, q: int) -> int:
    """Norm a0^2 - a1^2 - a2^2 + a3^2 mod q of a scalar quaternion (4-tuple)."""
    a0, a1, a2, a3 = (int(v) % q for v in a)
    return (a0 * a0 - a1 * a1 - a2 * a2 + a3 * a3) % q


def scalar_mul(a, b, q: int):
    """Product of two scalar quaternions (4-tuples) mod q."""
    a0, a1, a2, a3 = (int(v) % q for v in a)
    b0, b1, b2, b3 = (int(v) % q for v in b)
    return (
        (a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3) % q,
        (a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2) % q,
        (a0 * b2 + a1 * b3 + a2 * b0 - a3 * b1) % q,
        (a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0) % q,
    )


def rho_mul_rows(u: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """bqtru.quat.rho_mul written out as the four rows of the product formula."""
    a0, a1, a2, a3 = np.asarray(u, dtype=np.int64) % q
    b0, b1, b2, b3 = np.asarray(v, dtype=np.int64) % q
    return np.stack([
        a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
        a0 * b2 + a1 * b3 + a2 * b0 - a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ]) % q


def scalar_inverse(a, q: int):
    """Inverse of a scalar quaternion mod prime q; fails on zero norm."""
    nrm = scalar_norm(a, q)
    if nrm == 0:
        raise NotInvertible("scalar quaternion has zero norm")
    ninv = pow(nrm, q - 2, q)
    a0, a1, a2, a3 = (int(v) % q for v in a)
    return (a0 * ninv % q, -a1 * ninv % q, -a2 * ninv % q, -a3 * ninv % q)


def quat_inverse_mod_J(F: Quaternion, t_indices, dom: EvalDomain) -> Quaternion:
    """Inverse of F modulo the secret ideal: pointwise inversion off T.

    Every grid zero of N(F) must lie inside T; the result evaluates to the
    scalar inverse of F at each point of E \\ T and to zero on T, so that
    F o F^-1 == 1 at every point off T.
    """
    return Quaternion(dom.inverse_transform(rho_inverse(dom.transform(F.rows), dom.q, t_indices)),
                      dom.q)


def build_sigma(T, weights, dom: EvalDomain) -> np.ndarray:
    """sigma = sum_i weights[i] * lambda_{T[i]}; evaluates to weights on T, 0 off T."""
    if len(T) != len(weights):
        raise ValueError("need one weight per T index")
    vals = np.zeros(dom.size, dtype=np.int64)
    for k, w in zip(T, weights):
        if int(w) % dom.q == 0:
            raise InvalidWeight(f"weight {w} vanishes mod {dom.q}")
        vals[int(k)] = int(w) % dom.q
    return interpolate(dom, vals)


# ---------------------------------------------------------------------------
# linear algebra mod a prime: the inverse in either group ring as a solve
# ---------------------------------------------------------------------------

def solve_mod_prime(A: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Solve A x = b over Z_m (m prime) by Gauss-Jordan elimination in int64.

    The inverse of f solves the system whose matrix is f's multiplication
    matrix (bqtru.ring.mult_matrix(f).T in Z_m[x,y]/(x^n-1, y^n-1),
    f[bqtru.ntru._cyclic_index(n)] in Z_m[x]/(x^n-1)) and whose right-hand
    side is the one.  Every intermediate stays within (m-1)**2 in absolute
    value, so the arithmetic is exact while that is below 2**63; raises
    NotInvertible when A is singular mod m.
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


# ---------------------------------------------------------------------------
# integer Hermite normal form, membership and the secret lattice D'
# ---------------------------------------------------------------------------

def _row_hnf(mat):
    """Row-style HNF (list of Python-int rows, pivots positive, reduced above)."""
    A = [[int(x) for x in row] for row in np.asarray(mat)]
    m = len(A)
    k = len(A[0])
    row = 0
    for col in range(k):
        while True:
            nz = [r for r in range(row, m) if A[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(A[r][col]))
            A[row], A[r0] = A[r0], A[row]
            done = True
            for r in range(row + 1, m):
                if A[r][col] != 0:
                    qt = A[r][col] // A[row][col]
                    A[r] = [a - qt * b for a, b in zip(A[r], A[row])]
                    if A[r][col] != 0:
                        done = False
            if done:
                break
        if row < m and A[row][col] != 0:
            if A[row][col] < 0:
                A[row] = [-a for a in A[row]]
            for r in range(row):
                qt = A[r][col] // A[row][col]
                if qt:
                    A[r] = [a - qt * b for a, b in zip(A[r], A[row])]
            row += 1
    return A[:row]


def determinant(basis: LatticeBasis) -> int:
    """Exact determinant via integer HNF diagonal."""
    H = _row_hnf(basis.rows)
    det = 1
    for i in range(basis.dim):
        det *= int(H[i][i])
    return det


def basis_contains(basis: LatticeBasis, vec) -> bool:
    """Whether vec is an integer combination of the basis rows (exact)."""
    return basis_coordinates(basis, vec) is not None


def basis_coordinates(basis: LatticeBasis, vec):
    """Integer coordinates of vec w.r.t. the HNF of the basis, or None."""
    H = _row_hnf(basis.rows)
    if len(H) != basis.dim:
        raise ValueError("basis rows are not linearly independent")
    v = [int(x) for x in np.asarray(vec)]
    x = [0] * basis.dim
    for j in range(basis.dim):
        rem = v[j] - sum(x[i] * H[i][j] for i in range(j))
        if rem % H[j][j] != 0:
            return None
        x[j] = rem // H[j][j]
    return x


def build_D_prime(T, dom: EvalDomain) -> LatticeBasis:
    """HNF basis of the coefficient lattice of <q, sigma> for the secret set T.

    Stacks q*I with the Lagrange rows for T (already in [0, q)); sigma
    itself is w_i times those rows modulo q, so the span is the full ideal
    lattice whatever the weights.
    """
    nsq = dom.size
    points = grid_points(dom)
    stack = np.zeros((nsq + len(T), nsq), dtype=np.int64)
    stack[:nsq] = dom.q * np.eye(nsq, dtype=np.int64)
    stack[nsq:] = lagrange_rows(dom, [points[t] for t in T])
    H = _row_hnf(stack)
    return LatticeBasis(np.array(H, dtype=object), nsq)


def build_private_lattice(D_prime: LatticeBasis) -> LatticeBasis:
    """Block diagonal with four copies of D'; one block per quaternion slot."""
    nsq = D_prime.dim
    rows = np.zeros((4 * nsq, 4 * nsq), dtype=object)
    for b in range(4):
        rows[b * nsq:(b + 1) * nsq, b * nsq:(b + 1) * nsq] = D_prime.rows
    return LatticeBasis(rows, 4 * nsq)


# ---------------------------------------------------------------------------
# the paper's general secret set: keygen for any T, the scan over several
# generators and decryption through it
# ---------------------------------------------------------------------------

# the paper's keygen admits a secret set T only if its q^|T| coset classes
# stay within this bound
MAX_SCAN_CLASSES = 2 ** 16


@dataclass
class PaperKey:
    """A keypair of the paper's construction: the secret half (F, G, T,
    one nonzero weight mod q per point of T, W), F^-1 mod p and the
    public key H."""

    params: Params
    F: Quaternion
    G: Quaternion
    T: tuple
    weights: tuple
    W: tuple
    F_p_inv: Quaternion
    H: Quaternion


def rho_theta(T, weights, W, dom: EvalDomain) -> np.ndarray:
    """rho(theta): weights[i] * W at grid index T[i], zero elsewhere."""
    out = np.zeros((4, dom.size), dtype=np.int64)
    out[:, list(T)] = np.outer(W, weights) % dom.q
    return out


def paper_keygen(params: Params, seed: int) -> PaperKey:
    """The key random.Random(seed) draws when keygen admits every secret
    set T with 1 <= |T| and q^|T| <= MAX_SCAN_CLASSES, drawing one weight
    per point of T.  The draws are bqtru.scheme.keygen's, so the two give
    the same key for a seed unless a G drawn for it vanishes at more
    points than (1,1) and passes the bound."""
    q, nsq = params.q, params.nsq
    dom = EvalDomain(params.n, q)
    rng = random.Random(seed)
    for _ in range(MAX_G_DRAWS):
        G = Quaternion(signed_ternary(nsq, [params.d_g] * 4, [params.d_g] * 4, rng))
        T = derive_T(dom.transform(G.rows))
        if not (T and q ** len(T) <= MAX_SCAN_CLASSES):
            continue
        for _ in range(F_DRAWS_PER_G):
            F = Quaternion(signed_ternary(nsq, [params.d_f + 1] + [params.d_f] * 3,
                                          [params.d_f] * 4, rng))
            if norm_zeros_off_T(dom.transform(quat_norm(F.with_modulus(q))[None])[0], T).size:
                continue
            try:
                F_p_inv = quat_inverse_mod_p(F.with_modulus(params.p))
            except NotInvertible:
                continue
            break
        else:
            continue
        weights = tuple(rng.randrange(1, q) for _ in T)
        while True:
            W = tuple(rng.randrange(1, q) for _ in range(4))
            if rho_norms(W, q) != 0:
                break
        rho_H = (rho_mul(rho_inverse(dom.transform(F.rows), q, T), dom.transform(G.rows), q)
                 + rho_theta(T, weights, W, dom)) % q
        return PaperKey(params, F, G, tuple(T), weights, W, F_p_inv,
                        Quaternion(dom.inverse_transform(rho_H), q))
    raise RetriesExhausted(f"no usable G found in {MAX_G_DRAWS} attempts")


def coset_scan(gens, q: int, targets) -> np.ndarray:
    """Exact closest points of qZ^N + sum_t Z*gens[t] to targets, by the
    paper's scan of every class c in Z_q^k: the point of class c closest
    to a target a is a - centered(a - c @ gens mod q).  Ties go to the
    first c in lexicographic order.  All q^k classes are held at once."""
    a = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, a.shape[1])
    k = len(gens)
    classes = np.array(list(itertools.product(range(q), repeat=k)),
                       dtype=np.int64).reshape(q ** k, k)
    points = classes @ gens % q
    out = np.empty_like(a)
    for i, t in enumerate(a):
        r = centered(t - points, q)
        out[i] = t - r[np.einsum("jk,jk->j", r, r).argmin()]
    return out[0] if np.ndim(targets) == 1 else out


def paper_decrypt(sk, T, C) -> np.ndarray:
    """M's centered rows from the ciphertext rows C under a key with F and
    F_p_inv, by the scan of the q^|T| classes of the secret set T."""
    params = sk.params
    q, p = params.q, params.p
    dom = EvalDomain(params.n, q)
    targets = dom.inverse_transform(rho_mul(dom.transform(sk.F.rows), dom.transform(C), q))
    points = grid_points(dom)
    V = targets - coset_scan(lagrange_rows(dom, [points[t] for t in T]), q, targets)
    return centered(quat_mul_schoolbook(sk.F_p_inv, Quaternion(V, p)).rows, p)


# ---------------------------------------------------------------------------
# closest-vector search: nearest plane, sphere decoding, brute force
# ---------------------------------------------------------------------------

def gram_schmidt(rows):
    """Float64 Gram-Schmidt of the rows b_i, by modified Gram-Schmidt:
    (mu, bstar, norms_sq) with b_i = bstar_i + sum_{j<i} mu[i, j] bstar_j,
    mu unit lower triangular and norms_sq[i] = |bstar_i|^2."""
    B = np.asarray(rows, dtype=np.float64)
    k = len(B)
    mu, bstar, norms_sq = np.eye(k), B.copy(), np.zeros(k)
    for i in range(k):
        for j in range(i):
            mu[i, j] = bstar[i] @ bstar[j] / norms_sq[j]
            bstar[i] -= mu[i, j] * bstar[j]
        norms_sq[i] = bstar[i] @ bstar[i]
    return mu, bstar, norms_sq


def babai_nearest_plane(rows, t) -> np.ndarray:
    """Nearest-plane estimate; distance at most half the sum of GSO lengths."""
    rows = np.asarray(rows, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (rows.shape[1],):
        raise ValueError("target has the wrong dimension")
    _, bstar, norms_sq = gram_schmidt(rows)
    w = t.copy()
    out = np.zeros(rows.shape[1], dtype=np.int64)
    for i in range(len(rows) - 1, -1, -1):
        c = round(w @ bstar[i] / norms_sq[i])
        if c:
            out += c * rows[i]
            w = w - c * rows[i].astype(np.float64)
    return out


def sphere_decode(rows, t, radius: float | None = None,
                  max_nodes: int | None = None) -> np.ndarray:
    """Exact closest vector by Schnorr-Euchner enumeration.

    The search starts from the Babai solution (or the caller's radius) and
    shrinks whenever a better point is found, so the result is the true
    closest point whenever any lattice point lies within the initial radius.

    max_nodes caps the number of visited tree nodes; when the cap is hit
    the best point found so far is returned (for targets far from the
    lattice the full tree is astronomically large and the exact answer is
    worthless anyway).
    """
    rows = np.asarray(rows, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    k = len(rows)
    mu, _, norms_sq = gram_schmidt(rows)
    # coordinates of t in the basis (least squares handles non-square spans)
    x, *_ = np.linalg.lstsq(rows.T.astype(np.float64), t, rcond=None)

    if radius is None:
        guess = babai_nearest_plane(rows, t)
        best_sq = float(np.sum((t - guess) ** 2))
        best = guess
        bound = best_sq * (1 + 1e-9) + 1e-9
    else:
        best = None
        best_sq = math.inf
        bound = float(radius) ** 2 * (1 + 1e-9)

    u = np.zeros(k)
    centers = np.zeros(k)
    dists = np.zeros(k + 1)
    steps = np.zeros(k)
    i = k - 1
    centers[i] = x[i]
    u[i] = round(centers[i])
    steps[i] = math.copysign(1.0, centers[i] - u[i]) or 1.0
    best_u = None
    nodes = 0
    while True:
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            break
        diff = centers[i] - u[i]
        d = dists[i + 1] + diff * diff * norms_sq[i]
        if d <= bound:
            if i == 0:
                if d < best_sq:
                    best_sq = d
                    best_u = u.copy()
                    bound = d * (1 + 1e-9) + 1e-9
                u[0] += steps[0]
                steps[0] = -steps[0] - math.copysign(1.0, steps[0])
            else:
                dists[i] = d
                i -= 1
                centers[i] = x[i] + (x[i + 1:] - u[i + 1:]) @ mu[i + 1:, i]
                u[i] = round(centers[i])
                steps[i] = math.copysign(1.0, centers[i] - u[i]) or 1.0
        else:
            i += 1
            if i == k:
                break
            u[i] += steps[i]
            steps[i] = -steps[i] - math.copysign(1.0, steps[i])
    if best_u is not None:
        best = best_u.astype(np.int64) @ rows
    if best is None:
        raise NoPointInRadius("no lattice point within the given radius")
    return best


def exhaustive_cvp(rows, t, center, box):
    """Brute-force closest vector over the coefficient box around `center`.

    Every integer coefficient vector within `box` of `center` in each
    coordinate is one row of a grid; one matrix product gives all the
    candidate points.  Returns (point, squared distance); ties go to the
    first coefficient vector in lexicographic order.
    """
    dim = len(center)
    # C order walks the grid lexicographically, as itertools.product does
    grid = np.indices((2 * box + 1,) * dim).reshape(dim, -1).T - box
    points = (grid + np.asarray(center, dtype=np.int64)) @ np.asarray(rows, dtype=np.int64)
    d = np.sum((np.asarray(t, dtype=np.float64) - points) ** 2, axis=1)
    j = int(d.argmin())
    return points[j], float(d[j])


# ---------------------------------------------------------------------------
# LLL conditions
# ---------------------------------------------------------------------------

def is_size_reduced(rows, tol: float = 1e-9) -> bool:
    mu, _, _ = gram_schmidt(rows)
    return all(abs(mu[i, j]) <= 0.5 + tol for i in range(len(mu)) for j in range(i))


def satisfies_lovasz(rows, tol: float = 1e-9) -> bool:
    mu, _, norms_sq = gram_schmidt(rows)
    for i in range(1, len(mu)):
        lhs = (LLL_DELTA - mu[i, i - 1] ** 2) * norms_sq[i - 1]
        if norms_sq[i] < lhs - tol * norms_sq[i - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# key recovery: the paper's lattice and hybrid norm, the membership
# identity and the expanded lattice
# ---------------------------------------------------------------------------

def rho_gamma(sk) -> np.ndarray:
    """rho(gamma) = rho(F) * rho(theta) of a bqtru.scheme.PrivateKey, zero
    off its secret set {(1,1)}: rho(F o H) = rho(G) + rho(gamma) mod q."""
    dom = EvalDomain(sk.params.n, sk.params.q)
    return rho_apply(sk.left_F, rho_theta([0], [sk.weight], sk.W, dom), dom.q)


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
    """The paper's key-recovery lattice [[qI, 0, 0], [HH, I, 0], [DD, 0, I]]
    of dimension 12 n^2, as an int64 row basis.

    HH maps vector(F) to vector(F o H) mod q, and DD holds the interpolant
    rows, the inverse transform of the identity, once per quaternion slot.
    Its key vector is (G, F, -rho(gamma)) flattened row by row.
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
    """The paper's hybrid norm: Euclidean length of the (g, f) halves plus
    Hamming weight of the rho half."""
    g = np.asarray(g_part, dtype=np.float64)
    f = np.asarray(f_part, dtype=np.float64)
    ham = int(np.count_nonzero(np.asarray(rho_part)))
    return math.sqrt(float(np.dot(g, g) + np.dot(f, f))) + ham


def gamma_vector(rho_g: np.ndarray, dom: EvalDomain) -> np.ndarray:
    """Integer coefficient vector (length 4n^2) interpolating the evaluation array rho_g.

    Uses the same interpolant rows, in [0, q), as the lattice
    constructions, so the result is the exact integer product
    rho_g.reshape(-1) @ blockdiag(D).
    """
    D = lagrange_rows(dom, grid_points(dom)).astype(object)
    return np.concatenate([row @ D for row in np.asarray(rho_g, dtype=object)])


def verify_key_membership(sk, pk, dom: EvalDomain, rho_g, strict: bool = False) -> bool:
    """Check the defining identity (-U, F, -rho(gamma)) @ M == (G, F, -rho(gamma)),
    with rho(gamma) given as rho_g.

    U is the exact integer quotient (F o H - G - gamma) / q; a non-integral
    quotient means the key material is inconsistent (returns False, or
    raises NonIntegralU in strict mode).
    """
    q = dom.q
    four = 4 * dom.size
    F, G = lift_centered(sk.F), lift_centered(sk.G)
    M = build_bqtru_lattice(pk.H, dom)
    HH = M[four:2 * four, :four]
    f_vec, g_vec = (X.rows.reshape(-1).astype(object) for X in (F, G))
    FH_vec = f_vec @ HH
    gamma = gamma_vector(rho_g, dom)
    diff = FH_vec - g_vec - gamma
    if any(int(v) % q != 0 for v in diff):
        if strict:
            raise NonIntegralU("F o H - G - gamma is not divisible by q")
        return False
    U = np.array([int(v) // q for v in diff], dtype=object)
    r = np.asarray(rho_g, dtype=object).reshape(-1)
    x = np.concatenate([-U, f_vec, -r])
    target = np.concatenate([g_vec, f_vec, -r])
    return bool(np.array_equal(x @ M, target))


def build_expanded_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """The key-recovery lattice with interpolant rows scaled by 1, 2, ..., 2^l.

    [[qI, 0, 0], [HH, I, 0], [DD, 0, I]] as in build_bqtru_lattice,
    but DD holds, per quaternion slot, the interpolant rows scaled by each
    power of two in turn.  Dimension (4l + 12) n^2 with l = floor(log2 q);
    the scaled copies let a reducer reach interpolant combinations with
    coefficients up to q using only small integer multiples.
    """
    ell = int(math.floor(math.log2(dom.q)))
    nsq = dom.size
    four = 4 * nsq
    per = (ell + 1) * nsq
    dim = 2 * four + 4 * per
    D = lagrange_rows(dom, grid_points(dom))
    scaled = np.concatenate([(1 << t) * D for t in range(ell + 1)])
    rows = np.zeros((dim, dim), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = _quat_block_matrix(H) % dom.q
    for b in range(4):
        rows[2 * four + b * per:2 * four + (b + 1) * per, b * nsq:(b + 1) * nsq] = scaled
    rows[four:, four:] = np.eye(dim - four, dtype=np.int64)
    return LatticeBasis(rows.astype(object), dim)


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


# ---------------------------------------------------------------------------
# message codec, one digit at a time
# ---------------------------------------------------------------------------

def _digits_per_byte(p: int) -> int:
    k, v = 0, 1
    while v < 256:
        v *= p
        k += 1
    return k


def loop_encode_message(payload: bytes, params) -> np.ndarray:
    """bqtru.scheme.encode_message with Python-int digit loops: a 16-digit
    length prefix, then the digits of each byte, least significant first."""
    p = params.p
    per = _digits_per_byte(p)
    if len(payload) > message_capacity(params):
        raise PayloadTooLarge(
            f"{len(payload)} bytes exceed the {message_capacity(params)}-byte capacity"
        )
    digits = []
    v = len(payload)
    for _ in range(16):
        digits.append(v % p)
        v //= p
    for byte in payload:
        b = byte
        for _ in range(per):
            digits.append(b % p)
            b //= p
    flat = np.zeros(4 * params.nsq, dtype=np.int64)
    flat[:len(digits)] = digits
    return centered(flat, p).reshape(4, params.nsq)


def loop_decode_message(M: np.ndarray, params) -> bytes:
    """bqtru.scheme.decode_message with Python-int digit loops."""
    p = params.p
    per = _digits_per_byte(p)
    half = (p - 1) // 2
    flat = np.asarray(M, dtype=np.int64).reshape(-1)
    if flat.min() < -half or flat.max() > half:
        raise MalformedData(f"a message is a (4, {params.nsq}) array of centered base-p digits")
    flat = flat % p
    length = 0
    for i in range(15, -1, -1):
        length = length * p + int(flat[i])
    if length > message_capacity(params):
        raise MalformedData("length prefix exceeds capacity")
    out = bytearray()
    pos = 16
    for _ in range(length):
        b = 0
        for i in range(per - 1, -1, -1):
            b = b * p + int(flat[pos + i])
        if b > 255:
            raise MalformedData("byte group out of range")
        out.append(b)
        pos += per
    return bytes(out)


# ---------------------------------------------------------------------------
# text files, written by one % into a format per layout
# ---------------------------------------------------------------------------

def percent_dump(kind: str, header_line: str, layout: tuple, values) -> str:
    """bqtru.scheme._dump by one % over a '%d' per value: the magic line
    with the kind, the header line, and a 'label: %d ...' line per (label,
    count) of layout, filled from the flat values in order."""
    lines = [f"BQTRU v1 {kind}", header_line]
    lines += [label + ": " + " ".join(["%d"] * count) for label, count in layout]
    return ("\n".join(lines) + "\n") % tuple(np.ravel(values).tolist())


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def empirical_noise_variance(params, samples: int, rng) -> float:
    """Sample variance of the mask coefficients under one honest key."""
    rng = rng if isinstance(rng, random.Random) else random.Random(rng)
    _, sk = keygen(params, rng)
    n, p = params.n, params.p
    acc = []
    for _ in range(samples):
        phi = Quaternion([signed_ternary(n * n, params.d_phi, params.d_phi, rng)
                          for _ in range(4)])
        M = quat_from_vector(random_message(params, rng), n)
        mask = quat_add(quat_scale(quat_mul_schoolbook(sk.G, phi), p),
                        quat_mul_schoolbook(sk.F, M))
        acc.append(mask.rows.reshape(-1))
    flat = np.concatenate(acc).astype(np.float64)
    return float(flat.var())
