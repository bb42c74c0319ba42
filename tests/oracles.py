"""Reference paths that the property tests check the library against.

The paper decrypts by a closest-vector search in the secret lattice
D' = qZ^{n^2} + sum_{t in T} Z*lambda_t: an HNF basis of D', Babai's
nearest plane and Schnorr-Euchner sphere decoding.  bqtru decrypts by an
exact coset scan instead (bqtru.lattice.coset_decode) and never builds
D', so these constructions, together with sigma (the weighted sum of
Lagrange interpolants on T) and a brute-force closest-vector search,
live here as oracles.

The paper's other claims are checked through the rest of this module:
point evaluation, Lagrange interpolants and interpolation on the grid;
the conjugate, scalar quaternion products and inverses, and the inverse
of F modulo the secret ideal; the key-membership identity and the
(4 floor(log2 q) + 12) n^2-dimensional expanded key-recovery lattice with
its fold back to the 12 n^2 one; the LLL conditions; and the sampled
noise variance of honest keys.
"""

from __future__ import annotations

import math
import random

import numpy as np

from bqtru.errors import BqtruError, NotInvertible
from bqtru.ideal import LatticeBasis, _quat_block_matrix, build_bqtru_lattice, rho_flat
from bqtru.lattice import ReducedBasis
from bqtru.quat import (
    Quaternion,
    quat_mul_schoolbook,
    rho,
    rho_interpolate,
    rho_inverse,
)
from bqtru.ring import EvalDomain, RingElem, conv_mul
from bqtru.scheme import keygen, random_message, sample_ternary


class InvalidWeight(BqtruError):
    """Ideal weight must be nonzero mod q."""


class NoPointInRadius(BqtruError):
    """Sphere decoder found no lattice point within the given radius."""


class NotAGridPoint(BqtruError):
    """Requested point is not on the root-of-unity evaluation grid."""


class NonIntegralU(BqtruError):
    """Key membership check produced a non-integral quotient."""


# ---------------------------------------------------------------------------
# constants and predicates that only the tests need
# ---------------------------------------------------------------------------

def ring_zero(n: int, modulus=None) -> RingElem:
    return RingElem(np.zeros(n * n, dtype=np.int64), n, modulus)


def monomial(n: int, a: int, b: int, coeff: int = 1, modulus=None) -> RingElem:
    """coeff * x^a y^b."""
    c = np.zeros(n * n, dtype=np.int64)
    c[(a % n) * n + (b % n)] = coeff
    return RingElem(c, n, modulus)


def quat_unit(which: str, n: int, modulus=None) -> Quaternion:
    """The basis quaternion named by which, one of "1", "i", "j", "k"."""
    comps = [ring_zero(n, modulus) for _ in range(4)]
    comps["1ijk".index(which)] = RingElem.one(n, modulus)
    return Quaternion(*comps)


def quat_zero(n: int, modulus=None) -> Quaternion:
    return Quaternion(*(ring_zero(n, modulus) for _ in range(4)))


def quat_one(n: int, modulus=None) -> Quaternion:
    return quat_unit("1", n, modulus)


def is_zero(x) -> bool:
    """Whether a RingElem or a Quaternion is zero."""
    return not (x.vector() if isinstance(x, Quaternion) else x.coeffs).any()


# ---------------------------------------------------------------------------
# evaluation and interpolation on the grid
# ---------------------------------------------------------------------------

def ring_eval(f: RingElem, a: int, b: int) -> int:
    """Evaluate f at (a, b) in Z_q; a ring homomorphism for modulus q."""
    q = f.modulus
    if q is None:
        raise ValueError("evaluation requires a modular context")
    n = f.n
    pa = np.ones(n, dtype=np.int64)
    pb = np.ones(n, dtype=np.int64)
    for i in range(1, n):
        pa[i] = pa[i - 1] * a % q
        pb[i] = pb[i - 1] * b % q
    grid = f.coeffs.reshape(n, n)
    return int((pa @ (grid @ pb % q)) % q)


def lagrange_interpolant(dom: EvalDomain, a: int, b: int) -> RingElem:
    """The unique element that is 1 at (a, b) and 0 at every other grid point."""
    try:
        k = dom.points.index((a % dom.q, b % dom.q))
    except ValueError:
        raise NotAGridPoint(f"({a}, {b}) is not on the grid")
    return RingElem(dom.lagrange_matrix[k], dom.n, dom.q)


def absorb_check(alpha: RingElem, dom: EvalDomain, a: int, b: int) -> bool:
    """Check alpha * lam_{a,b} == alpha(a,b) * lam_{a,b} coefficientwise."""
    lam = lagrange_interpolant(dom, a, b)
    return conv_mul(alpha, lam) == lam.scale(ring_eval(alpha, a, b))


def interpolate(dom: EvalDomain, values) -> RingElem:
    """Inverse of grid evaluation: the element taking the given grid values."""
    vals = np.asarray(values, dtype=np.int64)
    if vals.shape != (dom.size,):
        raise ValueError(f"expected {dom.size} values")
    return RingElem(dom.inverse_transform(vals[None])[0], dom.n, dom.q)


# ---------------------------------------------------------------------------
# quaternions: conjugate, scalar quaternions, inverse modulo the secret ideal
# ---------------------------------------------------------------------------

def conjugate(F: Quaternion) -> Quaternion:
    return Quaternion(F.c0, -F.c1, -F.c2, -F.c3)


def from_scalar(s, n: int, modulus=None) -> Quaternion:
    """Embed a length-4 scalar quaternion as constant polynomials."""
    comps = []
    for v in s:
        c = np.zeros(n * n, dtype=np.int64)
        c[0] = int(v)
        comps.append(RingElem(c, n, modulus))
    return Quaternion(*comps)


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
    return rho_interpolate(rho_inverse(rho(F, dom), dom.q, t_indices), dom)


def build_sigma(T, weights, dom: EvalDomain) -> RingElem:
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
    stack = np.zeros((nsq + len(T), nsq), dtype=np.int64)
    stack[:nsq] = dom.q * np.eye(nsq, dtype=np.int64)
    stack[nsq:] = dom.lagrange_matrix[list(T)]
    H = _row_hnf(stack)
    return LatticeBasis(np.array(H, dtype=object), nsq, "D_prime")


def build_private_lattice(D_prime: LatticeBasis) -> LatticeBasis:
    """Block diagonal with four copies of D'; one block per quaternion slot."""
    nsq = D_prime.dim
    rows = np.zeros((4 * nsq, 4 * nsq), dtype=object)
    for b in range(4):
        rows[b * nsq:(b + 1) * nsq, b * nsq:(b + 1) * nsq] = D_prime.rows
    return LatticeBasis(rows, 4 * nsq, "private")


# ---------------------------------------------------------------------------
# closest-vector search: nearest plane, sphere decoding, brute force
# ---------------------------------------------------------------------------

def babai_nearest_plane(rb: ReducedBasis, t) -> np.ndarray:
    """Nearest-plane estimate; distance at most half the sum of GSO lengths."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (rb.rows.shape[1],):
        raise ValueError("target has the wrong dimension")
    w = t.copy()
    out = np.zeros(rb.rows.shape[1], dtype=np.int64)
    for i in range(len(rb.rows) - 1, -1, -1):
        c = round(w @ rb.bstar[i] / rb.norms_sq[i])
        if c:
            out += c * rb.rows[i]
            w = w - c * rb.rows[i].astype(np.float64)
    return out


def sphere_decode(rb: ReducedBasis, t, radius: float | None = None,
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
    t = np.asarray(t, dtype=np.float64)
    k = len(rb.rows)
    # coordinates of t in the basis (least squares handles non-square spans)
    x, *_ = np.linalg.lstsq(rb.rows.T.astype(np.float64), t, rcond=None)

    if radius is None:
        guess = babai_nearest_plane(rb, t)
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
        d = dists[i + 1] + diff * diff * rb.norms_sq[i]
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
                centers[i] = x[i] + (x[i + 1:] - u[i + 1:]) @ rb.mu[i + 1:, i]
                u[i] = round(centers[i])
                steps[i] = math.copysign(1.0, centers[i] - u[i]) or 1.0
        else:
            i += 1
            if i == k:
                break
            u[i] += steps[i]
            steps[i] = -steps[i] - math.copysign(1.0, steps[i])
    if best_u is not None:
        best = best_u.astype(np.int64) @ rb.rows
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

def is_size_reduced(rb: ReducedBasis, tol: float = 1e-9) -> bool:
    return all(abs(rb.mu[i, j]) <= 0.5 + tol for i in range(len(rb.rows)) for j in range(i))


def satisfies_lovasz(rb: ReducedBasis, tol: float = 1e-9) -> bool:
    for i in range(1, len(rb.rows)):
        lhs = (rb.delta - rb.mu[i, i - 1] ** 2) * rb.norms_sq[i - 1]
        if rb.norms_sq[i] < lhs - tol * rb.norms_sq[i - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# key recovery: the membership identity and the expanded lattice
# ---------------------------------------------------------------------------

def gamma_vector(rho_gamma: np.ndarray, dom: EvalDomain) -> np.ndarray:
    """Integer coefficient vector (length 4n^2) interpolating rho_gamma.

    Uses the same interpolant rows, in [0, q), as the lattice
    constructions, so the result is the exact integer product
    rho_flat @ blockdiag(D).
    """
    D = dom.lagrange_matrix.astype(object)
    vals = np.asarray(rho_gamma, dtype=object)
    return np.concatenate([vals[:, c] @ D for c in range(4)])


def verify_key_membership(sk, pk, dom: EvalDomain, strict: bool = False) -> bool:
    """Check the defining identity (-U, F, -rho(gamma)) @ M == (G, F, -rho(gamma)).

    U is the exact integer quotient (F o H - G - gamma) / q; a non-integral
    quotient means the key material is inconsistent (returns False, or
    raises NonIntegralU in strict mode).
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


def build_expanded_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """The key-recovery lattice with interpolant rows scaled by 1, 2, ..., 2^l.

    [[qI, 0, 0], [HH, I, 0], [DD, 0, I]] as in bqtru.ideal.build_bqtru_lattice,
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
    scaled = np.concatenate([(1 << t) * dom.lagrange_matrix for t in range(ell + 1)])
    rows = np.zeros((dim, dim), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = _quat_block_matrix(H) % dom.q
    for b in range(4):
        rows[2 * four + b * per:2 * four + (b + 1) * per, b * nsq:(b + 1) * nsq] = scaled
    rows[four:, four:] = np.eye(dim - four, dtype=np.int64)
    return LatticeBasis(rows.astype(object), dim, "expanded")


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
# noise model
# ---------------------------------------------------------------------------

def empirical_noise_variance(params, samples: int, rng) -> float:
    """Sample variance of the mask coefficients under one honest key."""
    rng = rng if isinstance(rng, random.Random) else random.Random(rng)
    _, sk = keygen(params, rng)
    n, p = params.n, params.p
    acc = []
    for _ in range(samples):
        phi = Quaternion(*(sample_ternary(n, params.d_phi, rng) for _ in range(4)))
        M = random_message(params, rng)
        mask = quat_mul_schoolbook(sk.G, phi).scale(p) + quat_mul_schoolbook(sk.F, M)
        acc.append(mask.vector())
    flat = np.concatenate(acc).astype(np.float64)
    return float(flat.var())
