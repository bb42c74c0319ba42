"""Reference paths that the property tests check the library against.

The paper decrypts by a closest-vector search in the secret lattice
D' = qZ^{n^2} + sum_{t in T} Z*lambda_t: an HNF basis of D', Babai's
nearest plane and Schnorr-Euchner sphere decoding.  bqtru decrypts by an
exact coset scan instead (bqtru.lattice.coset_decode) and never builds
D', so these constructions, together with sigma (the weighted sum of
Lagrange interpolants on T) and a brute-force closest-vector search,
live here as oracles.
"""

from __future__ import annotations

import math

import numpy as np

from bqtru.errors import BqtruError
from bqtru.ideal import LatticeBasis
from bqtru.lattice import ReducedBasis
from bqtru.ring import EvalDomain, RingElem, interpolate


class InvalidWeight(BqtruError):
    """Ideal weight must be nonzero mod q."""


class NoPointInRadius(BqtruError):
    """Sphere decoder found no lattice point within the given radius."""


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
    stack[nsq:] = dom.lagrange_matrix()[list(T)]
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
    for i in range(rb.dim - 1, -1, -1):
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
    k = rb.dim
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
