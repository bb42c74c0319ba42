"""Secret-ideal data and the lattices built from it.

The two-sided ideal is generated by q and a single combination sigma of
Lagrange interpolants supported on the secret point set T.  From sigma we
derive a canonical basis D' of the coefficient lattice (via Hermite normal
form), the block-diagonal private lattice, the public key-recovery lattice
and its power-of-two expansion, plus the membership identity that every
honestly generated key must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWeight, MalformedData, NonIntegralU
from .quat import Quaternion
from .ring import EvalDomain, RingElem, interpolate, mult_matrix


@dataclass(frozen=True)
class IdealSpec:
    """T (grid indices), nonzero weights mod q, and sigma = sum w_i * lambda_i."""

    T: tuple
    weights: tuple
    sigma: RingElem


@dataclass(frozen=True)
class LatticeBasis:
    rows: np.ndarray
    dim: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows))
        if self.rows.shape != (self.dim, self.dim):
            raise ValueError("basis must be square with dim rows")

    def determinant(self) -> int:
        """Exact determinant via integer HNF diagonal."""
        H = _row_hnf(self.rows)
        det = 1
        for i in range(self.dim):
            det *= int(H[i][i])
        return det

    def render(self) -> str:
        lines = [f"dim {self.dim} label {self.label}"]
        for row in self.rows:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LatticeBasis":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 4 or head[0] != "dim" or head[2] != "label":
            raise MalformedData("bad basis header")
        dim = int(head[1])
        if len(lines) != dim + 1:
            raise MalformedData("row count does not match header")
        rows = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=object)
        return cls(rows, dim, head[3])


def derive_T(rho_G: np.ndarray) -> list:
    """Grid indices where all four components of G vanish (may be empty),
    read from its evaluation array rho(G)."""
    return np.flatnonzero(~rho_G.any(axis=1)).tolist()


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


def make_ideal(T, weights, dom: EvalDomain) -> IdealSpec:
    return IdealSpec(tuple(int(k) for k in T), tuple(int(w) for w in weights),
                     build_sigma(T, weights, dom))


# ---------------------------------------------------------------------------
# integer Hermite normal form and membership testing
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


# ---------------------------------------------------------------------------
# lattice constructions
# ---------------------------------------------------------------------------

def build_D_prime(spec: IdealSpec, dom: EvalDomain) -> LatticeBasis:
    """HNF basis of the coefficient lattice of <q, sigma>.

    Stacks q*I with the Lagrange rows for T (already in [0, q)); sigma
    itself is w_i times those rows modulo q, so the span is the full ideal
    lattice.
    """
    nsq = dom.size
    lam = dom.lagrange_matrix()
    stack = np.zeros((nsq + len(spec.T), nsq), dtype=np.int64)
    stack[:nsq] = dom.q * np.eye(nsq, dtype=np.int64)
    for r, k in enumerate(spec.T):
        stack[nsq + r] = lam[int(k)]
    H = _row_hnf(stack)
    return LatticeBasis(np.array(H, dtype=object), nsq, "D_prime")


def build_private_lattice(D_prime: LatticeBasis) -> LatticeBasis:
    """Block diagonal with four copies of D'; one block per quaternion slot."""
    nsq = D_prime.dim
    rows = np.zeros((4 * nsq, 4 * nsq), dtype=object)
    for b in range(4):
        rows[b * nsq:(b + 1) * nsq, b * nsq:(b + 1) * nsq] = D_prime.rows
    return LatticeBasis(rows, 4 * nsq, "private")


def _quat_block_matrix(H: Quaternion) -> np.ndarray:
    """4x4 block matrix M with vector(F) @ M == vector(F o H) for every F."""
    H0, H1, H2, H3 = (mult_matrix(c) for c in H.components)
    return np.block([
        [H0, H1, H2, H3],
        [H1, H0, H3, H2],
        [H2, -H3, H0, -H1],
        [-H3, H2, -H1, H0],
    ])


def build_bqtru_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """Key-recovery lattice [[qI, 0, 0], [HH, I, 0], [DD, 0, I]] of dimension 12 n^2."""
    nsq = dom.size
    four = 4 * nsq
    HH = _quat_block_matrix(H) % dom.q
    D = dom.lagrange_matrix()
    rows = np.zeros((12 * nsq, 12 * nsq), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = HH
    rows[four:2 * four, four:2 * four] = np.eye(four, dtype=np.int64)
    for b in range(4):
        rows[2 * four + b * nsq:2 * four + (b + 1) * nsq, b * nsq:(b + 1) * nsq] = D
    rows[2 * four:, 2 * four:] = np.eye(four, dtype=np.int64)
    return LatticeBasis(rows.astype(object), 12 * nsq, "bqtru")


def build_expanded_lattice(H: Quaternion, dom: EvalDomain) -> LatticeBasis:
    """Expansion with interpolant rows scaled by powers of two 1, 2, ..., 2^l.

    Dimension (4l + 12) n^2 with l = floor(log2 q); the scaled copies let a
    reducer reach interpolant combinations with coefficients up to q using
    only small integer multiples.
    """
    nsq = dom.size
    four = 4 * nsq
    ell = int(math.floor(math.log2(dom.q)))
    coeffs = [1 << t for t in range(ell + 1)]
    HH = _quat_block_matrix(H) % dom.q
    D = dom.lagrange_matrix()
    scaled = np.concatenate([c * D for c in coeffs], axis=0)  # ((l+1)n^2, n^2)
    tail = 4 * len(coeffs) * nsq
    dim = 2 * four + tail
    rows = np.zeros((dim, dim), dtype=np.int64)
    rows[:four, :four] = dom.q * np.eye(four, dtype=np.int64)
    rows[four:2 * four, :four] = HH
    rows[four:2 * four, four:2 * four] = np.eye(four, dtype=np.int64)
    per = len(coeffs) * nsq
    for b in range(4):
        rows[2 * four + b * per:2 * four + (b + 1) * per, b * nsq:(b + 1) * nsq] = scaled
    rows[2 * four:, 2 * four:] = np.eye(tail, dtype=np.int64)
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


def hybrid_norm(g_part, f_part, rho_part) -> float:
    """Euclidean length of the (g, f) halves plus Hamming weight of the rho half."""
    g = np.asarray(g_part, dtype=np.float64)
    f = np.asarray(f_part, dtype=np.float64)
    ham = int(np.count_nonzero(np.asarray(rho_part)))
    return math.sqrt(float(np.dot(g, g) + np.dot(f, f))) + ham


# ---------------------------------------------------------------------------
# key membership (the short-vector identity behind key recovery)
# ---------------------------------------------------------------------------

def rho_flat(rho_vals: np.ndarray) -> np.ndarray:
    """Flatten an (n^2, 4) evaluation array component-major to length 4n^2."""
    return np.asarray(rho_vals).T.reshape(-1)


def gamma_vector(rho_gamma: np.ndarray, dom: EvalDomain) -> np.ndarray:
    """Integer coefficient vector (length 4n^2) interpolating rho_gamma.

    Uses the same interpolant rows, in [0, q), as the lattice
    constructions, so the result is the exact integer product
    rho_flat @ blockdiag(D).
    """
    D = dom.lagrange_matrix().astype(object)
    vals = np.asarray(rho_gamma, dtype=object)
    return np.concatenate([vals[:, c] @ D for c in range(4)])


def verify_key_membership(sk, pk, dom: EvalDomain, strict: bool = False) -> bool:
    """Check the defining identity (-U, F, -rho(gamma)) @ M == (G, F, -rho(gamma)).

    U is the exact integer quotient (F o H - G - gamma) / q; a non-integral
    quotient means the key material is inconsistent (returns False, or
    raises NonIntegralU in strict mode, where it flags an upstream bug).
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
