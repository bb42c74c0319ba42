"""Lattice toolbox: LLL reduction, an exact coset decoder for q-ary
lattices, and volume heuristics.

Everything operates on row bases.  LLL keeps its Gram-Schmidt data in
64-bit floats while it reduces and returns the reduced integer rows
alone; the coset decoder works in exact integer arithmetic and needs no
basis at all.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import RankDeficient, ReductionBudgetExceeded


# the Lovasz parameter lll_reduce reduces with
LLL_DELTA = 0.99


def _gso_rows(rows: np.ndarray, mu, bstar, norms, start: int):
    """Recompute Gram-Schmidt data for rows start..k-1 (earlier rows valid)."""
    k = rows.shape[0]
    for i in range(start, k):
        b = rows[i].astype(np.float64)
        v = b.copy()
        if i:
            mu[i, :i] = b @ bstar[:i].T / norms[:i]
            v -= mu[i, :i] @ bstar[:i]
        mu[i, i:] = 0.0
        bstar[i] = v
        norms[i] = v @ v
        if norms[i] <= 1e-12:
            raise RankDeficient(f"row {i} is dependent on earlier rows")


def lll_reduce(basis, max_swaps: int | None = None) -> np.ndarray:
    """The int64 rows of an integer matrix, LLL-reduced at Lovasz parameter
    LLL_DELTA with floating-point Gram-Schmidt; the input is copied.

    max_swaps caps the number of Lovasz swaps before giving up.
    """
    rows = np.array(basis, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] > rows.shape[1]:
        raise RankDeficient("need at most as many rows as columns")
    k, m = rows.shape
    mu, bstar, norms = np.zeros((k, k)), np.zeros((k, m)), np.zeros(k)
    _gso_rows(rows, mu, bstar, norms, 0)
    swaps = 0
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            r = round(mu[i, j])
            if r:
                rows[i] -= r * rows[j]
                mu[i, :j] -= r * mu[j, :j]
                mu[i, j] -= r
        if norms[i] >= (LLL_DELTA - mu[i, i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            swaps += 1
            if max_swaps is not None and swaps > max_swaps:
                raise ReductionBudgetExceeded(f"more than {max_swaps} swaps needed")
            rows[[i - 1, i]] = rows[[i, i - 1]]
            _gso_rows(rows, mu, bstar, norms, i - 1)
            i = max(i - 1, 1)
    return rows


def coset_decode(gens, q: int, targets) -> np.ndarray:
    """Exact closest points of the lattice qZ^N + sum_t Z*gens[t] to targets.

    Every lattice point is congruent mod q to c @ gens for some c in
    Z_q^k, and the point of that class closest to a target a is
    a - centered(a - c @ gens mod q); q is odd, so the centered residue is
    unique.  Scanning every c therefore yields the exact closest point with
    no node budget.  Ties between classes go to the first c in
    lexicographic order.

    targets is one integer vector of length N or a stack of them, decoded
    one at a time.  The q multiples of the last generator are scanned in
    one vectorised step and the other generators in a loop, so q*N
    candidates are held at once while the work grows as q^k.
    """
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("targets must be integer vectors")
    a = np.atleast_2d(t).astype(np.int64)
    N = a.shape[1]
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, N) % q
    half = (q - 1) // 2
    if len(gens):
        head = gens[:-1]
        steps = np.arange(q, dtype=np.int64)[:, None] * gens[-1] % q
    else:  # qZ^N alone is a single class
        head, steps = gens, np.zeros((1, N), dtype=np.int64)
    out = np.empty_like(a)
    r = np.empty_like(steps)
    for i, target in enumerate(a):
        best_d = best_r = None
        for c in itertools.product(range(q), repeat=len(head)):
            # residues shifted by half, in [0, q), so one masked add reduces them
            base = (target + half - np.asarray(c, dtype=np.int64) @ head) % q
            np.subtract(base, steps, out=r)
            np.add(r, q, out=r, where=r < 0)
            # sum of (r - half)^2, less the constant N * half^2
            d = np.einsum("jk,jk->j", r, r) - 2 * half * r.sum(axis=1)
            j = d.argmin()
            if best_d is None or d[j] < best_d:
                best_d, best_r = d[j], r[j] - half
        out[i] = target - best_r
    return out[0] if t.ndim == 1 else out


def gaussian_heuristic(dim: int, det_abs: int) -> float:
    """Expected first-minimum length sqrt(dim / (2 pi e)) * det^(1/dim)."""
    if dim < 1 or det_abs <= 0:
        raise ValueError("need dim >= 1 and a positive determinant")
    return math.sqrt(dim / (2 * math.pi * math.e)) * math.exp(math.log(det_abs) / dim)


def poltyrev_sigma_max(vol: int, N: int) -> float:
    """Largest per-coordinate noise variance decodable on a volume-vol lattice."""
    if vol <= 0 or N < 1:
        raise ValueError("need a positive volume and dimension")
    return math.exp(2 * math.log(vol) / N) / (2 * math.pi * math.e)
