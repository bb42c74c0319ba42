"""Lattice toolbox: LLL reduction, an exact coset decoder for the q-ary
lattice of one generator, and volume heuristics.

Everything operates on row bases.  LLL keeps its Gram-Schmidt data in
64-bit floats while it reduces and returns the reduced integer rows
alone; the coset decoder works in exact integer arithmetic and needs no
basis at all.
"""

from __future__ import annotations

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


def coset_decode(gen, q: int, targets) -> np.ndarray:
    """Exact closest points of the lattice qZ^N + Z*gen to targets.

    Every lattice point is congruent mod q to c * gen for some c in Z_q,
    and the point of that class closest to a target a is
    a - centered(a - c * gen mod q); q is odd, so the centered residue is
    unique.  Scanning every c therefore yields the exact closest point with
    no node budget.  Ties between classes go to the least c.

    targets is one integer vector of length N or a stack of them, decoded
    one at a time, the q classes of each in one vectorised step.  The
    scan over several generators, which the paper's general secret set
    needs, is a reference path in tests/oracles.py.
    """
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("targets must be integer vectors")
    a = np.atleast_2d(t).astype(np.int64)
    half = (q - 1) // 2
    steps = np.arange(q, dtype=np.int64)[:, None] * (np.asarray(gen, dtype=np.int64) % q) % q
    out = np.empty_like(a)
    r = np.empty_like(steps)
    for i, target in enumerate(a):
        # residues shifted by half, in [0, q), so one masked add reduces them
        np.subtract((target + half) % q, steps, out=r)
        np.add(r, q, out=r, where=r < 0)
        # sum of (r - half)^2, less the constant N * half^2
        d = np.einsum("jk,jk->j", r, r) - 2 * half * r.sum(axis=1)
        out[i] = target - r[d.argmin()] + half
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
