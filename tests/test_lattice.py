import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtru.errors import RankDeficient
from bqtru.lattice import coset_decode, gaussian_heuristic, lll_reduce, poltyrev_sigma_max
from bqtru.ring import EvalDomain

from oracles import (
    NoPointInRadius,
    babai_nearest_plane,
    build_D_prime,
    coset_scan,
    determinant,
    exhaustive_cvp,
    gram_schmidt,
    grid_points,
    is_size_reduced,
    lagrange_rows,
    satisfies_lovasz,
    sphere_decode,
)


def rand_basis(rng, dim, lo=-5, hi=6):
    while True:
        rows = np.array([[rng.randrange(lo, hi) for _ in range(dim)] for _ in range(dim)])
        if abs(np.linalg.det(rows.astype(float))) > 0.5:
            return rows


class TestLLL:
    def test_identity_unchanged(self):
        reduced = lll_reduce(np.eye(5, dtype=np.int64))
        assert reduced.dtype == np.int64
        assert np.array_equal(reduced, np.eye(5, dtype=np.int64))

    def test_shear_reduces_to_shortest(self):
        # a long shear of Z^2: the reduced first row must be a shortest vector
        rows = np.array([[1, 0], [997, 1]])
        b1 = lll_reduce(rows)[0]
        best = min(
            float(np.sum((np.array([a, b]) @ rows) ** 2))
            for a in range(-4, 5)
            for b in range(-4, 5)
            if (a, b) != (0, 0)
        )
        assert float(b1 @ b1) == best

    def test_determinant_preserved(self):
        rng = random.Random(50)
        for _ in range(5):
            rows = rand_basis(rng, 10)
            d0 = round(np.linalg.det(rows.astype(float)))
            d1 = round(np.linalg.det(lll_reduce(rows).astype(float)))
            assert abs(d0) == abs(d1)

    def test_reduction_conditions(self):
        rng = random.Random(51)
        for _ in range(10):
            reduced = lll_reduce(rand_basis(rng, 8))
            assert is_size_reduced(reduced)
            assert satisfies_lovasz(reduced)

    def test_rank_deficient(self):
        rows = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        with pytest.raises(RankDeficient):
            lll_reduce(rows)


class TestBabai:
    def test_identity_rounding(self):
        assert np.array_equal(babai_nearest_plane(np.eye(2, dtype=np.int64), [0.4, -0.6]), [0, -1])

    def test_lattice_point_fixed(self):
        rng = random.Random(52)
        rows = rand_basis(rng, 4)
        v = np.array([2, -1, 3, 0]) @ rows
        assert np.array_equal(babai_nearest_plane(lll_reduce(rows), v.astype(float)), v)

    def test_distance_bound_and_oracle(self):
        rng = random.Random(53)
        for _ in range(20):
            reduced = lll_reduce(rand_basis(rng, 4))
            t = np.array([rng.uniform(-4, 4) for _ in range(4)])
            got = babai_nearest_plane(reduced, t)
            d = math.sqrt(float(np.sum((t - got) ** 2)))
            bound = 0.5 * sum(math.sqrt(s) for s in gram_schmidt(reduced)[2])
            assert d <= bound + 1e-9
            x = np.linalg.solve(reduced.T.astype(float), t)
            _, best_sq = exhaustive_cvp(reduced, t, np.round(x), 8)
            assert d * d >= best_sq - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            babai_nearest_plane(np.eye(3, dtype=np.int64), [1.0, 2.0])


class TestSphereDecode:
    def test_identity_rounding(self):
        got = sphere_decode(np.eye(3, dtype=np.int64), [0.4, -0.6, 2.2], radius=5.0)
        assert np.array_equal(got, [0, -1, 2])

    def test_matches_exhaustive(self):
        rng = random.Random(54)
        for trial in range(200):
            dim = rng.randrange(2, 7)
            reduced = lll_reduce(rand_basis(rng, dim, -3, 4))
            x_true = np.array([rng.uniform(-1.5, 1.5) for _ in range(dim)])
            t = x_true @ reduced + np.array([rng.uniform(-0.3, 0.3) for _ in range(dim)])
            got = sphere_decode(reduced, t)
            x = np.linalg.solve(reduced.T.astype(float), t)
            _, best_sq = exhaustive_cvp(reduced, t, np.round(x), 2)
            d = float(np.sum((t - got) ** 2))
            assert d <= best_sq + 1e-6
            assert d == pytest.approx(best_sq, abs=1e-6)

    def test_no_point_in_radius(self):
        with pytest.raises(NoPointInRadius):
            sphere_decode(5 * np.eye(2, dtype=np.int64), [2.5, 2.5], radius=1.0)

    @pytest.mark.parametrize("n,q", [(3, 7), (5, 11)])
    def test_planted_noise_recovery(self, n, q):
        # The decodable-variance ceiling vol^{2/N}/(2 pi e) is asymptotic in
        # N; at N = 9 or 25 the error rate at half that variance is still
        # 9-16%, so the guarantee is exercised at a twentieth of the ceiling
        # (measured: >= 99% there, ~84-91% at one half).
        dom = EvalDomain(n, q)
        rng = np.random.default_rng(55)
        basis = build_D_prime([0], dom)
        reduced = lll_reduce(basis.rows.astype(np.int64))
        nsq = n * n
        sigma_sq = 0.05 * poltyrev_sigma_max(abs(determinant(basis)), nsq)
        ok = 0
        trials = 500
        for _ in range(trials):
            coeffs = rng.integers(-2, 3, nsq)
            planted = coeffs @ reduced
            t = planted + rng.normal(0.0, math.sqrt(sigma_sq), nsq)
            got = sphere_decode(reduced, t)
            ok += np.array_equal(got, planted)
        assert ok / trials >= 0.99


class TestExhaustiveCvp:
    def test_matches_coefficient_loop(self):
        # the grid oracle against the loop over itertools.product it
        # replaced: same point (first in lexicographic order), same distance
        rng = random.Random(56)
        for _ in range(30):
            dim = rng.randrange(2, 5)
            rows = rand_basis(rng, dim, -3, 4)
            t = np.array([rng.uniform(-4, 4) for _ in range(dim)])
            center = np.array([rng.randrange(-2, 3) for _ in range(dim)])
            best, best_sq = None, math.inf
            for coeffs in itertools.product(*(range(c - 2, c + 3) for c in center)):
                v = np.array(coeffs) @ rows
                d = float(np.sum((t - v) ** 2))
                if d < best_sq:
                    best, best_sq = v, d
            got, got_sq = exhaustive_cvp(rows, t, center, 2)
            assert np.array_equal(got, best) and got_sq == best_sq


class TestHeuristics:
    def test_gaussian_dim2(self):
        assert gaussian_heuristic(2, 1) == pytest.approx(
            math.sqrt(2 / (2 * math.pi * math.e)), rel=1e-12
        )
        assert gaussian_heuristic(2, 1) == pytest.approx(0.3422, abs=2e-4)

    def test_gaussian_scaling(self):
        base = gaussian_heuristic(6, 1000)
        assert gaussian_heuristic(6, 3 ** 6 * 1000) == pytest.approx(3 * base, rel=1e-9)

    def test_poltyrev_unit_volume(self):
        assert poltyrev_sigma_max(1, 9) == pytest.approx(1 / (2 * math.pi * math.e))

    def test_poltyrev_dominates_noise_floor(self):
        # q^{(n^2-|T|)} volume at n=11 stays decodable well above variance 885
        n, q = 11, 199
        vol = q ** (n * n - n)
        assert poltyrev_sigma_max(vol, n * n) > 885

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_heuristic(0, 5)
        with pytest.raises(ValueError):
            poltyrev_sigma_max(0, 5)


# (n, q, T): the private lattice qZ^{n^2} + sum_{t in T} Z*lambda_t at the
# toy and moderate grid sizes, with one and two secret points; the oracle's
# scan decodes every case, and the library's one-generator scan the
# one-point cases
COSET_CASES = [(3, 7, (4,)), (3, 7, (1, 6)), (7, 113, (0,)), (7, 113, (3, 40))]


def coset_lattice(n, q, T):
    """Domain, Lagrange generator rows and LLL-reduced D' for one case."""
    dom = EvalDomain(n, q)
    points = grid_points(dom)
    reduced = lll_reduce(build_D_prime(T, dom).rows.astype(np.int64))
    return dom, lagrange_rows(dom, [points[t] for t in T]), reduced


def in_lattice(dom, T, v) -> bool:
    """Membership oracle: v is in D' iff its grid values vanish mod q off T."""
    vals = dom.transform(np.asarray(v)[None])[0]
    return all(vals[k] == 0 for k in range(dom.size) if k not in T)


def exhaustive_closest(gens, q, t):
    """Every closest point of qZ^N + span(gens) to t, by brute force.

    Walks all classes c in Z_q^k and, in each coordinate, the two lifts of
    (c @ gens)_i that bracket t_i; every other lift is farther from t_i,
    so the closest points are among these q^k * 2^N lattice points.
    """
    N = len(t)
    bits = np.array(list(itertools.product((0, 1), repeat=N)), dtype=np.int64)
    best_sq, best = math.inf, []
    for c in itertools.product(range(q), repeat=len(gens)):
        r = np.asarray(c, dtype=np.int64) @ gens % q
        points = r + q * ((t - r) // q) + q * bits
        d = np.sum((points - t) ** 2, axis=1)
        m = int(d.min())
        if m < best_sq:
            best_sq, best = m, []
        if m == best_sq:
            best += [tuple(v) for v in points[d == m]]
    return best_sq, set(best)


def near_target(reduced, rng, q, noise):
    dim = len(reduced)
    planted = rng.integers(-3, 4, dim) @ reduced + q * rng.integers(-2, 3, dim)
    return planted + rng.integers(-noise, noise + 1, dim)


def scan(gens, q, t):
    """The oracle's scan over every class of the generator rows gens; for
    one generator, the library's scan must return the very same points."""
    got = coset_scan(gens, q, t)
    if len(gens) == 1:
        assert np.array_equal(coset_decode(gens[0], q, t), got)
    return got


class TestCosetDecode:
    @pytest.mark.parametrize("n,q,T", COSET_CASES)
    def test_near_targets_match_sphere_decoder(self, n, q, T):
        dom, gens, reduced = coset_lattice(n, q, T)
        rng = np.random.default_rng(91)
        for _ in range(20):
            t = near_target(reduced, rng, q, 1 if n == 3 else 3)
            got = scan(gens, q, t)
            ref = sphere_decode(reduced, t.astype(np.float64))
            assert in_lattice(dom, T, got)
            assert np.sum((t - got) ** 2) == np.sum((t - ref) ** 2)

    @pytest.mark.parametrize("n,q,T,count,seed", [(3, 7, (4,), 30, 92),
                                                  (3, 7, (1, 6), 30, 92),
                                                  (7, 113, (0,), 1, 93)])
    def test_far_targets_match_sphere_decoder(self, n, q, T, count, seed):
        # uniform targets lie near the covering radius, where the uncapped
        # enumeration at n = 7 visits millions of nodes: for |T| = 1 it takes
        # from about a second to minutes, depending on the target, and for
        # |T| = 2 no target out of 12 finished within 4 s.  At n = 7 one
        # |T| = 1 target is checked, drawn from a seed whose enumeration
        # ends in about a second; |T| = 2 is covered by the exhaustive
        # search at n = 3 and by test_far_targets_ignore_generator_choice
        dom, gens, reduced = coset_lattice(n, q, T)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            t = rng.integers(0, q, n * n)
            got = scan(gens, q, t)
            ref = sphere_decode(reduced, t.astype(np.float64))
            assert in_lattice(dom, T, got)
            assert np.sum((t - got) ** 2) == np.sum((t - ref) ** 2)

    def test_far_targets_ignore_generator_choice(self):
        # U @ gens with U invertible mod q spans the same lattice, so the
        # closest distance must not change, though the scan order does
        dom, gens, _ = coset_lattice(7, 113, (3, 40))
        other = np.array([[5, 17], [2, 101]]) @ gens % 113
        rng = np.random.default_rng(95)
        for _ in range(10):
            t = rng.integers(0, 113, 49)
            got, alt = coset_scan(gens, 113, t), coset_scan(other, 113, t)
            assert in_lattice(dom, (3, 40), got) and in_lattice(dom, (3, 40), alt)
            assert np.sum((t - got) ** 2) == np.sum((t - alt) ** 2)

    @pytest.mark.parametrize("T,count", [((4,), 200), ((1, 6), 200), ((2, 4, 8), 40)])
    def test_toy_matches_exhaustive_search(self, T, count):
        dom, gens, reduced = coset_lattice(3, 7, T)
        rng = np.random.default_rng(93)
        ties = 0
        for i in range(count):
            t = rng.integers(0, 7, 9) if i % 2 else near_target(reduced, rng, 7, 1)
            best_sq, closest = exhaustive_closest(gens, 7, t)
            got = scan(gens, 7, t)
            # a tie may resolve to any of the closest points, never elsewhere
            assert tuple(got) in closest
            assert np.sum((t - got) ** 2) == best_sq
            ties += len(closest) > 1
        assert ties  # the tie branch is exercised

    def test_batch_matches_one_at_a_time(self):
        _, gens, _ = coset_lattice(7, 113, (40,))
        targets = np.random.default_rng(94).integers(-500, 500, (4, 49))
        got = coset_decode(gens[0], 113, targets)
        assert got.shape == (4, 49)
        for t, g in zip(targets, got):
            assert np.array_equal(coset_decode(gens[0], 113, t), g)

    def test_no_generators_is_centered_reduction(self):
        # qZ^N alone is one class, in the oracle with no generator and in
        # the library with a zero one
        t = np.arange(-20, 20)
        got = coset_scan(np.zeros((0, 40), dtype=np.int64), 7, t)
        assert np.array_equal(t - got, (t + 3) % 7 - 3)
        assert np.array_equal(coset_decode(np.zeros(40, dtype=np.int64), 7, t), got)

    def test_rejects_real_targets(self):
        with pytest.raises(ValueError):
            coset_decode(np.ones(4, dtype=np.int64), 7, [0.5, 0.0, 0.0, 0.0])

    def test_ties_go_to_the_least_class(self):
        # (0, 3) is as close to class 1, the point (1, 1), as to class 2,
        # the point (2, 2); the least class wins
        assert coset_decode(np.array([1, 1]), 7, np.array([0, 3])).tolist() == [1, 1]

    @settings(max_examples=300, deadline=None)
    @given(q=st.sampled_from([3, 5, 7, 11, 113]), data=st.data())
    def test_one_generator_matches_the_scan_oracle(self, q, data):
        # the same points as the oracle's scan of every class, ties
        # included: small q and short vectors make them frequent
        N = data.draw(st.integers(1, 8))
        gen = np.array(data.draw(st.lists(st.integers(-300, 300), min_size=N, max_size=N)))
        rows = data.draw(st.integers(1, 4))
        targets = np.array(data.draw(st.lists(
            st.lists(st.integers(-1000, 1000), min_size=N, max_size=N),
            min_size=rows, max_size=rows)))
        for t in (targets, targets[0]):
            assert np.array_equal(coset_decode(gen, q, t), coset_scan(gen[None], q, t))
