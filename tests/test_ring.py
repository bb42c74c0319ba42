import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtru.errors import ContextMismatch, NotInvertible
from bqtru.ntru import solve_mod_prime
from bqtru.params import Params, _is_prime
from bqtru.ring import (
    CONV_COUNTER,
    EvalDomain,
    RingElem,
    centered,
    conv_mul,
    eval_domain,
    frobenius,
    mult_matrix,
    product_domain,
    ring_inverse,
)

from oracles import (
    NotAGridPoint,
    absorb_check,
    interpolate,
    is_zero,
    lagrange_interpolant,
    monomial,
    ring_eval,
    ring_zero,
)


def naive_conv(f: RingElem, g: RingElem) -> RingElem:
    """O(n^4) double-loop convolution oracle."""
    n = f.n
    out = np.zeros(n * n, dtype=np.int64)
    for a in range(n):
        for b in range(n):
            acc = 0
            for c in range(n):
                for d in range(n):
                    acc += f.coeffs[c * n + d] * g.coeffs[((a - c) % n) * n + (b - d) % n]
            out[a * n + b] = acc
    return RingElem(out, n, f.modulus)


def rand_elem(rng, n, modulus):
    hi = modulus if modulus is not None else 10
    return RingElem(np.array([rng.randrange(hi) for _ in range(n * n)]), n, modulus)


@pytest.fixture(scope="module")
def dom3():
    return EvalDomain(3, 7)


@pytest.fixture(scope="module")
def dom5():
    return EvalDomain(5, 11)


class TestConvMul:
    def test_identity(self):
        rng = random.Random(1)
        f = rand_elem(rng, 3, 7)
        assert conv_mul(f, RingElem.one(3, 7)) == f

    def test_xn_relation(self):
        x2 = monomial(3, 2, 0, modulus=7)
        x = monomial(3, 1, 0, modulus=7)
        assert conv_mul(x2, x) == RingElem.one(3, 7)

    def test_matches_naive_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            f, g = rand_elem(rng, 3, 7), rand_elem(rng, 3, 7)
            assert conv_mul(f, g) == naive_conv(f, g)

    def test_modulus_mismatch(self):
        with pytest.raises(ContextMismatch):
            conv_mul(RingElem.one(3, 7), RingElem.one(3, 5))

    @pytest.mark.parametrize("n,q", [(3, 7), (5, 11)])
    def test_commutative_associative_distributive(self, n, q):
        rng = random.Random(n)
        for _ in range(67):
            f, g, h = (rand_elem(rng, n, q) for _ in range(3))
            assert conv_mul(f, g) == conv_mul(g, f)
            assert conv_mul(conv_mul(f, g), h) == conv_mul(f, conv_mul(g, h))
            assert conv_mul(f, g + h) == conv_mul(f, g) + conv_mul(f, h)

    def test_mult_matrix_row_identity(self):
        rng = random.Random(3)
        f, h = rand_elem(rng, 3, 7), rand_elem(rng, 3, 7)
        assert np.array_equal(f.coeffs @ mult_matrix(h) % 7, conv_mul(f, h).coeffs)


class TestEval:
    def test_constant(self):
        assert ring_eval(RingElem.one(3, 7), 2, 4) == 1

    def test_coordinate(self):
        x = monomial(3, 1, 0, modulus=7)
        assert ring_eval(x, 2, 4) == 2

    def test_direct_summation(self):
        # 4*(1+x+x^2)(1+y+y^2): all nine coefficients are 4; value at (1,1)
        # is 36 mod 7 = 1, matching a direct summation oracle.
        f = RingElem(np.full(9, 4), 3, 7)
        total = sum(int(c) for c in f.coeffs) % 7
        assert ring_eval(f, 1, 1) == total == 1

    def test_homomorphism(self):
        rng = random.Random(4)
        dom = EvalDomain(3, 7)
        for _ in range(30):
            f, g = rand_elem(rng, 3, 7), rand_elem(rng, 3, 7)
            for (a, b) in dom.points[:3]:
                assert ring_eval(conv_mul(f, g), a, b) == ring_eval(f, a, b) * ring_eval(g, a, b) % 7
                assert ring_eval(f + g, a, b) == (ring_eval(f, a, b) + ring_eval(g, a, b)) % 7


class TestLagrange:
    def test_delta_property(self, dom3, dom5):
        for dom in (dom3, dom5):
            for (a, b) in dom.points:
                lam = lagrange_interpolant(dom, a, b)
                for (a2, b2) in dom.points:
                    expect = 1 if (a2, b2) == (a, b) else 0
                    assert ring_eval(lam, a2, b2) == expect

    def test_sum_is_one(self, dom3):
        total = ring_zero(3, 7)
        for (a, b) in dom3.points:
            total = total + lagrange_interpolant(dom3, a, b)
        assert total == RingElem.one(3, 7)

    def test_closed_form_n3(self, dom3):
        lam = lagrange_interpolant(dom3, 1, 1)
        assert np.array_equal(lam.coeffs, np.full(9, 4))

    def test_not_a_grid_point(self, dom3):
        with pytest.raises(NotAGridPoint):
            lagrange_interpolant(dom3, 3, 1)

    def test_absorption(self, dom3, dom5):
        rng = random.Random(5)
        for dom in (dom3, dom5):
            alpha = rand_elem(rng, dom.n, dom.q)
            for (a, b) in dom.points:
                assert absorb_check(alpha, dom, a, b)

    def test_absorption_special_cases(self, dom3):
        (a, b) = dom3.points[4]
        lam = lagrange_interpolant(dom3, a, b)
        assert absorb_check(RingElem.one(3, 7), dom3, a, b)
        # idempotency: lam * lam = lam
        assert absorb_check(lam, dom3, a, b)
        assert conv_mul(lam, lam) == lam
        (a2, b2) = dom3.points[7]
        other = lagrange_interpolant(dom3, a2, b2)
        assert absorb_check(other, dom3, a, b)
        assert is_zero(conv_mul(other, lam))


class TestGridTables:
    """The forward transform and the Lagrange table against the per-point pow definition."""

    # the shipped sets' grids, their product domains mod p (151, 827,
    # 2003) and the wide-q test set
    @pytest.mark.parametrize("n,q", [(3, 7), (5, 11), (7, 113), (7, 547), (11, 199),
                                     (3, 151), (7, 827), (11, 2003)])
    def test_match_per_point_powers(self, n, q):
        dom = EvalDomain(n, q)
        ninv2 = pow(n * n, q - 2, q)
        E = np.empty((n * n, n * n), dtype=np.int64)
        L = np.empty((n * n, n * n), dtype=np.int64)
        for k, (a, b) in enumerate(dom.points):
            ainv, binv = pow(a, q - 2, q), pow(b, q - 2, q)
            for i in range(n):
                for j in range(n):
                    E[k, i * n + j] = pow(a, i, q) * pow(b, j, q) % q
                    L[k, i * n + j] = pow(ainv, i, q) * pow(binv, j, q) * ninv2 % q
        # row r of the transform of the identity is the grid values of monomial r
        forward = dom.transform(np.eye(n * n, dtype=np.int64))
        assert forward.dtype == np.int64
        assert dom.lagrange_matrix.dtype == np.int64
        assert np.array_equal(forward, E.T)
        assert np.array_equal(dom.lagrange_matrix, L)


class TestInterpolate:
    def test_zero_and_one(self, dom3):
        assert is_zero(interpolate(dom3, np.zeros(9)))
        assert interpolate(dom3, np.ones(9)) == RingElem.one(3, 7)

    def test_round_trip(self, dom3):
        rng = random.Random(6)
        for _ in range(100):
            f = rand_elem(rng, 3, 7)
            assert interpolate(dom3, dom3.eval_all(f)) == f

    def test_eval_of_interpolation(self, dom5):
        rng = random.Random(7)
        values = np.array([rng.randrange(11) for _ in range(25)])
        f = interpolate(dom5, values)
        assert np.array_equal(dom5.eval_all(f), values)

    @settings(max_examples=40, deadline=None)
    @given(nq=st.sampled_from([(3, 7), (5, 11), (7, 113), (11, 199), (7, 547)]),
           rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
    def test_transform_round_trips(self, nq, rows, seed):
        n, q = nq
        dom = eval_domain(n, q)
        rng = np.random.default_rng(seed)
        X = rng.integers(-q, 2 * q, size=(rows, n * n))
        Y = dom.transform(X)
        assert Y.shape == X.shape and Y.min() >= 0 and Y.max() < q
        assert np.array_equal(dom.inverse_transform(Y), X % q)
        assert np.array_equal(dom.transform(dom.inverse_transform(X)), X % q)
        # row by row it is the Lagrange interpolation of the old table
        assert np.array_equal(dom.inverse_transform(X), (X % q) @ dom.lagrange_matrix % q)

    def test_one_shared_domain_per_n_q(self):
        assert eval_domain(7, 113) is eval_domain(7, 113)
        assert eval_domain(7, 113) is not eval_domain(7, 547)
        with pytest.raises(ValueError):
            eval_domain(7, 113).lagrange_matrix[0, 0] = 1


class TestRingInverse:
    def test_one(self):
        assert ring_inverse(RingElem.one(3, 7)) == RingElem.one(3, 7)

    def test_x(self):
        x = monomial(3, 1, 0, modulus=7)
        assert ring_inverse(x) == monomial(3, 2, 0, modulus=7)

    def _exhaustive_inverses(self, f, m):
        """All u with f*u = 1, by brute force over every candidate vector."""
        M = mult_matrix(f) % m
        cands = np.array(list(itertools.product(range(m), repeat=9)), dtype=np.int64)
        prods = cands @ M % m
        e0 = np.zeros(9, dtype=np.int64)
        e0[0] = 1
        return cands[(prods == e0).all(axis=1)]

    def test_invertibility_matches_exhaustive_oracle(self):
        # 1+x is a unit mod 3 (its value at (1,1) is 2 != 0); the solver and
        # the 3^9-candidate brute force must agree.
        f = RingElem(np.array([1, 0, 0, 1, 0, 0, 0, 0, 0]), 3, 3)
        hits = self._exhaustive_inverses(f, 3)
        assert len(hits) == 1
        assert np.array_equal(ring_inverse(f).coeffs, hits[0])

    def test_not_invertible_vs_exhaustive(self):
        # 1+x+x^2 vanishes at x=1, so it cannot be a unit mod 3.
        f = RingElem(np.array([1, 0, 0, 1, 0, 0, 1, 0, 0]), 3, 3)
        with pytest.raises(NotInvertible):
            ring_inverse(f)
        assert len(self._exhaustive_inverses(f, 3)) == 0

    @pytest.mark.parametrize("m", [3, 7])
    def test_correct_when_defined(self, m):
        rng = random.Random(8)
        found = 0
        while found < 20:
            f = rand_elem(rng, 3, m)
            try:
                u = ring_inverse(f)
            except NotInvertible:
                continue
            assert conv_mul(f, u) == RingElem.one(3, m)
            found += 1


class TestRingInverseOracle:
    """ring_inverse (unit-group powering) against the linear-solve oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 3), (3, 7), (5, 5), (7, 3), (9, 3), (11, 3), (7, 113)]),
           st.integers(0, 2**32), st.booleans())
    def test_matches_solve_mod_prime(self, nm, seed, force_nonunit):
        n, m = nm
        rng = random.Random(seed)
        coeffs = [rng.randrange(m) for _ in range(n * n)]
        if force_nonunit:
            # value 0 at (1, 1): the coefficients sum to 0 mod m
            coeffs[0] = (coeffs[0] - sum(coeffs)) % m
        f = RingElem(np.array(coeffs), n, m)
        e0 = np.zeros(n * n, dtype=np.int64)
        e0[0] = 1
        try:
            expect = solve_mod_prime(mult_matrix(f).T, e0, m)
        except NotInvertible:
            expect = None
        if expect is None:
            with pytest.raises(NotInvertible):
                ring_inverse(f)
        else:
            assert np.array_equal(ring_inverse(f).coeffs, expect)
        assert not (force_nonunit and expect is not None)

    @pytest.mark.parametrize("n, m, most", [(11, 3, 6), (7, 3, 7)])
    def test_convolution_count(self, n, m, most):
        # the p-th powers are Frobenius maps; only the digit products of
        # e-1 (22221 and 222221 in base 3) and the check are convolutions
        rng = random.Random(n)
        while True:
            f = rand_elem(rng, n, m)
            CONV_COUNTER.reset()
            try:
                ring_inverse(f)
            except NotInvertible:
                continue
            assert CONV_COUNTER.count <= most
            return


class TestFrobenius:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 3), (5, 3), (9, 3), (3, 5), (5, 5), (7, 3), (3, 7)]),
           st.integers(0, 2**32))
    def test_is_the_mth_power(self, nm, seed):
        # m | n (3, 9 and 5 at m = 3, 3 and 5) folds coefficients together
        n, m = nm
        f = rand_elem(random.Random(seed), n, m)
        power = RingElem.one(n, m)
        for _ in range(m):
            power = conv_mul(power, f)
        CONV_COUNTER.reset()
        assert frobenius(f) == power
        assert CONV_COUNTER.count == 0


class TestProductDomain:
    @pytest.mark.parametrize("n, m, P", [(11, 199, 199), (7, 113, 113), (11, 3, 2003),
                                         (7, 3, 827), (3, 3, 151)])
    def test_own_or_auxiliary_prime(self, n, m, P):
        # m itself when n | m-1, else the least prime P = 1 (mod n) above
        # 4 n^2 (m-1)^2
        dom = product_domain(n, m)
        assert dom is eval_domain(n, P)
        if P != m:
            assert P > 4 * n * n * (m - 1) ** 2 and (P - 1) % n == 0
            assert not any(_is_prime(c) for c in range(4 * n * n * (m - 1) ** 2 + 1, P)
                           if (c - 1) % n == 0)

    def test_too_large_for_int64(self):
        # 11 does not divide 1998, and P > 4 * 121 * 1998^2 gives 11 (P-1)^2 > 2^63
        with pytest.raises(ValueError):
            product_domain(11, 1999)


def unit_lu(rng, k, m):
    """L @ U mod m with unit-diagonal triangular factors: det 1, so invertible."""
    L = np.tril([[rng.randrange(m) for _ in range(k)] for _ in range(k)], -1)
    U = np.triu([[rng.randrange(m) for _ in range(k)] for _ in range(k)], 1)
    eye = np.eye(k, dtype=np.int64)
    return (L + eye) @ (U + eye) % m


class TestSolveModPrime:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 7, 199, 659]), st.integers(1, 24), st.integers(0, 2**32))
    def test_invertible_systems(self, m, k, seed):
        rng = random.Random(seed)
        A = unit_lu(rng, k, m)
        # shuffle the rows so the pivots are not all on the diagonal
        A = A[rng.sample(range(k), k)]
        b = np.array([rng.randrange(m) for _ in range(k)], dtype=np.int64)
        x = solve_mod_prime(A, b, m)
        assert x.dtype == np.int64 and ((0 <= x) & (x < m)).all()
        assert np.array_equal(A @ x % m, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 7, 199, 659]), st.integers(2, 24), st.integers(0, 2**32))
    def test_repeated_row_is_singular(self, m, k, seed):
        rng = random.Random(seed)
        A = unit_lu(rng, k, m)
        i, j = rng.sample(range(k), 2)
        A[j] = A[i]
        b = np.array([rng.randrange(m) for _ in range(k)], dtype=np.int64)
        with pytest.raises(NotInvertible):
            solve_mod_prime(A, b, m)


class TestInt64Bound:
    def test_overflowing_q_rejected(self):
        # 4294967311 is prime and 3 divides q-1, but 9 (q-1)^2 > 2^63
        with pytest.raises(ValueError, match="int64"):
            Params(3, 3, 4294967311, 1, 1, 1)
        # (q-1)^2 > 2^63 as well, so the solver refuses it too
        with pytest.raises(ValueError, match="int64"):
            solve_mod_prime(np.eye(2, dtype=np.int64), np.ones(2), 4294967311)
        # the powering inverse would wrap inside conv_mul
        with pytest.raises(ValueError, match="int64"):
            ring_inverse(RingElem.one(3, 4294967311))

    def test_round_trip_near_the_bound(self):
        # (q-1)^3 overflows int64 here, n^2 (q-1)^2 does not
        q = 10000141
        Params(3, 3, q, 1, 1, 1)
        dom = EvalDomain(3, q)
        rng = random.Random(9)
        for _ in range(20):
            values = np.array([rng.randrange(q) for _ in range(9)], dtype=np.int64)
            assert np.array_equal(dom.eval_all(interpolate(dom, values)), values)


class TestLiftCentered:
    @pytest.mark.parametrize("m", [2, 3, 7, 113, 128, 199])
    def test_centered_matches_offset_formula(self, m):
        # (a + (m-1)//2) % m - (m-1)//2: [-63, 64] at the NTRU q = 128
        a = np.arange(-3 * m, 3 * m)
        assert np.array_equal(centered(a, m), (a + (m - 1) // 2) % m - (m - 1) // 2)

    def test_basic(self):
        f = RingElem(np.array([0, 5, 1, 0, 0, 0, 0, 0, 0]), 3, 7)
        lifted = f.lift_centered()
        assert lifted.modulus is None
        assert lifted.coeffs[0] == 0
        assert lifted.coeffs[1] == -2
        assert lifted.coeffs[2] == 1

    def test_boundary_113(self):
        f = RingElem(np.array([56, 57] + [0] * 47), 7, 113)
        lifted = f.lift_centered()
        assert lifted.coeffs[0] == 56
        assert lifted.coeffs[1] == -56
