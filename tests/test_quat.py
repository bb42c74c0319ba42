import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtru.errors import ContextMismatch, EvenModulus, NormVanishesOutsideT, NotInvertible
from bqtru.params import PARAM_SETS
from bqtru.quat import (
    Quaternion,
    matrix_to_quat,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_mul_strassen,
    quat_norm,
    quat_to_matrix,
    rho_apply,
    rho_inverse,
    rho_left_tensor,
    rho_mul,
    rho_norms,
)
from bqtru.ring import (
    CONV_COUNTER,
    EvalDomain,
    centered,
    conv_mul,
    eval_domain,
    product_domain,
    ring_inverse,
)

from oracles import (
    conjugate,
    from_scalar,
    grid_points,
    is_zero,
    lagrange_interpolant,
    monomial,
    quat_add,
    quat_inverse_mod_J,
    quat_neg,
    quat_one,
    quat_sub,
    quat_unit,
    rho_mul_rows,
    ring_eval,
    scalar_inverse,
    scalar_mul,
    scalar_norm,
)

# (n, q) with n | q-1: the shipped sets plus the wide-q test set
GRIDS = [(3, 7), (5, 11), (7, 113), (11, 199), (7, 547)]


def rand_quat(rng, n, modulus):
    return Quaternion([[rng.randrange(modulus) for _ in range(n * n)] for _ in range(4)],
                      modulus)


def rand_rho(rng, n, q):
    """Random (4, n^2) evaluation array with some zero-norm columns, (a, a, b, b) among them."""
    vals = np.array([[rng.randrange(q) for _ in range(n * n)] for _ in range(4)],
                    dtype=np.int64)
    for k in rng.sample(range(n * n), n):
        a, b = rng.randrange(q), rng.randrange(q)
        vals[:, k] = (a, a, b, b)
    return vals


def mat_mul_2x2(A, B, m):
    """Schoolbook 2x2 ring-matrix product mod m (oracle for the isomorphism)."""
    return np.array([
        [
            conv_mul(A[0][0], B[0][0], m) + conv_mul(A[0][1], B[1][0], m),
            conv_mul(A[0][0], B[0][1], m) + conv_mul(A[0][1], B[1][1], m),
        ],
        [
            conv_mul(A[1][0], B[0][0], m) + conv_mul(A[1][1], B[1][0], m),
            conv_mul(A[1][0], B[0][1], m) + conv_mul(A[1][1], B[1][1], m),
        ],
    ]) % m


ONE = monomial(3, 0, 0)


@pytest.fixture(scope="module")
def dom3():
    return EvalDomain(3, 7)


class TestQuaternion:
    @pytest.mark.parametrize("shape", [(4,), (3, 9), (5, 9), (4, 8), (4, 9, 1), (1, 4, 9)])
    def test_rejects_an_array_not_4_by_a_square(self, shape):
        with pytest.raises(ContextMismatch):
            Quaternion(np.zeros(shape, dtype=np.int64), 7)

    @pytest.mark.parametrize("modulus", [7, None])
    def test_rows_are_a_reduced_copy(self, modulus):
        rows = np.arange(-18, 18, dtype=np.int64).reshape(4, 9)
        F = Quaternion(rows, modulus)
        assert F.n == 3 and F.rows.dtype == np.int64
        assert np.array_equal(F.rows, rows if modulus is None else rows % modulus)
        rows[0, 0] = 5
        assert F.rows[0, 0] == (-18 if modulus is None else -18 % 7)


class TestSchoolbook:
    def test_i_times_j_is_k(self):
        i = quat_unit("i", 3, 7)
        j = quat_unit("j", 3, 7)
        k = quat_unit("k", 3, 7)
        assert quat_mul_schoolbook(i, j) == k
        assert quat_mul_schoolbook(j, i) == quat_neg(k)

    def test_one_is_identity(self):
        rng = random.Random(10)
        F = rand_quat(rng, 3, 7)
        assert quat_mul_schoolbook(F, quat_one(3, 7)) == F

    def test_split_zero_divisor(self):
        one = quat_one(3, 7)
        i = quat_unit("i", 3, 7)
        assert is_zero(quat_mul_schoolbook(quat_add(one, i), quat_sub(one, i)))

    def test_mult_count_is_16(self):
        rng = random.Random(11)
        F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
        before = CONV_COUNTER.count
        quat_mul_schoolbook(F, G)
        assert CONV_COUNTER.count - before == 16

    def test_operands_share_a_modulus(self):
        # the product's modulus is its operands', so they must agree
        for product in (quat_mul_schoolbook, quat_mul_strassen):
            with pytest.raises(ContextMismatch):
                product(quat_one(3, 7), quat_one(3, 13))


class TestMatrixImage:
    def test_one_maps_to_identity(self):
        M = quat_to_matrix(quat_one(3, 7))
        assert np.array_equal(M[0][0], ONE) and np.array_equal(M[1][1], ONE)
        assert is_zero(M[0][1]) and is_zero(M[1][0])

    def test_i_maps_to_diag(self):
        M = quat_to_matrix(quat_unit("i", 3, 7))
        assert np.array_equal(M[0][0], ONE)
        assert np.array_equal(M[1][1], -ONE)
        assert is_zero(M[0][1]) and is_zero(M[1][0])

    def test_k_image_matches_ij_product(self):
        i = quat_unit("i", 3, 7)
        j = quat_unit("j", 3, 7)
        k = quat_unit("k", 3, 7)
        prod = mat_mul_2x2(quat_to_matrix(i), quat_to_matrix(j), 7)
        Mk = quat_to_matrix(k)
        assert np.array_equal(prod, Mk % 7)
        assert np.array_equal(Mk[0][1], ONE)
        assert np.array_equal(Mk[1][0], -ONE)

    def test_homomorphism_random(self):
        rng = random.Random(12)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            img = mat_mul_2x2(quat_to_matrix(F), quat_to_matrix(G), 7)
            direct = quat_to_matrix(quat_mul_schoolbook(F, G))
            assert np.array_equal(img, direct % 7)

    def test_matrix_round_trip(self):
        rng = random.Random(13)
        F = rand_quat(rng, 3, 7)
        assert matrix_to_quat(quat_to_matrix(F), 7) == F


class TestStrassen:
    def test_matches_schoolbook(self):
        # 1,012,333,453 is the largest modulus Params admits at n = 3: the
        # Strassen sums reach 4 (m-1), exact only because conv_mul reduces them
        rng = random.Random(14)
        for n, m in ((7, 113), (3, 1_012_333_453)):
            for _ in range(200):
                F, G = rand_quat(rng, n, m), rand_quat(rng, n, m)
                assert quat_mul_strassen(F, G) == quat_mul_schoolbook(F, G)

    def test_i_times_j_is_k(self):
        assert quat_mul_strassen(
            quat_unit("i", 3, 7), quat_unit("j", 3, 7)
        ) == quat_unit("k", 3, 7)

    def test_mult_count_is_7(self):
        rng = random.Random(15)
        F, G = rand_quat(rng, 7, 113), rand_quat(rng, 7, 113)
        before = CONV_COUNTER.count
        quat_mul_strassen(F, G)
        assert CONV_COUNTER.count - before == 7

    def test_even_modulus_rejected(self):
        F = quat_one(3, None)
        with pytest.raises(EvenModulus):
            quat_mul_strassen(F, F)


class TestNormConjugate:
    def test_norm_of_one(self):
        assert np.array_equal(quat_norm(quat_one(3, 7)), ONE)

    def test_norm_of_one_plus_i(self):
        one = quat_one(3, 7)
        i = quat_unit("i", 3, 7)
        assert is_zero(quat_norm(quat_add(one, i)))

    def test_f_times_conjugate_equals_norm(self):
        rng = random.Random(16)
        for _ in range(100):
            F = rand_quat(rng, 3, 7)
            prod = quat_mul_schoolbook(F, conjugate(F))
            c0, c1, c2, c3 = prod.rows
            assert np.array_equal(c0, quat_norm(F))
            assert is_zero(c1) and is_zero(c2) and is_zero(c3)

    def test_norm_multiplicative(self):
        rng = random.Random(17)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            lhs = quat_norm(quat_mul_schoolbook(F, G))
            rhs = conv_mul(quat_norm(F), quat_norm(G), 7)
            assert np.array_equal(lhs, rhs)


class TestInverseModP:
    def test_one_and_i(self):
        one = quat_one(3, 3)
        i = quat_unit("i", 3, 3)
        assert quat_inverse_mod_p(one) == one
        assert quat_inverse_mod_p(i) == i

    def test_random_invertible(self):
        rng = random.Random(18)
        found = 0
        while found < 10:
            F = rand_quat(rng, 3, 3)
            try:
                Finv = quat_inverse_mod_p(F)
            except Exception:
                continue
            assert quat_mul_schoolbook(F, Finv) == quat_one(3, 3)
            assert quat_mul_schoolbook(Finv, F) == quat_one(3, 3)
            found += 1


def conv_norm(F):
    """N(F) by four convolutions (the coefficient-domain reference)."""
    (c0, c1, c2, c3), m = F.rows, F.modulus
    return (conv_mul(c0, c0, m) - conv_mul(c1, c1, m)
            - conv_mul(c2, c2, m) + conv_mul(c3, c3, m)) % m


def conv_inverse_mod_p(F):
    """N(F)^-1 o conj(F) with the four products as convolutions (reference)."""
    m = F.modulus
    ninv = ring_inverse(conv_norm(F), m)
    return Quaternion([conv_mul(ninv, c, m) for c in conjugate(F).rows], m)


class TestEvaluationRoutes:
    """quat_norm and quat_inverse_mod_p run pointwise in product_domain."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(PARAM_SETS)), st.sampled_from(["p", "q"]),
           st.booleans(), st.integers(0, 2**32))
    def test_match_convolution_reference(self, name, which, ternary, seed):
        params = PARAM_SETS[name]
        n, m = params.n, getattr(params, which)
        rng = random.Random(seed)
        if ternary:
            # the shape keygen draws: small coefficients, first one unbalanced
            F = Quaternion([[rng.randrange(-1, 2) for _ in range(n * n)] for _ in range(4)], m)
        else:
            F = rand_quat(rng, n, m)
        CONV_COUNTER.reset()
        N = quat_norm(F)
        assert CONV_COUNTER.count == 0
        assert np.array_equal(N, conv_norm(F))
        try:
            expect = conv_inverse_mod_p(F)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                quat_inverse_mod_p(F)
            return
        CONV_COUNTER.reset()
        assert quat_inverse_mod_p(F) == expect
        if which == "p":
            # only ring_inverse's convolutions remain: 3 at toy, 7 at
            # moderate and 6 at highest
            assert CONV_COUNTER.count <= 7

    def test_unreduced_norm_rejected(self):
        with pytest.raises(ValueError):
            quat_norm(quat_one(3, None))


class TestRho:
    """rho(F) is EvalDomain.transform of F's rows: the one map to the grid."""

    def test_constant_one(self, dom3):
        vals = dom3.transform(quat_one(3, 7).rows)
        assert np.array_equal(vals, np.tile([[1], [0], [0], [0]], (1, 9)))

    def test_product_homomorphism(self, dom3):
        rng = random.Random(19)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            lhs = dom3.transform(quat_mul_schoolbook(F, G).rows)
            rhs = rho_mul(dom3.transform(F.rows), dom3.transform(G.rows), 7)
            assert np.array_equal(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_pointwise_product_matches_schoolbook(self, nq, seed):
        n, q = nq
        dom = eval_domain(n, q)
        rng = random.Random(seed)
        F, G = rand_quat(rng, n, q), rand_quat(rng, n, q)
        # (4, n^2) like F.rows: row r holds the grid values of component r
        assert Quaternion(dom.inverse_transform(dom.transform(F.rows)), q) == F
        prod = rho_mul(dom.transform(F.rows), dom.transform(G.rows), q)
        assert Quaternion(dom.inverse_transform(prod), q) == quat_mul_schoolbook(F, G)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), data=st.data())
    def test_signed_rows_need_no_lift(self, nq, data):
        # the transform reduces its rows mod q, so signed int64 rows (a key's
        # ternary F and G over Z) give the values of their residues and of
        # their centered lifts, point by point
        n, q = nq
        dom = eval_domain(n, q)
        rows = np.array(data.draw(st.lists(
            st.lists(st.integers(-5 * q, 5 * q), min_size=n * n, max_size=n * n),
            min_size=4, max_size=4)), dtype=np.int64)
        vals = dom.transform(rows)
        assert np.array_equal(vals, dom.transform(centered(rows, q)))
        expect = [[ring_eval(row, a, b, q) for a, b in grid_points(dom)] for row in rows]
        assert vals.tolist() == expect

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(PARAM_SETS)), seed=st.integers(0, 2 ** 32))
    def test_maps_on_the_product_domain(self, name, seed):
        # mod p, where there is no grid, centered lifts go onto
        # product_domain's auxiliary prime, and the centered product
        # comes back exact over Z, reduced mod p
        n, p = PARAM_SETS[name].n, PARAM_SETS[name].p
        dom = product_domain(n, p)
        rng = random.Random(seed)
        F, G = rand_quat(rng, n, p), rand_quat(rng, n, p)
        vals = rho_mul(dom.transform(centered(F.rows, p)), dom.transform(centered(G.rows, p)),
                       dom.q)
        prod = Quaternion(centered(dom.inverse_transform(vals), dom.q), p)
        assert prod == quat_mul_schoolbook(F, G)

    def test_sum_homomorphism(self, dom3):
        rng = random.Random(20)
        F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
        assert np.array_equal(dom3.transform(quat_add(F, G).rows),
                              (dom3.transform(F.rows) + dom3.transform(G.rows)) % 7)

    def test_lagrange_indicator(self, dom3):
        a, b = grid_points(dom3)[5]
        lam = lagrange_interpolant(dom3, a, b)
        vals = dom3.transform(Quaternion([lam, *np.zeros((3, 9))], 7).rows)
        expect = np.zeros((4, 9), dtype=np.int64)
        expect[0, 5] = 1
        assert np.array_equal(vals, expect)


class TestScalarQuat:
    def test_mul_matches_poly_embedding(self, dom3):
        rng = random.Random(21)
        for _ in range(50):
            a = tuple(rng.randrange(7) for _ in range(4))
            b = tuple(rng.randrange(7) for _ in range(4))
            pa = from_scalar(a, 3, 7)
            pb = from_scalar(b, 3, 7)
            prod = quat_mul_schoolbook(pa, pb)
            expect = scalar_mul(a, b, 7)
            assert tuple(int(c) for c in prod.rows[:, 0]) == expect

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_vectorised_mul_matches_per_point(self, nq, seed):
        n, q = nq
        rng = random.Random(seed)
        u, v = rand_rho(rng, n, q), rand_rho(rng, n, q)
        expect = np.array([scalar_mul(a, b, q) for a, b in zip(u.T, v.T)], dtype=np.int64).T
        assert np.array_equal(rho_mul(u, v, q), expect)

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from([7, 113, 199, product_domain(11, 3).q]), data=st.data())
    def test_table_kernel_matches_row_formula(self, q, data):
        # entries negative and >= q, which rho_mul and rho_left_tensor reduce mod q first
        size = data.draw(st.integers(1, 25))
        rows = st.lists(st.lists(st.integers(-3 * q, 3 * q), min_size=size, max_size=size),
                        min_size=4, max_size=4)
        u = np.array(data.draw(rows), dtype=np.int64)
        v = np.array(data.draw(rows), dtype=np.int64)
        got = rho_mul(u, v, q)
        assert got.dtype == np.int64 and got.shape == (4, size)
        assert np.array_equal(got, rho_mul_rows(u, v, q))
        # the two steps: u's tensor once, applied to v in [0, q)
        assert np.array_equal(rho_apply(rho_left_tensor(u, q), v % q, q), got)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_norms_match_per_point(self, nq, seed):
        # columns of an evaluation array, and one scalar quaternion such as
        # keygen's weight W
        n, q = nq
        rng = random.Random(seed)
        u = rand_rho(rng, n, q)
        assert rho_norms(u, q).tolist() == [scalar_norm(a, q) for a in u.T]
        W = tuple(rng.randrange(1, q) for _ in range(4))
        assert rho_norms(W, q) == scalar_norm(W, q)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_vectorised_inverse_matches_per_point(self, nq, seed):
        n, q = nq
        rng = random.Random(seed)
        u = rand_rho(rng, n, q)
        zeros = [k for k in range(n * n) if scalar_norm(u[:, k], q) == 0]
        # T holds every zero-norm point and a few others
        T = sorted(set(zeros) | set(rng.sample(range(n * n), 2)))
        inv = rho_inverse(u, q, T)
        for k in range(n * n):
            expect = (0, 0, 0, 0) if k in T else scalar_inverse(u[:, k], q)
            assert tuple(inv[:, k]) == expect
        # a zero-norm point left outside T is refused
        with pytest.raises(NormVanishesOutsideT):
            rho_inverse(u, q, [t for t in T if t != zeros[0]])

    def test_inverse(self):
        rng = random.Random(22)
        found = 0
        while found < 20:
            a = tuple(rng.randrange(7) for _ in range(4))
            try:
                ainv = scalar_inverse(a, 7)
            except Exception:
                continue
            assert scalar_mul(a, ainv, 7) == (1, 0, 0, 0)
            found += 1


class TestInverseModJ:
    def _valid_instance(self, rng, dom):
        """Random F whose norm's grid zeros form a small nonempty T."""
        while True:
            F = rand_quat(rng, dom.n, dom.q)
            norm_vals = dom.transform(quat_norm(F)[None])[0]
            zeros = [k for k in range(dom.size) if norm_vals[k] == 0]
            if 1 <= len(zeros) <= 3:
                return F, zeros

    def test_identity_off_T(self, dom3):
        rng = random.Random(23)
        for _ in range(10):
            F, T = self._valid_instance(rng, dom3)
            Finv = quat_inverse_mod_J(F, T, dom3)
            prod_vals = dom3.transform(quat_mul_schoolbook(F, Finv).rows)
            for k in range(dom3.size):
                if k in T:
                    continue
                assert tuple(prod_vals[:, k]) == (1, 0, 0, 0)

    def test_one_with_any_T(self, dom3):
        one = quat_one(3, 7)
        inv = quat_inverse_mod_J(one, [0], dom3)
        vals = dom3.transform(quat_mul_schoolbook(one, inv).rows)
        for k in range(1, 9):
            assert tuple(vals[:, k]) == (1, 0, 0, 0)

    def test_norm_zero_outside_T_rejected(self, dom3):
        rng = random.Random(24)
        F, T = self._valid_instance(rng, dom3)
        with pytest.raises(NormVanishesOutsideT):
            quat_inverse_mod_J(F, [], dom3)

    @settings(max_examples=20, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_norm_zero_outside_T_rejected_on_every_grid(self, nq, seed):
        n, q = nq
        dom = eval_domain(n, q)
        rng = random.Random(seed)
        vals = rand_rho(rng, n, q)
        zeros = [k for k in range(n * n) if scalar_norm(vals[:, k], q) == 0]
        F = Quaternion(dom.inverse_transform(vals), q)
        Finv = quat_inverse_mod_J(F, zeros, dom)
        prod_vals = dom.transform(quat_mul_schoolbook(F, Finv).rows)
        for k in range(n * n):
            assert tuple(prod_vals[:, k]) == ((0, 0, 0, 0) if k in zeros else (1, 0, 0, 0))
        with pytest.raises(NormVanishesOutsideT):
            quat_inverse_mod_J(F, zeros[1:], dom)
