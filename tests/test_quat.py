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
    rho,
    rho_interpolate,
    rho_inverse,
    rho_mul,
    rho_norms,
)
from bqtru.ring import (
    CONV_COUNTER,
    EvalDomain,
    RingElem,
    conv_mul,
    eval_domain,
    ring_inverse,
)

from oracles import (
    conjugate,
    from_scalar,
    is_zero,
    lagrange_interpolant,
    quat_inverse_mod_J,
    quat_one,
    quat_unit,
    ring_zero,
    scalar_inverse,
    scalar_mul,
    scalar_norm,
)

# (n, q) with n | q-1: the shipped sets plus the wide-q test set
GRIDS = [(3, 7), (5, 11), (7, 113), (11, 199), (7, 547)]


def rand_quat(rng, n, modulus):
    comps = [
        RingElem(np.array([rng.randrange(modulus) for _ in range(n * n)]), n, modulus)
        for _ in range(4)
    ]
    return Quaternion(*comps)


def rand_rho(rng, n, q):
    """Random evaluation array with some zero-norm rows, (a, a, b, b) among them."""
    vals = np.array([[rng.randrange(q) for _ in range(4)] for _ in range(n * n)],
                    dtype=np.int64)
    for k in rng.sample(range(n * n), n):
        a, b = rng.randrange(q), rng.randrange(q)
        vals[k] = (a, a, b, b)
    return vals


def mat_mul_2x2(A, B):
    """Schoolbook 2x2 ring-matrix product (oracle for the isomorphism)."""
    return [
        [
            conv_mul(A[0][0], B[0][0]) + conv_mul(A[0][1], B[1][0]),
            conv_mul(A[0][0], B[0][1]) + conv_mul(A[0][1], B[1][1]),
        ],
        [
            conv_mul(A[1][0], B[0][0]) + conv_mul(A[1][1], B[1][0]),
            conv_mul(A[1][0], B[0][1]) + conv_mul(A[1][1], B[1][1]),
        ],
    ]


@pytest.fixture(scope="module")
def dom3():
    return EvalDomain(3, 7)


class TestSchoolbook:
    def test_i_times_j_is_k(self):
        i = quat_unit("i", 3, 7)
        j = quat_unit("j", 3, 7)
        k = quat_unit("k", 3, 7)
        assert quat_mul_schoolbook(i, j) == k
        assert quat_mul_schoolbook(j, i) == -k

    def test_one_is_identity(self):
        rng = random.Random(10)
        F = rand_quat(rng, 3, 7)
        assert quat_mul_schoolbook(F, quat_one(3, 7)) == F

    def test_split_zero_divisor(self):
        one = quat_one(3, 7)
        i = quat_unit("i", 3, 7)
        assert is_zero(quat_mul_schoolbook(one + i, one - i))

    def test_mult_count_is_16(self):
        rng = random.Random(11)
        F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
        before = CONV_COUNTER.count
        quat_mul_schoolbook(F, G)
        assert CONV_COUNTER.count - before == 16


class TestMatrixImage:
    def test_one_maps_to_identity(self):
        M = quat_to_matrix(quat_one(3, 7))
        assert M[0][0] == RingElem.one(3, 7) and M[1][1] == RingElem.one(3, 7)
        assert is_zero(M[0][1]) and is_zero(M[1][0])

    def test_i_maps_to_diag(self):
        M = quat_to_matrix(quat_unit("i", 3, 7))
        assert M[0][0] == RingElem.one(3, 7)
        assert M[1][1] == -RingElem.one(3, 7)
        assert is_zero(M[0][1]) and is_zero(M[1][0])

    def test_k_image_matches_ij_product(self):
        i = quat_unit("i", 3, 7)
        j = quat_unit("j", 3, 7)
        k = quat_unit("k", 3, 7)
        prod = mat_mul_2x2(quat_to_matrix(i), quat_to_matrix(j))
        Mk = quat_to_matrix(k)
        for r in range(2):
            for c in range(2):
                assert prod[r][c] == Mk[r][c]
        assert Mk[0][1] == RingElem.one(3, 7)
        assert Mk[1][0] == -RingElem.one(3, 7)

    def test_homomorphism_random(self):
        rng = random.Random(12)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            img = mat_mul_2x2(quat_to_matrix(F), quat_to_matrix(G))
            direct = quat_to_matrix(quat_mul_schoolbook(F, G))
            for r in range(2):
                for c in range(2):
                    assert img[r][c] == direct[r][c]

    def test_matrix_round_trip(self):
        rng = random.Random(13)
        F = rand_quat(rng, 3, 7)
        assert matrix_to_quat(quat_to_matrix(F)) == F


class TestStrassen:
    def test_matches_schoolbook(self):
        rng = random.Random(14)
        for _ in range(200):
            F, G = rand_quat(rng, 7, 113), rand_quat(rng, 7, 113)
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
        assert quat_norm(quat_one(3, 7)) == RingElem.one(3, 7)

    def test_norm_of_one_plus_i(self):
        one = quat_one(3, 7)
        i = quat_unit("i", 3, 7)
        assert is_zero(quat_norm(one + i))

    def test_f_times_conjugate_equals_norm(self):
        rng = random.Random(16)
        for _ in range(100):
            F = rand_quat(rng, 3, 7)
            prod = quat_mul_schoolbook(F, conjugate(F))
            nrm = quat_norm(F)
            assert prod.c0 == nrm
            assert is_zero(prod.c1) and is_zero(prod.c2) and is_zero(prod.c3)

    def test_norm_multiplicative(self):
        rng = random.Random(17)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            lhs = quat_norm(quat_mul_schoolbook(F, G))
            rhs = conv_mul(quat_norm(F), quat_norm(G))
            assert lhs == rhs


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
    c0, c1, c2, c3 = F.components
    return conv_mul(c0, c0) - conv_mul(c1, c1) - conv_mul(c2, c2) + conv_mul(c3, c3)


def conv_inverse_mod_p(F):
    """N(F)^-1 o conj(F) with the four products as convolutions (reference)."""
    ninv = ring_inverse(conv_norm(F))
    return Quaternion(*(conv_mul(ninv, c) for c in conjugate(F).components))


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
            F = Quaternion(*(RingElem(np.array([rng.randrange(-1, 2) for _ in range(n * n)]),
                                      n, m) for _ in range(4)))
        else:
            F = rand_quat(rng, n, m)
        CONV_COUNTER.reset()
        N = quat_norm(F)
        assert CONV_COUNTER.count == 0
        assert N == conv_norm(F)
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
    def test_constant_one(self, dom3):
        vals = rho(quat_one(3, 7), dom3)
        assert np.array_equal(vals, np.tile([1, 0, 0, 0], (9, 1)))

    def test_product_homomorphism(self, dom3):
        rng = random.Random(19)
        for _ in range(100):
            F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
            lhs = rho(quat_mul_schoolbook(F, G), dom3)
            rhs = rho_mul(rho(F, dom3), rho(G, dom3), 7)
            assert np.array_equal(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_pointwise_product_matches_schoolbook(self, nq, seed):
        n, q = nq
        dom = eval_domain(n, q)
        rng = random.Random(seed)
        F, G = rand_quat(rng, n, q), rand_quat(rng, n, q)
        assert rho_interpolate(rho(F, dom), dom) == F
        prod = rho_interpolate(rho_mul(rho(F, dom), rho(G, dom), q), dom)
        assert prod == quat_mul_schoolbook(F, G)

    def test_context_mismatch(self, dom3):
        with pytest.raises(ContextMismatch):
            rho(quat_one(3, 3), dom3)

    def test_sum_homomorphism(self, dom3):
        rng = random.Random(20)
        F, G = rand_quat(rng, 3, 7), rand_quat(rng, 3, 7)
        assert np.array_equal(rho(F + G, dom3), (rho(F, dom3) + rho(G, dom3)) % 7)

    def test_lagrange_indicator(self, dom3):
        a, b = dom3.points[5]
        lam = lagrange_interpolant(dom3, a, b)
        z = ring_zero(3, 7)
        vals = rho(Quaternion(lam, z, z, z), dom3)
        expect = np.zeros((9, 4), dtype=np.int64)
        expect[5, 0] = 1
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
            assert tuple(int(c.coeffs[0]) for c in prod.components) == expect

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_vectorised_mul_matches_per_point(self, nq, seed):
        n, q = nq
        rng = random.Random(seed)
        u, v = rand_rho(rng, n, q), rand_rho(rng, n, q)
        expect = np.array([scalar_mul(a, b, q) for a, b in zip(u, v)], dtype=np.int64)
        assert np.array_equal(rho_mul(u, v, q), expect)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_norms_match_per_point(self, nq, seed):
        # rows of an evaluation array, and one scalar quaternion such as
        # keygen's weight W
        n, q = nq
        rng = random.Random(seed)
        u = rand_rho(rng, n, q)
        assert rho_norms(u, q).tolist() == [scalar_norm(a, q) for a in u]
        W = tuple(rng.randrange(1, q) for _ in range(4))
        assert rho_norms(W, q) == scalar_norm(W, q)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.sampled_from(GRIDS), seed=st.integers(0, 2 ** 32))
    def test_vectorised_inverse_matches_per_point(self, nq, seed):
        n, q = nq
        rng = random.Random(seed)
        u = rand_rho(rng, n, q)
        zeros = [k for k in range(n * n) if scalar_norm(u[k], q) == 0]
        # T holds every zero-norm point and a few others
        T = sorted(set(zeros) | set(rng.sample(range(n * n), 2)))
        inv = rho_inverse(u, q, T)
        for k in range(n * n):
            expect = (0, 0, 0, 0) if k in T else scalar_inverse(u[k], q)
            assert tuple(inv[k]) == expect
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
            norm_vals = dom.eval_all(quat_norm(F))
            zeros = [k for k in range(dom.size) if norm_vals[k] == 0]
            if 1 <= len(zeros) <= 3:
                return F, zeros

    def test_identity_off_T(self, dom3):
        rng = random.Random(23)
        for _ in range(10):
            F, T = self._valid_instance(rng, dom3)
            Finv = quat_inverse_mod_J(F, T, dom3)
            prod_vals = rho(quat_mul_schoolbook(F, Finv), dom3)
            for k in range(dom3.size):
                if k in T:
                    continue
                assert tuple(prod_vals[k]) == (1, 0, 0, 0)

    def test_one_with_any_T(self, dom3):
        one = quat_one(3, 7)
        inv = quat_inverse_mod_J(one, [0], dom3)
        vals = rho(quat_mul_schoolbook(one, inv), dom3)
        for k in range(1, 9):
            assert tuple(vals[k]) == (1, 0, 0, 0)

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
        zeros = [k for k in range(n * n) if scalar_norm(vals[k], q) == 0]
        F = rho_interpolate(vals, dom)
        Finv = quat_inverse_mod_J(F, zeros, dom)
        prod_vals = rho(quat_mul_schoolbook(F, Finv), dom)
        for k in range(n * n):
            assert tuple(prod_vals[k]) == ((0, 0, 0, 0) if k in zeros else (1, 0, 0, 0))
        with pytest.raises(NormVanishesOutsideT):
            quat_inverse_mod_J(F, zeros[1:], dom)
