import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from bqtru.analysis import expansion_ratio
from bqtru.ideal import build_bqtru_lattice, derive_T, hybrid_norm, rho_flat
from bqtru.params import MODERATE, TOY
from bqtru.quat import Quaternion, quat_mul_schoolbook, quat_norm, rho, rho_norms
from bqtru.ring import EvalDomain, RingElem, conv_mul, ring_inverse

from oracles import (
    InvalidWeight,
    NonIntegralU,
    basis_contains,
    build_D_prime,
    build_expanded_lattice,
    build_private_lattice,
    build_sigma,
    determinant,
    expansion_psi,
    gamma_vector,
    interpolate,
    lagrange_interpolant,
    quat_inverse_mod_J,
    quat_one,
    ring_eval,
    ring_zero,
    verify_key_membership,
)


def sample_balanced(rng, n, d, modulus=None):
    coeffs = np.zeros(n * n, dtype=np.int64)
    picks = rng.sample(range(n * n), 2 * d)
    coeffs[picks[:d]] = 1
    coeffs[picks[d:]] = -1
    return RingElem(coeffs % modulus if modulus else coeffs, n, modulus)


def sample_unbalanced(rng, n, d, modulus=None):
    """d+1 ones and d minus-ones (keeps the value at (1,1) nonzero)."""
    coeffs = np.zeros(n * n, dtype=np.int64)
    picks = rng.sample(range(n * n), 2 * d + 1)
    coeffs[picks[:d + 1]] = 1
    coeffs[picks[d + 1:]] = -1
    return RingElem(coeffs % modulus if modulus else coeffs, n, modulus)


def toy_keygen(rng, dom, p=3, d=1):
    """Minimal honest key generation at small parameters, for oracle tests."""
    q = dom.q
    while True:
        G = Quaternion(*(sample_balanced(rng, dom.n, d, q) for _ in range(4)))
        T = derive_T(rho(G, dom))
        if not (1 <= len(T) <= dom.n):
            continue
        for _ in range(200):
            comps = [sample_unbalanced(rng, dom.n, d, q)]
            comps += [sample_balanced(rng, dom.n, d, q) for _ in range(3)]
            F = Quaternion(*comps)
            norm_vals = dom.eval_all(quat_norm(F))
            if any(norm_vals[k] == 0 for k in range(dom.size) if k not in T):
                continue
            Fp = F.lift_centered().with_modulus(p)
            try:
                ring_inverse(quat_norm(Fp))
            except Exception:
                continue
            break
        else:
            continue
        weights = [rng.randrange(1, q) for _ in T]
        while True:
            W = tuple(rng.randrange(1, q) for _ in range(4))
            if rho_norms(W, q) != 0:
                break
        sigma = build_sigma(T, weights, dom)
        theta = Quaternion(*(sigma.scale(w) for w in W))
        Finv = quat_inverse_mod_J(F, T, dom)
        H = quat_mul_schoolbook(Finv, G) + theta
        rho_gamma = rho(quat_mul_schoolbook(F, theta), dom)
        sk = SimpleNamespace(F=F, G=G, rho_gamma=rho_gamma, T=T, W=W, theta=theta)
        pk = SimpleNamespace(H=H)
        return sk, pk


@pytest.fixture(scope="module")
def dom3():
    return EvalDomain(3, 7)


@pytest.fixture(scope="module")
def dom5():
    return EvalDomain(5, 11)


class TestDeriveT:
    def test_constant_never_vanishes(self, dom3):
        assert derive_T(rho(quat_one(3, 7), dom3)) == []

    def test_planted_zero_set(self, dom3):
        chosen = [2, 5]
        vals = np.ones(9, dtype=np.int64)
        vals[chosen] = 0
        c = interpolate(dom3, vals)
        G = Quaternion(c, c, c, c)
        assert derive_T(rho(G, dom3)) == chosen

    def test_matches_scan_oracle(self):
        dom = EvalDomain(7, 113)
        rng = random.Random(30)
        for _ in range(20):
            G = Quaternion(*(sample_balanced(rng, 7, 6, 113) for _ in range(4)))
            scan = [
                k for k, (a, b) in enumerate(dom.points)
                if all(ring_eval(c, a, b) == 0 for c in G.components)
            ]
            assert derive_T(rho(G, dom)) == scan

    def test_balanced_components_vanish_at_unity(self, dom3):
        rng = random.Random(31)
        k11 = dom3.points.index((1, 1))
        for _ in range(20):
            G = Quaternion(*(sample_balanced(rng, 3, 2, 7) for _ in range(4)))
            assert k11 in derive_T(rho(G, dom3))


class TestBuildSigma:
    def test_single_point_unit_weight(self, dom3):
        for k, (a, b) in enumerate(dom3.points):
            assert build_sigma([k], [1], dom3) == lagrange_interpolant(dom3, a, b)

    def test_zero_weight_rejected(self, dom3):
        with pytest.raises(InvalidWeight):
            build_sigma([0], [0], dom3)
        with pytest.raises(InvalidWeight):
            build_sigma([0, 1], [3, 7], dom3)

    def test_eval_pattern(self, dom5):
        rng = random.Random(32)
        for _ in range(20):
            T = rng.sample(range(25), rng.randrange(1, 5))
            weights = [rng.randrange(1, 11) for _ in T]
            sigma = build_sigma(T, weights, dom5)
            vals = dom5.eval_all(sigma)
            for k in range(25):
                if k in T:
                    assert vals[k] == weights[T.index(k)]
                else:
                    assert vals[k] == 0

    def test_generator_identity(self, dom5):
        # sigma * lam_i * w_i^{-1} == lam_i for every point of T
        rng = random.Random(33)
        T = rng.sample(range(25), 3)
        weights = [rng.randrange(1, 11) for _ in T]
        sigma = build_sigma(T, weights, dom5)
        for k, w in zip(T, weights):
            a, b = dom5.points[k]
            lam = lagrange_interpolant(dom5, a, b)
            winv = pow(w, 11 - 2, 11)
            assert conv_mul(sigma, lam).scale(winv) == lam

    def test_distinct_T_distinct_sigma(self, dom3):
        seen = {}
        singles = [((k,), (1,)) for k in range(9)]
        pairs = [((k, k2), (1, 1)) for k in range(9) for k2 in range(k + 1, 9)]
        for T, w in singles + pairs:
            sigma = build_sigma(T, w, dom3)
            key = tuple(int(c) for c in sigma.coeffs)
            assert key not in seen, f"collision between {T} and {seen[key]}"
            seen[key] = T


class TestDPrime:
    def test_degenerate_empty_T(self, dom3):
        basis = build_D_prime((), dom3)
        assert np.array_equal(basis.rows.astype(np.int64), 7 * np.eye(9, dtype=np.int64))
        assert determinant(basis) == 7 ** 9

    def test_single_point_determinant(self, dom3):
        basis = build_D_prime([4], dom3)
        det = abs(determinant(basis))
        assert det % 7 ** 8 == 0
        assert det == 7 ** 8

    def test_sigma_is_a_member(self, dom5):
        rng = random.Random(34)
        T = rng.sample(range(25), 2)
        basis = build_D_prime(T, dom5)
        assert basis_contains(basis, build_sigma(T, [5, 9], dom5).coeffs % 11)

    def test_membership_matches_eval_oracle(self, dom3):
        # multiples of sigma take arbitrary values on T and vanish off T, so
        # v lies in the lattice of <q, sigma> iff its values off T are 0 mod q
        rng = random.Random(35)
        T = [1, 6]
        basis = build_D_prime(T, dom3)
        hits = 0
        for _ in range(60):
            if rng.random() < 0.5:
                # plant a member: free values on T, zero elsewhere
                vals = np.zeros(9, dtype=np.int64)
                for k in T:
                    vals[k] = rng.randrange(7)
                v = interpolate(dom3, vals).coeffs.copy()
                v[rng.randrange(9)] += 7 * rng.randrange(-2, 3)
            else:
                v = np.array([rng.randrange(-10, 11) for _ in range(9)])
            elem = RingElem(v % 7, 3, 7)
            vals = dom3.eval_all(elem)
            expect = all(vals[k] == 0 for k in range(9) if k not in T)
            got = basis_contains(basis, v)
            assert got == expect
            hits += got
        assert hits >= 20  # planted members keep the positive branch exercised

    def test_row_combinations_are_members(self, dom3):
        rng = random.Random(36)
        basis = build_D_prime([0], dom3)
        for _ in range(20):
            z = np.array([rng.randrange(-3, 4) for _ in range(9)], dtype=object)
            assert basis_contains(basis, z @ basis.rows)


class TestPrivateLattice:
    def test_shape_and_determinant(self, dom3):
        dp = build_D_prime([2], dom3)
        priv = build_private_lattice(dp)
        assert priv.dim == 36
        assert determinant(priv) == determinant(dp) ** 4

    def test_dimension_at_n7(self):
        dom = EvalDomain(7, 113)
        priv = build_private_lattice(build_D_prime([0], dom))
        assert priv.dim == 196

    def test_ideal_multiples_are_members(self, dom3):
        # J = <sigma> + qA: every W' o sigma lands in the private lattice
        rng = random.Random(37)
        T = [3, 7]
        sigma = build_sigma(T, [2, 6], dom3)
        priv = build_private_lattice(build_D_prime(T, dom3))
        for _ in range(10):
            Wp = Quaternion(*(
                RingElem(np.array([rng.randrange(7) for _ in range(9)]), 3, 7)
                for _ in range(4)
            ))
            sig_q = Quaternion(sigma, ring_zero(3, 7),
                               ring_zero(3, 7), ring_zero(3, 7))
            prod = quat_mul_schoolbook(Wp, sig_q)
            assert basis_contains(priv, prod.lift_positive().vector())


class TestBqtruLattice:
    def test_dimension(self, dom3):
        H = quat_one(3, 7)
        assert build_bqtru_lattice(H, dom3).dim == 108

    def test_F_row_identity(self, dom3):
        rng = random.Random(38)
        four = 36
        for _ in range(10):
            H = Quaternion(*(
                RingElem(np.array([rng.randrange(7) for _ in range(9)]), 3, 7)
                for _ in range(4)
            ))
            F = Quaternion(*(sample_balanced(rng, 3, 2) for _ in range(4)))
            M = build_bqtru_lattice(H, dom3)
            HH = M.rows[four:2 * four, :four]
            got = (F.vector().astype(object) @ HH) % 7
            FH = quat_mul_schoolbook(F.with_modulus(7), H)
            assert np.array_equal(got.astype(np.int64), FH.lift_positive().vector())

    def test_gamma_row_identity(self, dom3):
        # interpolating the evaluation vector through the stacked rows
        # reproduces the element itself, modulo q
        rng = random.Random(39)
        for _ in range(10):
            Gam = Quaternion(*(
                RingElem(np.array([rng.randrange(7) for _ in range(9)]), 3, 7)
                for _ in range(4)
            ))
            vec = gamma_vector(rho(Gam, dom3), dom3)
            assert np.array_equal(
                np.array([int(v) % 7 for v in vec]), Gam.lift_positive().vector()
            )

    def test_rho_flat_ordering(self, dom3):
        vals = np.arange(36).reshape(9, 4)
        flat = rho_flat(vals)
        assert flat[0] == 0 and flat[9] == 1 and flat[35] == 35


class TestKeyMembership:
    def test_honest_keys_n3(self, dom3):
        rng = random.Random(40)
        for _ in range(100):
            sk, pk = toy_keygen(rng, dom3)
            assert verify_key_membership(sk, pk, dom3)

    def test_corrupt_F_fails(self, dom3):
        rng = random.Random(41)
        sk, pk = toy_keygen(rng, dom3)
        bad = sk.F.vector().copy()
        bad[0] += 1
        sk_bad = SimpleNamespace(
            F=Quaternion.from_vector(bad, 3, 7), G=sk.G, rho_gamma=sk.rho_gamma
        )
        assert verify_key_membership(sk_bad, pk, dom3) is False
        with pytest.raises(NonIntegralU):
            verify_key_membership(sk_bad, pk, dom3, strict=True)

    def test_rho_theta_supported_on_T(self, dom3):
        rng = random.Random(42)
        sk, pk = toy_keygen(rng, dom3)
        # theta = W-scaled sigma: all four entries nonzero exactly on T
        rt = rho(sk.theta, dom3)
        for k in range(9):
            if k in sk.T:
                assert all(rt[k][c] != 0 for c in range(4))
            else:
                assert not rt[k].any()
        # gamma = F o theta inherits the off-T vanishing
        for k in range(9):
            if k not in sk.T:
                assert not np.asarray(sk.rho_gamma)[k].any()


class TestExpandedLattice:
    def test_dimension_n3(self, dom3):
        H = quat_one(3, 7)
        assert build_expanded_lattice(H, dom3).dim == 180  # (4*2+12)*9

    @pytest.mark.parametrize("n,q,expect", [(7, 113, 1764), (11, 199, 4840)])
    def test_dimension_formula(self, n, q, expect):
        ell = int(math.floor(math.log2(q)))
        assert (4 * ell + 12) * n * n == expect

    def test_built_dimension_n7(self):
        dom = EvalDomain(7, 113)
        H = quat_one(7, 113)
        assert build_expanded_lattice(H, dom).dim == 1764

    @pytest.mark.parametrize("params", [TOY, MODERATE], ids=["toy", "moderate"])
    def test_attack_formulas_match_built_lattices(self, params):
        # bqtru attack prints both dimensions from these formulas
        rng = random.Random(45)
        n, q = params.n, params.q
        dom = EvalDomain(n, q)
        H = Quaternion(*(RingElem(np.array([rng.randrange(q) for _ in range(n * n)]), n, q)
                         for _ in range(4)))
        assert expansion_ratio(params).built_dim == build_expanded_lattice(H, dom).dim
        assert build_bqtru_lattice(H, dom).dim == 12 * n * n

    def test_psi_maps_into_base_lattice(self, dom3):
        rng = random.Random(43)
        H = Quaternion(*(
            RingElem(np.array([rng.randrange(7) for _ in range(9)]), 3, 7)
            for _ in range(4)
        ))
        exp = build_expanded_lattice(H, dom3)
        base = build_bqtru_lattice(H, dom3)
        for _ in range(5):
            z = np.array([rng.randrange(-2, 3) for _ in range(exp.dim)], dtype=object)
            member = z @ exp.rows
            assert basis_contains(base, expansion_psi(member, dom3))


class TestHybridNorm:
    def test_zero(self):
        z = np.zeros(36)
        assert hybrid_norm(z, z, z) == 0

    def test_unit_f(self):
        z = np.zeros(36)
        e = z.copy()
        e[5] = 1
        assert hybrid_norm(z, e, z) == 1.0

    def test_combined(self):
        g = np.zeros(36)
        g[0], g[1] = 3, 4
        r = np.zeros(36)
        r[:5] = 2
        assert hybrid_norm(g, np.zeros(36), r) == pytest.approx(5.0 + 5)

    def test_private_key_hamming_term(self, dom3):
        rng = random.Random(44)
        sk, _ = toy_keygen(rng, dom3)
        gv = sk.G.lift_centered().vector()
        fv = sk.F.lift_centered().vector()
        r = rho_flat(np.asarray(sk.rho_gamma))
        h = hybrid_norm(gv, fv, r)
        eucl = math.sqrt(float(gv @ gv + fv @ fv))
        nz = int(np.count_nonzero(r))
        assert h == pytest.approx(eucl + nz)
        # the rho part is supported on T, so at most 4|T| entries are set;
        # with all W components nonzero rho(theta) itself hits exactly 4|T|
        assert nz <= 4 * len(sk.T)
        assert int(np.count_nonzero(rho(sk.theta, dom3))) == 4 * len(sk.T)

