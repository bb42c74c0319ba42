"""End-to-end acceptance checks: one test per release criterion.

These retest the headline numbers and guarantees at full scale (10^4-trial
runs, 1000-pair product comparisons, published size/security figures), so
the module is slower than the unit suites.
"""

import math
import random

import numpy as np
import pytest

from bqtru.analysis import (
    expansion_ratio,
    failure_probability_estimate,
    key_security_bits,
    message_security_bits,
    noise_variance,
    poltyrev_sigma_sq_max,
    public_key_size_bits,
    wilson_interval,
)
from bqtru.lattice import gaussian_heuristic, lll_reduce
from bqtru.ntru import (
    NtruParams,
    ntru_decrypt,
    ntru_encrypt,
    ntru_keygen,
    ntru_public_key_bits,
)
from bqtru.params import HIGHEST, MODERATE, TOY, Params
from bqtru.quat import (
    Quaternion,
    quat_mul_schoolbook,
    quat_mul_strassen,
    quat_norm,
    quat_to_matrix,
    rho_mul,
)
from bqtru.ring import CONV_COUNTER, EvalDomain, conv_mul, signed_ternary
from bqtru.scheme import decrypt, encrypt, keygen, random_message

from oracles import (
    build_expanded_lattice,
    conjugate,
    empirical_noise_variance,
    exhaustive_cvp,
    grid_points,
    is_size_reduced,
    lagrange_interpolant,
    lagrange_rows,
    quat_inverse_mod_J,
    rho_gamma,
    ring_eval,
    satisfies_lovasz,
    sphere_decode,
    verify_key_membership,
)

RNG_BASE = 20_000


def rand_quat(n, q, rng):
    return Quaternion([[rng.randrange(q) for _ in range(n * n)] for _ in range(4)], q)


@pytest.fixture(scope="module")
def moderate_round_trips():
    """10,000 fresh-message round trips spread over 5 keypairs."""
    rng = random.Random(RNG_BASE)
    keys, per_key = 5, 2000
    successes = 0
    for _ in range(keys):
        pk, sk = keygen(MODERATE, rng)
        for _ in range(per_key):
            M = random_message(MODERATE, rng)
            successes += np.array_equal(decrypt(sk, encrypt(pk, M, rng)), M)
    return successes, keys * per_key


class TestCriterion1RoundTrips:
    def test_success_rate_at_least_995_per_mille(self, moderate_round_trips):
        successes, trials = moderate_round_trips
        assert trials == 10_000
        assert successes / trials >= 0.995


class TestCriterion2StrassenClaim:
    def test_products_agree_and_counts_are_16_vs_7(self):
        rng = random.Random(RNG_BASE + 1)
        for _ in range(1000):
            F, G = rand_quat(7, 113, rng), rand_quat(7, 113, rng)
            CONV_COUNTER.reset()
            school = quat_mul_schoolbook(F, G)
            assert CONV_COUNTER.count == 16
            CONV_COUNTER.reset()
            fast = quat_mul_strassen(F, G)
            assert CONV_COUNTER.count == 7
            assert school == fast
        assert 16 / 7 == pytest.approx(2.2857, abs=1e-4)


class TestCriterion3PublicKeySizes:
    def test_published_sizes(self):
        assert public_key_size_bits(MODERATE) == 1372
        assert public_key_size_bits(HIGHEST) == 3872


class TestCriterion4SecurityArithmetic:
    def test_message_security_floors_to_92(self):
        assert math.floor(message_security_bits(MODERATE)) == 92

    def test_key_security_lower_bounds(self):
        assert key_security_bits(MODERATE) > 166
        assert key_security_bits(HIGHEST) > 396

    def test_highest_message_security_reported_and_flagged(self):
        # exact big-integer evaluation lands near 221; the published table
        # says 212 -- both facts are recorded, the computed value governs
        computed = message_security_bits(HIGHEST)
        assert 220 < computed < 222
        assert abs(computed - 212) > 8


class TestCriterion5AlgebraicSuites:
    def test_rho_homomorphism(self):
        rng = random.Random(RNG_BASE + 2)
        dom = EvalDomain(3, 7)
        for _ in range(100):
            F, G = rand_quat(3, 7, rng), rand_quat(3, 7, rng)
            lhs = dom.transform(quat_mul_schoolbook(F, G).rows)
            rhs = rho_mul(dom.transform(F.rows), dom.transform(G.rows), 7)
            assert np.array_equal(lhs, rhs)

    def test_interpolant_delta_and_absorption(self):
        rng = random.Random(RNG_BASE + 3)
        dom = EvalDomain(3, 7)
        points = grid_points(dom)
        for _ in range(100):
            k = rng.randrange(9)
            a, b = points[k]
            lam = lagrange_interpolant(dom, a, b)
            vals = [ring_eval(lam, *point, 7) for point in points]
            expect = np.zeros(9, dtype=np.int64)
            expect[k] = 1
            assert np.array_equal(vals, expect)
            f = np.array([rng.randrange(7) for _ in range(9)])
            fab = ring_eval(f, a, b, 7)
            assert np.array_equal(conv_mul(f, lam, 7), lam * fab % 7)

    def test_norm_times_conjugate(self):
        rng = random.Random(RNG_BASE + 4)
        for _ in range(100):
            F = rand_quat(3, 7, rng)
            prod = quat_mul_schoolbook(F, conjugate(F))
            N = quat_norm(F)
            assert prod == Quaternion([N, *np.zeros((3, 9))], 7)

    def test_inverse_identity_off_secret_subset(self):
        rng = random.Random(RNG_BASE + 5)
        dom = EvalDomain(3, 7)
        for _ in range(100):
            _, sk = keygen(TOY, rng)
            F = sk.F.with_modulus(7)
            # every key's secret set is {(1,1)}, grid index 0
            Finv = quat_inverse_mod_J(F, [0], dom)
            vals = dom.transform(quat_mul_schoolbook(F, Finv).rows)
            for k in range(1, 9):
                assert vals[:, k].tolist() == [1, 0, 0, 0]

    def test_matrix_isomorphism(self):
        rng = random.Random(RNG_BASE + 6)

        def mul(f, g):
            return conv_mul(f, g, 7)

        for _ in range(100):
            F, G = rand_quat(3, 7, rng), rand_quat(3, 7, rng)
            (f00, f01), (f10, f11) = quat_to_matrix(F)
            (g00, g01), (g10, g11) = quat_to_matrix(G)
            prod = np.array([[mul(f00, g00) + mul(f01, g10), mul(f00, g01) + mul(f01, g11)],
                             [mul(f10, g00) + mul(f11, g10), mul(f10, g01) + mul(f11, g11)]])
            direct = quat_to_matrix(quat_mul_schoolbook(F, G))
            assert np.array_equal(prod % 7, direct % 7)

    def test_interpolation_round_trip(self):
        rng = random.Random(RNG_BASE + 7)
        dom = EvalDomain(3, 7)
        L = lagrange_rows(dom, grid_points(dom))
        for _ in range(100):
            vals = np.array([rng.randrange(7) for _ in range(9)], dtype=np.int64)
            f = vals @ L % 7
            assert np.array_equal(dom.transform(f[None])[0], vals)


class TestCriterion6LatticeCorrectness:
    def test_membership_identity_many_keys(self):
        rng = random.Random(RNG_BASE + 8)
        dom3 = EvalDomain(3, 7)
        for _ in range(100):
            pk, sk = keygen(TOY, rng)
            assert verify_key_membership(sk, pk, dom3, rho_gamma(sk))
        dom7 = EvalDomain(7, 113)
        for _ in range(10):
            pk, sk = keygen(MODERATE, rng)
            assert verify_key_membership(sk, pk, dom7, rho_gamma(sk))

    def test_sphere_decode_equals_exhaustive(self):
        rng = random.Random(RNG_BASE + 9)
        for _ in range(200):
            dim = rng.randrange(2, 7)
            while True:
                rows = np.array([[rng.randrange(-3, 4) for _ in range(dim)]
                                 for _ in range(dim)])
                if abs(np.linalg.det(rows.astype(float))) > 0.5:
                    break
            reduced = lll_reduce(rows)
            assert is_size_reduced(reduced) and satisfies_lovasz(reduced)
            x_true = np.array([rng.uniform(-1.5, 1.5) for _ in range(dim)])
            t = x_true @ reduced + np.array([rng.uniform(-0.3, 0.3)
                                             for _ in range(dim)])
            got = sphere_decode(reduced, t)
            x = np.linalg.solve(reduced.T.astype(float), t)
            _, best_sq = exhaustive_cvp(reduced, t, np.round(x), 2)
            d = float(np.sum((t - got) ** 2))
            assert d == pytest.approx(best_sq, abs=1e-6)
            assert d <= best_sq + 1e-6


class TestCriterion7NoiseModel:
    def test_empirical_variance_within_10_percent(self):
        emp = empirical_noise_variance(MODERATE, 10_000, random.Random(RNG_BASE + 10))
        model = noise_variance(MODERATE)
        assert abs(emp - model) / model < 0.10

    def test_monte_carlo_consistent_with_estimate(self, moderate_round_trips):
        successes, trials = moderate_round_trips
        rate = successes / trials
        lo, hi = wilson_interval(successes, trials)
        assert lo <= rate <= hi
        est = failure_probability_estimate(MODERATE)
        sigma = math.sqrt(est * (1 - est) / trials)
        assert rate >= est - 3 * sigma


class TestCriterion8DimensionAccounting:
    def test_ratio_bound_across_sizes(self):
        for params in (TOY, Params(5, 3, 11, 2, 2, 2), MODERATE, HIGHEST):
            acct = expansion_ratio(params)
            assert acct.real_ratio >= 2 + math.log2(params.n)

    def test_published_dimensions_at_n7(self):
        acct = expansion_ratio(MODERATE)
        assert acct.real_dim == pytest.approx(2036, abs=1)
        assert acct.base_dim == 392
        assert acct.built_dim == 1764

    def test_built_lattice_dimension_exact(self):
        rng = random.Random(RNG_BASE + 11)
        pk, _ = keygen(MODERATE, rng)
        E = build_expanded_lattice(pk.H, EvalDomain(7, 113))
        assert E.dim == (4 * 6 + 12) * 49 == 1764


def _signed_power_digits(value: int, max_level: int):
    """Minimal-weight digits d_t in {-1,0,1} with sum d_t 2^t = value."""
    digits = {}
    v, t = value, 0
    sign = 1 if v >= 0 else -1
    v = abs(v)
    while v:
        if v % 2:
            d = 1 if v % 4 == 1 else -1
            digits[t] = sign * d
            v -= d
        v //= 2
        t += 1
    assert not digits or max(digits) <= max_level
    return digits


class TestCriterion9VolumeHeuristics:
    def test_poltyrev_ceiling_exceeds_885(self):
        for t_size in range(1, HIGHEST.n + 1):
            assert poltyrev_sigma_sq_max(HIGHEST, t_size) > 885

    def test_gaussian_heuristic_exceeds_expanded_key_norm(self):
        rng = random.Random(RNG_BASE + 12)
        n, q = 7, 113
        ell = int(math.log2(q))
        dim = (4 * ell + 12) * n * n
        gh = gaussian_heuristic(dim, q ** (4 * n * n))
        for _ in range(10):
            _, sk = keygen(MODERATE, rng)
            # expanded key vector: (G | F | signed power-of-two digits of
            # the centered interpolation values), entry-exact by construction
            tail_sq = 0
            for v in rho_gamma(sk).reshape(-1):
                centered = int(v) if int(v) <= q // 2 else int(v) - q
                digits = _signed_power_digits(-centered, ell)
                assert sum(d * (1 << t) for t, d in digits.items()) == -centered
                tail_sq += len(digits)
            g = sk.G.rows.reshape(-1)
            f = sk.F.rows.reshape(-1)
            norm = math.sqrt(float(g @ g) + float(f @ f) + tail_sq)
            assert norm < gh


class TestCriterion10NtruBaseline:
    def test_guarded_never_fails_10k(self):
        params = NtruParams(107, 3, 659, 34)
        assert params.q > (6 * params.d + 1) * params.p
        rng = random.Random(RNG_BASE + 13)
        h, sk = ntru_keygen(params, rng)
        for _ in range(10_000):
            m = signed_ternary(107, 20, 20, rng)
            c = ntru_encrypt(h, m, params, rng)
            assert np.array_equal(ntru_decrypt(sk, c, params), m)

    def test_published_key_size(self):
        assert ntru_public_key_bits(NtruParams(167, 3, 128, 3)) == 1169
