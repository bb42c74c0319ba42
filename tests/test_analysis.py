import math
import random
from math import comb
from types import SimpleNamespace

import pytest

from bqtru.analysis import (
    analysis_report,
    expansion_ratio,
    failure_probability_estimate,
    ideal_count,
    key_security_bits,
    message_security_bits,
    monte_carlo_failure_rate,
    noise_std,
    noise_variance,
    poltyrev_sigma_sq_max,
    public_key_size_bits,
    wilson_interval,
)
from bqtru.params import HIGHEST, MODERATE, TOY, Params

from oracles import empirical_noise_variance

OVERSIZED = Params(7, 3, 547, 7, 7, 7)  # q far beyond the wrap-around guard


class TestNoiseModel:
    def test_zero_weights(self):
        z = Params(3, 3, 7, 0, 0, 0)
        assert noise_variance(z) == 0.0
        assert noise_std(z) == 0.0

    def test_moderate_value(self):
        # direct evaluation: 16*9*6*6/49 + 4*7*8/6
        expect = 16 * 9 * 36 / 49 + 28 * 8 / 6
        assert noise_variance(MODERATE) == pytest.approx(expect)
        assert noise_variance(MODERATE) == pytest.approx(143.1, abs=0.05)
        assert noise_std(MODERATE) == pytest.approx(11.96, abs=0.01)

    def test_highest_value(self):
        assert noise_variance(HIGHEST) == pytest.approx(353.7, abs=0.1)

    def test_empirical_variance_matches(self):
        emp = empirical_noise_variance(MODERATE, 2000, random.Random(100))
        model = noise_variance(MODERATE)
        assert abs(emp - model) / model < 0.10


class TestFailureEstimate:
    def test_zero_noise_limit(self):
        assert failure_probability_estimate(Params(3, 3, 7, 0, 0, 0)) == 1.0

    def test_moderate_value(self):
        est = failure_probability_estimate(MODERATE)
        assert est == pytest.approx(0.99942, abs=5e-5)

    def test_highest_close_to_one(self):
        assert failure_probability_estimate(HIGHEST) > 0.9999

    def test_monotone_in_weights_and_q(self):
        base = failure_probability_estimate(MODERATE)
        for kw in ("d_f", "d_g", "d_phi"):
            bumped = Params(7, 3, 113, **{
                "d_f": MODERATE.d_f, "d_g": MODERATE.d_g, "d_phi": MODERATE.d_phi,
                kw: getattr(MODERATE, kw) + 4,
            })
            assert failure_probability_estimate(bumped) < base
        bigger_q = Params(7, 3, 197, 7, 6, 6)
        assert failure_probability_estimate(bigger_q) > base


class TestWilson:
    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.404, abs=0.005)
        assert hi == pytest.approx(0.596, abs=0.005)

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi < 0.35
        lo, hi = wilson_interval(10, 10)
        assert lo > 0.65 and hi == 1.0
        # past the extremes there is no proportion, and the error names both values
        for successes in (5, -1):
            with pytest.raises(ValueError, match=f"got {successes} of 3"):
                wilson_interval(successes, 3)


class TestMonteCarlo:
    def test_oversized_q_never_fails(self):
        res = monte_carlo_failure_rate(OVERSIZED, 1000, random.Random(101))
        assert res.rate == 1.0
        assert res.wilson_low > 0.99

    def test_toy_fails_visibly(self):
        res = monte_carlo_failure_rate(TOY, 1000, random.Random(102))
        assert res.rate < 0.9

    def test_moderate_consistent_with_model(self):
        res = monte_carlo_failure_rate(MODERATE, 1000, random.Random(103), keys=2)
        est = failure_probability_estimate(MODERATE)
        sigma = math.sqrt(est * (1 - est) / res.trials)
        assert res.rate >= est - 3 * sigma
        assert res.wilson_low <= res.rate <= res.wilson_high

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_failure_rate(TOY, 0, random.Random(0))
        # no keypair would run no round trip at all
        for keys in (0, -1):
            with pytest.raises(ValueError, match="keypair"):
                monte_carlo_failure_rate(TOY, 3, random.Random(0), keys=keys)


class TestSecurityCounts:
    def test_message_bits_moderate(self):
        exact = comb(49, 6) ** 2 * comb(43, 6) ** 2
        assert message_security_bits(MODERATE) == pytest.approx(math.log2(exact))
        assert math.floor(message_security_bits(MODERATE)) == 92

    def test_message_bits_zero_weight(self):
        assert message_security_bits(Params(3, 3, 7, 1, 1, 0)) == 0.0

    def test_message_bits_highest_flagged(self):
        # the computed exponent lands near 221, not the published 212
        assert message_security_bits(HIGHEST) == pytest.approx(221, abs=1)

    def test_key_bits_lower_bounds(self):
        assert key_security_bits(MODERATE) > 166
        assert key_security_bits(HIGHEST) > 396

    def test_ideal_count_small_oracle(self):
        # direct summation at n=3, q=7
        expect = 6 * comb(9, 1) + 36 * comb(9, 2) + 216 * comb(9, 3)
        assert ideal_count(TOY) == expect

    def test_ideal_count_moderate_log(self):
        # dominant term 112**7 * C(49,7) contributes log2 ~ 73.99
        assert math.log2(ideal_count(MODERATE)) == pytest.approx(74.0, abs=0.1)


class TestSizesAndDims:
    def test_public_key_bits_table(self):
        assert public_key_size_bits(MODERATE) == 1372
        assert public_key_size_bits(HIGHEST) == 3872

    def test_public_key_bits_degenerate(self):
        fake = SimpleNamespace(nsq=9, q=2)
        assert public_key_size_bits(fake) == 36

    def test_expansion_moderate(self):
        acct = expansion_ratio(MODERATE)
        assert acct.base_dim == 392
        assert acct.real_dim == pytest.approx(2036, abs=1)
        assert acct.built_dim == 1764
        assert acct.real_ratio >= acct.bound

    def test_expansion_bound_across_sizes(self):
        for params in (TOY, Params(5, 3, 11, 2, 2, 2), MODERATE, HIGHEST):
            acct = expansion_ratio(params)
            assert acct.real_ratio >= 2 + math.log2(params.n)

    def test_expansion_small_n(self):
        acct = expansion_ratio(Params(2, 3, 5, 1, 1, 1))
        assert acct.real_ratio >= 3

    def test_poltyrev_exceeds_table_floor(self):
        assert poltyrev_sigma_sq_max(HIGHEST, HIGHEST.n) > 885

    def test_poltyrev_range_check(self):
        with pytest.raises(ValueError):
            poltyrev_sigma_sq_max(MODERATE, 50)


class TestReport:
    def test_stable_and_labeled(self):
        text = analysis_report(MODERATE, "moderate")
        assert text == analysis_report(MODERATE, "moderate")
        assert "public_key_bits = 1372  [reference: 1372]" in text
        assert "parameter_set = moderate" in text

    def test_toy_has_no_reference_column(self):
        assert "[reference" not in analysis_report(TOY, "toy")

    def test_every_line_is_assignment(self):
        for line in analysis_report(HIGHEST, "highest").strip().splitlines():
            assert " = " in line
