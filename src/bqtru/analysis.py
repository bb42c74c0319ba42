"""Quantitative analysis of the quaternion scheme.

Noise model and decryption-failure probability, brute-force security
exponents, key sizes, lattice dimension accounting, and the fold map down
to a univariate convolution ring.  Everything here is a pure calculator
except the Monte-Carlo estimator, which runs real round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .lattice import poltyrev_sigma_max
from .params import Params
from .ring import RingElem, as_rng
from .scheme import decrypt, encrypt, keygen, random_message


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def noise_variance(params: Params) -> float:
    """Per-coefficient variance of the decryption mask p*(G o Phi) + F o M.

    The blinding part contributes 16 p^2 d_phi d_g / n^2 (four convolution
    cross terms, each a sum of 4 d_phi d_g / n^2 matched +-1 products scaled
    by p); the message part contributes 4 d_f (p^2 - 1) / 6 from the four
    ternary-times-uniform-digit convolutions.
    """
    n, p = params.n, params.p
    blind = 16 * p * p * params.d_phi * params.d_g / (n * n)
    msg = 4 * params.d_f * (p * p - 1) / 6
    return blind + msg


def noise_std(params: Params) -> float:
    return math.sqrt(noise_variance(params))


def failure_probability_estimate(params: Params) -> float:
    """Probability that all 4n^2 mask coefficients stay below q/2 in size.

    Models each coefficient as a centered Gaussian with the model variance
    and multiplies the per-coefficient probability erf(z/sqrt(2)) with
    z = (q-1)/(2 theta) over all 4n^2 slots.
    """
    theta = noise_std(params)
    if theta == 0:
        return 1.0
    z = (params.q - 1) / (2 * theta)
    per_coeff = math.erf(z / math.sqrt(2))
    return per_coeff ** (4 * params.n * params.n)


@dataclass(frozen=True)
class MonteCarloResult:
    successes: int
    trials: int
    rate: float
    wilson_low: float
    wilson_high: float


def wilson_interval(successes: int, trials: int, z: float = 1.959963985) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def monte_carlo_failure_rate(params: Params, trials: int, rng,
                             keys: int = 1) -> MonteCarloResult:
    """Observed round-trip success rate over fresh random messages.

    Trials are split evenly over `keys` independent keypairs so a single
    unlucky key cannot dominate the estimate.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = as_rng(rng)
    per_key = [trials // keys + (1 if k < trials % keys else 0) for k in range(keys)]
    successes = 0
    for count in per_key:
        if count == 0:
            continue
        pk, sk = keygen(params, rng)
        for _ in range(count):
            M = random_message(params, rng)
            successes += decrypt(sk, encrypt(pk, M, rng)) == M
    lo, hi = wilson_interval(successes, trials)
    return MonteCarloResult(successes, trials, successes / trials, lo, hi)


# ---------------------------------------------------------------------------
# search-space exponents and key sizes
# ---------------------------------------------------------------------------

def ideal_count(params: Params) -> int:
    """Size of the brute-force search space for the secret grid subset:
    sum over sizes i = 1..n of (q-1)^i nonzero-weight choices times the
    C(n^2, i) subset choices."""
    nsq, q = params.nsq, params.q
    return sum((q - 1) ** i * comb(nsq, i) for i in range(1, params.n + 1))


def message_security_bits(params: Params) -> float:
    """log2 of the blinding-quaternion search space C(n^2,d)^2 C(n^2-d,d)^2."""
    nsq, d = params.nsq, params.d_phi
    return math.log2(comb(nsq, d) ** 2 * comb(nsq - d, d) ** 2)


def key_security_bits(params: Params) -> float:
    """log2 lower bound on the private-key search space: the ternary G
    choices times the secret-subset count (the quaternion-unit factor is
    lower-bounded by 1)."""
    nsq, d = params.nsq, params.d_g
    space = comb(nsq, d) ** 2 * comb(nsq - d, d) ** 2 * ideal_count(params)
    return math.log2(space)


def public_key_size_bits(params: Params) -> int:
    """4 n^2 ceil(log2 q) bits for the packed public quaternion."""
    return 4 * params.nsq * (params.q - 1).bit_length()


# ---------------------------------------------------------------------------
# lattice dimension accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionAccount:
    """Dimension bookkeeping for the Euclideanized key-recovery lattice."""
    base_dim: int        # the 8 n^2 rows a plain two-polynomial lattice needs
    real_dim: float      # 12 n^2 + 4 n^2 log2(3.4 n^2 + 1), real-valued log
    real_ratio: float
    built_dim: int       # (4 floor(log2 q) + 12) n^2 for the concrete q
    bound: float         # 2 + log2 n


def expansion_ratio(params: Params) -> ExpansionAccount:
    """The dimensions and their ratio to the base.  real_ratio - bound is
    log2(3.4 + 1/n^2) / 2 - 1/2 >= 0.38, so real_ratio exceeds the bound
    for every n."""
    n, q = params.n, params.q
    nsq = n * n
    base = 8 * nsq
    real_dim = 12 * nsq + 4 * nsq * math.log2(3.4 * nsq + 1)
    return ExpansionAccount(
        base_dim=base,
        real_dim=real_dim,
        real_ratio=real_dim / base,
        built_dim=(4 * int(math.log2(q)) + 12) * nsq,
        bound=2 + math.log2(n),
    )


def poltyrev_sigma_sq_max(params: Params, t_size: int) -> float:
    """Largest decodable per-coordinate noise variance for the secret-subset
    lattice with |T| = t_size grid points (volume q^(n^2 - |T|))."""
    if not 0 <= t_size <= params.nsq:
        raise ValueError("t_size out of range")
    return poltyrev_sigma_max(params.q ** (params.nsq - t_size), params.nsq)


# ---------------------------------------------------------------------------
# fold to a univariate convolution ring
# ---------------------------------------------------------------------------

def fold_to_univariate(f: RingElem, r: int, s: int) -> np.ndarray:
    """Image of f under x -> t^r, y -> t^s into Z[t]/(t^n - 1).

    A ring homomorphism for every choice of exponents: cyclic convolution
    in two variables maps to cyclic convolution in one.
    """
    n = f.n
    if not (0 <= r < n and 0 <= s < n):
        raise ValueError("fold exponents must lie in [0, n)")
    idx = np.arange(n * n)
    target = (r * (idx // n) + s * (idx % n)) % n
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, target, f.coeffs)
    return out % f.modulus if f.modulus is not None else out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# Published reference values, keyed by (n, q).  message/key security are
# exponents of 2; entries that disagree with the formulas above are shown
# for comparison only.
PUBLISHED_FIGURES = {
    (7, 113): {
        "public_key_bits": "1372",
        "message_security_bits": "92",
        "key_security_bits": ">166",
        "success_probability": "0.9985784846",
    },
    (11, 199): {
        "public_key_bits": "3872",
        "message_security_bits": "212",
        "key_security_bits": ">396",
        "success_probability": "0.9999995349",
    },
}


def analysis_report(params: Params, label: str = "") -> str:
    """Plain-text report, one `name = value` per line, stable ordering.

    Where a published reference value exists it is appended in brackets.
    """
    ref = PUBLISHED_FIGURES.get((params.n, params.q), {})

    def fmt(name: str, value) -> str:
        line = f"{name} = {value}"
        if name in ref:
            line += f"  [reference: {ref[name]}]"
        return line

    acct = expansion_ratio(params)
    lines = [
        f"parameter_set = {label or 'custom'}",
        f"n = {params.n}",
        f"p = {params.p}",
        f"q = {params.q}",
        f"d_f = {params.d_f}",
        f"d_g = {params.d_g}",
        f"d_phi = {params.d_phi}",
        fmt("public_key_bits", public_key_size_bits(params)),
        f"noise_variance = {noise_variance(params):.4f}",
        f"noise_std = {noise_std(params):.4f}",
        fmt("success_probability", f"{failure_probability_estimate(params):.10f}"),
        fmt("message_security_bits", f"{message_security_bits(params):.2f}"),
        fmt("key_security_bits", f"{key_security_bits(params):.2f}"),
        f"secret_subset_search_log2 = {math.log2(ideal_count(params)):.2f}",
        f"lattice_dim_base = {acct.base_dim}",
        f"lattice_dim_expanded_real = {acct.real_dim:.1f}",
        f"lattice_dim_expanded_built = {acct.built_dim}",
        f"expansion_ratio = {acct.real_ratio:.4f}",
        f"expansion_ratio_bound = {acct.bound:.4f}",
        f"poltyrev_sigma_sq_max = {poltyrev_sigma_sq_max(params, params.n):.4f}",
    ]
    return "\n".join(lines) + "\n"
