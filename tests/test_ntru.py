import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtru.errors import (
    DecryptionFailure,
    NotInvertible,
    WeightTooLarge,
)
from bqtru.ntru import (
    NtruParams,
    _cyclic_index,
    conv,
    ntru_decrypt,
    ntru_encrypt,
    ntru_keygen,
    ntru_public_key_bits,
    poly_inverse,
)
from bqtru.ring import signed_ternary

from oracles import solve_mod_prime

SMALL = NtruParams(17, 3, 103, 2)
GUARDED = NtruParams(107, 3, 659, 34)  # q > (6d+1)p = 627


def one(n):
    e0 = np.zeros(n, dtype=np.int64)
    e0[0] = 1
    return e0


def naive_conv(f, g):
    n = len(f)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[(i + j) % n] += f[i] * g[j]
    return out


class TestParams:
    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            NtruParams(11, 3, 9, 2)

    def test_weight_window(self):
        with pytest.raises(WeightTooLarge):
            NtruParams(7, 3, 101, 4)

    def test_int64_bound(self):
        # conv sums n products below (q-1)^2 in int64; at this q it wrapped
        # and returned 4294966191 in every slot instead of 5
        with pytest.raises(ValueError):
            NtruParams(5, 3, 4294967311, 1)
        q = 1358187914  # largest q with 5 * (q-1)^2 < 2^63
        NtruParams(5, 3, q, 1)
        with pytest.raises(ValueError):
            NtruParams(5, 2, q + 1, 1)
        f = np.full(5, q - 1, dtype=np.int64)
        assert np.array_equal(conv(f, f, q), np.full(5, 5))


class TestConv:
    def test_matches_naive(self):
        rng = random.Random(80)
        for _ in range(20):
            f = np.array([rng.randrange(-5, 6) for _ in range(11)])
            g = np.array([rng.randrange(-5, 6) for _ in range(11)])
            assert np.array_equal(conv(f, g), naive_conv(f, g))

    def test_circulant_row_identity(self):
        # the transposed gather h[_cyclic_index(n)].T has row r = x^r * h,
        # so vector(f) @ it = vector(f*h)
        rng = random.Random(81)
        for n in (2, 5, 7, 9, 107):
            f = np.array([rng.randrange(-2, 3) for _ in range(n)])
            h = np.array([rng.randrange(-2, 3) for _ in range(n)])
            C = h[_cyclic_index(n)].T
            assert all(np.array_equal(C[r], np.roll(h, r)) for r in range(n))
            assert np.array_equal(f @ C, conv(f, h))


class TestInverse:
    def test_prime_modulus(self):
        rng = random.Random(82)
        found = 0
        while found < 10:
            f = np.array([rng.randrange(7) for _ in range(11)])
            try:
                inv = poly_inverse(f, 7)
            except NotInvertible:
                continue
            e0 = np.zeros(11, dtype=np.int64)
            e0[0] = 1
            assert np.array_equal(conv(f, inv, 7), e0)
            found += 1

    def test_power_of_two_modulus(self):
        rng = random.Random(83)
        found = 0
        while found < 10:
            f = signed_ternary(17, 3, 2, rng)
            try:
                inv = poly_inverse(f, 128)
            except NotInvertible:
                continue
            e0 = np.zeros(17, dtype=np.int64)
            e0[0] = 1
            assert np.array_equal(conv(f, inv, 128), e0)
            found += 1

    def test_singular_rejected(self):
        # all-ones vanishes at x=1
        with pytest.raises(NotInvertible):
            poly_inverse(np.ones(5, dtype=np.int64), 7)

    @pytest.mark.parametrize("modulus", [2, 128, 2048])
    @pytest.mark.parametrize("n", [7, 8, 17, 107])
    def test_power_of_two_moduli(self, n, modulus):
        # the inverse mod 2 and its Newton lift; n = 8 is a power of 2
        rng = random.Random(n * modulus)
        found = 0
        while found < 5:
            f = np.array([rng.randrange(-1, 2) for _ in range(n)])
            try:
                inv = poly_inverse(f, modulus)
            except NotInvertible:
                continue
            assert ((0 <= inv) & (inv < modulus)).all()
            assert np.array_equal(conv(f, inv, modulus), one(n))
            found += 1
        # 1 + x vanishes at x = 1 mod 2
        with pytest.raises(NotInvertible):
            poly_inverse(one(n) + np.roll(one(n), 1), modulus)

    def test_odd_composite_modulus_refused(self):
        # 1 + x - x^4 is a unit mod 5, hence mod 25, but the unit-group
        # exponent and the Frobenius map hold mod a prime alone: refused,
        # not reported as a non-unit
        f = np.array([1, 1, 0, 0, -1] + [0] * 6)
        assert np.array_equal(conv(f, poly_inverse(f, 5), 5), one(11))
        for modulus in (25, 9, 15):
            with pytest.raises(ValueError, match="not prime"):
                poly_inverse(f, modulus)

    def test_int64_bound(self):
        # 4294967311 is prime and 5 (q-1)^2 > 2^63: conv would wrap
        with pytest.raises(ValueError, match="int64"):
            poly_inverse(one(5), 4294967311)
        q = 1358187913  # prime, 5 (q-1)^2 < 2^63
        assert np.array_equal(poly_inverse(one(5), q), one(5))
        f = one(5) * (q - 1)
        assert np.array_equal(poly_inverse(f, q), f)


class TestInverseOracle:
    """poly_inverse (unit-group powering) against the linear-solve oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(9, 3), (15, 5), (15, 3), (11, 7), (17, 3), (13, 103),
                            (7, 2), (12, 2)]),
           st.integers(0, 2**32), st.booleans())
    def test_matches_solve_mod_prime(self, nm, seed, force_nonunit):
        # m | n at (9, 3), (15, 5), (15, 3) and (12, 2): the Frobenius map
        # folds coefficients together
        n, m = nm
        rng = random.Random(seed)
        coeffs = [rng.randrange(m) for _ in range(n)]
        if force_nonunit:
            # value 0 at x = 1: the coefficients sum to 0 mod m
            coeffs[0] = (coeffs[0] - sum(coeffs)) % m
        f = np.array(coeffs)
        try:
            expect = solve_mod_prime(f[_cyclic_index(n)], one(n), m)
        except NotInvertible:
            expect = None
        if expect is None:
            with pytest.raises(NotInvertible):
                poly_inverse(f, m)
        else:
            assert np.array_equal(poly_inverse(f, m), expect)
        assert not (force_nonunit and expect is not None)


class TestScheme:
    def test_inverse_identity(self):
        rng = random.Random(84)
        h, (f, g, f_p) = ntru_keygen(SMALL, rng)
        f_q = poly_inverse(f, SMALL.q)
        e0 = np.zeros(17, dtype=np.int64)
        e0[0] = 1
        assert np.array_equal(conv(f, f_q, SMALL.q), e0)
        assert np.array_equal(conv(f, f_p, SMALL.p), e0)

    def test_h_times_f_is_g(self):
        rng = random.Random(85)
        h, (f, g, _) = ntru_keygen(SMALL, rng)
        assert np.array_equal(conv(h, f, SMALL.q), g % SMALL.q)

    def test_zero_round_trip(self):
        rng = random.Random(86)
        h, sk = ntru_keygen(SMALL, rng)
        z = np.zeros(17, dtype=np.int64)
        c = ntru_encrypt(h, z, SMALL, None, r=z)
        assert not c.any()
        assert not ntru_decrypt(sk, c, SMALL).any()

    def test_guarded_round_trips(self):
        rng = random.Random(87)
        h, sk = ntru_keygen(GUARDED, rng)
        for _ in range(1000):
            m = signed_ternary(107, 20, 20, rng)
            c = ntru_encrypt(h, m, GUARDED, rng)
            assert np.array_equal(ntru_decrypt(sk, c, GUARDED, strict=True), m)

    def test_strict_flags_garbage(self):
        rng = random.Random(89)
        h, sk = ntru_keygen(GUARDED, rng)
        flagged = 0
        for _ in range(10):
            c = np.array([rng.randrange(659) for _ in range(107)])
            try:
                ntru_decrypt(sk, c, GUARDED, strict=True)
            except DecryptionFailure:
                flagged += 1
        assert flagged >= 9


def keygen_digest(params):
    """sha256 over h, f, g and f_p for seeds 0-2, as little-endian int64."""
    digest = hashlib.sha256()
    for seed in range(3):
        h, (f, g, f_p) = ntru_keygen(params, seed)
        for a in (h, f, g, f_p):
            digest.update(a.astype("<i8").tobytes())
    return digest.hexdigest()


class TestGolden:
    """Keys are those of the Gauss-Jordan inverse: inverses are unique, and
    the same f fail, so keygen retries in the same order."""

    @pytest.mark.parametrize("params, digest", [
        (SMALL, "545370a794ace929967c05b0eac29b2bd13ed0ea16504e348fad1380f7f7bcb7"),
        (GUARDED, "c35bf915bb91c80150ef5a6155a128b501525dbdcaba3c69f916ea654d9ce371"),
    ])
    def test_keys_unchanged(self, params, digest):
        assert keygen_digest(params) == digest


class TestSizing:
    def test_table_value(self):
        assert ntru_public_key_bits(NtruParams(167, 3, 128, 3)) == 1169
