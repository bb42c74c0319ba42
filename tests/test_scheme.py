import dataclasses
import functools
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqtru
import bqtru.lattice as lattice
import bqtru.quat as quat
import bqtru.ring as ring
import bqtru.scheme as scheme
from bqtru.cli import main as cli_main
from bqtru.errors import (
    BqtruError,
    ContextMismatch,
    DecryptionFailure,
    MalformedData,
    MessageOutOfRange,
    PayloadTooLarge,
    RetriesExhausted,
    WeightTooLarge,
)
from bqtru.ideal import derive_T
from bqtru.lattice import lll_reduce
from bqtru.params import HIGHEST, MODERATE, PARAM_SETS, TOY, Params
from bqtru.quat import Quaternion, quat_inverse_mod_p, quat_mul_schoolbook
from bqtru.ring import (
    CONV_COUNTER,
    EvalDomain,
    centered,
    signed_ternary,
)
from bqtru.scheme import (
    Ciphertext,
    decode_message,
    decrypt,
    deserialize_ct,
    deserialize_private,
    deserialize_public,
    encode_message,
    encrypt,
    keygen,
    message_capacity,
    random_message,
    serialize_ct,
    serialize_private,
    serialize_public,
)

from oracles import (
    build_D_prime,
    coset_scan,
    grid_points,
    is_zero,
    lagrange_rows,
    loop_decode_message,
    loop_encode_message,
    paper_decrypt,
    paper_keygen,
    percent_dump,
    quat_add,
    quat_from_vector,
    quat_one,
    quat_scale,
    quat_sub,
    rho_gamma,
    rho_mul_rows,
    sphere_decode,
    verify_key_membership,
)

# oversized q beyond the 24*d*p guard: decryption noise can never wrap mod q
HIGH_Q = Params(7, 3, 547, 7, 7, 7)


@pytest.fixture(scope="module")
def toy_key():
    return keygen(TOY, 60)


@pytest.fixture(scope="module")
def moderate_key():
    return keygen(MODERATE, 61)


class TestSampleTernary:
    """The scheme's ternary draws: d ones and d minus-ones in n^2 slots."""

    def test_zero_weight(self):
        assert is_zero(signed_ternary(9, 0, 0, random.Random(0)))

    def test_counts(self):
        f = signed_ternary(49, 7, 7, random.Random(1))
        vals, counts = np.unique(f, return_counts=True)
        assert dict(zip(vals.tolist(), counts.tolist())) == {-1: 7, 0: 35, 1: 7}

    def test_weight_too_large(self):
        with pytest.raises(WeightTooLarge):
            signed_ternary(9, 5, 5, random.Random(2))

    def test_mean_and_spread(self):
        rng = random.Random(3)
        total = np.zeros(49, dtype=np.int64)
        hit = np.zeros(49, dtype=np.int64)
        for _ in range(10_000):
            f = signed_ternary(49, 7, 7, rng)
            total += f
            hit += f != 0
        assert abs(total.sum()) / 10_000 < 0.05
        # each slot is nonzero with probability 14/49
        assert np.allclose(hit / 10_000, 14 / 49, atol=0.02)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), size=st.integers(1, 3000), data=st.data())
    def test_slots_are_random_sample(self, seed, size, data):
        # pick for pick as random.Random.sample, and the same state after
        k = data.draw(st.integers(0, size))
        ours, ref = random.Random(seed), random.Random(seed)
        assert ring._sample_slots(size, k, ours) == ref.sample(range(size), k)
        assert ours.getrandbits(32) == ref.getrandbits(32)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), size=st.integers(22, 3000), k=st.integers(0, 5))
    def test_slots_are_random_sample_in_the_set_regime(self, seed, size, k):
        # few picks from a larger pool: sample rejects repeats from a set
        ours, ref = random.Random(seed), random.Random(seed)
        assert ring._sample_slots(size, k, ours) == ref.sample(range(size), k)
        assert ours.getrandbits(32) == ref.getrandbits(32)

    def test_rows_are_drawn_in_order(self):
        # one call for a key's four rows draws what four one-row calls draw
        ours, ref = random.Random(4), random.Random(4)
        rows = signed_ternary(49, [8, 7, 7, 7], [7] * 4, ours)
        assert np.array_equal(rows, [signed_ternary(49, up, 7, ref) for up in (8, 7, 7, 7)])
        assert ours.getrandbits(32) == ref.getrandbits(32)
        # every row's weight is checked before the first draw
        rng = random.Random(4)
        with pytest.raises(WeightTooLarge):
            signed_ternary(9, [1, 5], [1, 5], rng)
        assert rng.getstate() == random.Random(4).getstate()


class TestKeygen:
    def test_public_residual_vanishes_off_T(self, toy_key):
        pk, sk = toy_key
        dom = EvalDomain(3, 7)
        resid = quat_sub(quat_mul_schoolbook(sk.F.with_modulus(7), pk.H), sk.G.with_modulus(7))
        vals = dom.transform(resid.rows)
        # every point but (1,1), grid index 0
        assert not vals[:, 1:].any()

    def test_rho_gamma_identity(self, moderate_key):
        # rho(F o H) = rho(G) + rho(gamma) pointwise
        pk, sk = moderate_key
        dom = EvalDomain(7, 113)
        lhs = dom.transform(quat_mul_schoolbook(sk.F.with_modulus(113), pk.H).rows)
        rhs = (dom.transform(sk.G.rows) + rho_gamma(sk)) % 113
        assert np.array_equal(lhs, rhs)

    def test_theta_support(self, moderate_key):
        pk, sk = moderate_key
        # gamma is supported on T = {(1,1)}: weight times W, carried through F
        assert not rho_gamma(sk)[:, 1:].any()
        assert rho_gamma(sk)[:, 0].all()

    def test_membership_identity(self, moderate_key):
        pk, sk = moderate_key
        assert verify_key_membership(sk, pk, EvalDomain(7, 113), rho_gamma(sk))

    def test_membership_many_toy_keys(self):
        rng = random.Random(62)
        dom = EvalDomain(3, 7)
        for _ in range(100):
            pk, sk = keygen(TOY, rng)
            assert verify_key_membership(sk, pk, dom, rho_gamma(sk))

    def test_f_inverse_mod_p(self, moderate_key):
        _, sk = moderate_key
        prod = quat_mul_schoolbook(sk.F.with_modulus(3), sk.F_p_inv)
        assert prod == quat_one(7, 3)

    def test_F_weight_convention(self, moderate_key):
        _, sk = moderate_key
        c0 = sk.F.rows[0]
        assert (c0 == 1).sum() == 8 and (c0 == -1).sum() == 7
        for c in sk.F.rows[1:]:
            assert (c == 1).sum() == 7 and (c == -1).sum() == 7

    @pytest.mark.parametrize("params", [MODERATE, HIGHEST], ids=["moderate", "highest"])
    def test_public_key_gives_theta_away(self, params):
        # T = {(1,1)} and G(1,1) = 0, so H(1,1) = theta(1,1) and theta is
        # H_i(1,1) * (n^2)^-1 times the all-ones polynomial in each
        # component: H - theta_hat is the plain NTRU key F^-1 o G mod q
        n, q = params.n, params.q
        ones = np.ones(params.nsq, dtype=np.int64)
        for seed in range(5):
            pk, sk = keygen(params, seed)
            theta_hat = Quaternion([ones * (int(c.sum()) * pow(n * n, -1, q)) for c in pk.H.rows],
                                   q)
            H0 = quat_sub(pk.H, theta_hat)
            assert quat_mul_schoolbook(sk.F.with_modulus(q), H0) == sk.G.with_modulus(q)

    def test_T_window(self, moderate_key):
        # G vanishes at (1,1), grid index 0, alone
        _, sk = moderate_key
        assert derive_T(EvalDomain(7, 113).transform(sk.G.rows)) == [0]

    def test_retries_exhausted(self, monkeypatch):
        monkeypatch.setattr(scheme, "MAX_G_DRAWS", 0)
        with pytest.raises(RetriesExhausted):
            keygen(TOY, 0)

    def test_one_mod_p_solve_per_usable_F(self, monkeypatch):
        # N(F)^-1 mod p is computed once per F candidate whose norm
        # vanishes only inside T -- never a second time for the accepted
        # F -- and a private-key load, which derives the key again, makes
        # the same draws
        inverses, usable, current_T = [], [], []
        dom = EvalDomain(7, 113)
        real_inverse, real_derive_T, real_norm = (
            quat.ring_inverse, scheme.derive_T, scheme.quat_norm)

        def ring_inverse(f, m):
            inverses.append(m)
            return real_inverse(f, m)

        def derive_T(rho_G):
            current_T[:] = real_derive_T(rho_G)
            return list(current_T)

        def quat_norm(F):
            N = real_norm(F)
            if F.modulus == 113:
                vals = dom.transform(N[None])[0]
                usable.append(all(vals[k] for k in range(49) if k not in current_T))
            return N

        monkeypatch.setattr(quat, "ring_inverse", ring_inverse)
        monkeypatch.setattr(scheme, "derive_T", derive_T)
        monkeypatch.setattr(scheme, "quat_norm", quat_norm)
        _, sk = keygen(MODERATE, 63)
        drawn = sum(usable)
        assert drawn >= 1
        assert inverses == [3] * drawn
        inverses.clear()
        usable.clear()
        deserialize_private(serialize_private(sk))
        assert sum(usable) == drawn and inverses == [3] * drawn

    def test_no_mod_q_quaternion_product(self, monkeypatch):
        # keygen runs no mod-q convolution: N(F) per F draw and H are
        # pointwise products on the evaluation grid
        mod_q_convs, norms = [], []
        real_conv, real_norm = quat.conv_mul, scheme.quat_norm

        def conv_mul(f, g, m=None):
            mod_q_convs.append(m == 113)
            return real_conv(f, g, m)

        def quat_norm(F):
            norms.append(F.modulus == 113)
            return real_norm(F)

        def refuse(*_):
            raise AssertionError("keygen ran a quaternion product")

        monkeypatch.setattr(quat, "conv_mul", conv_mul)
        monkeypatch.setattr(scheme, "quat_norm", quat_norm)
        for name in ("quat_mul_schoolbook", "quat_mul_strassen"):
            monkeypatch.setattr(scheme, name, refuse)
        pk, sk = keygen(MODERATE, 63)
        assert sum(norms) >= 1
        assert sum(mod_q_convs) == 0
        assert verify_key_membership(sk, pk, EvalDomain(7, 113), rho_gamma(sk))

    def test_unscannable_q_fails_before_drawing_G(self, monkeypatch):
        # q > MAX_Q: a key file could not spell the key's residues
        def derive_T(*_):
            raise AssertionError("keygen drew a G")

        monkeypatch.setattr(scheme, "derive_T", derive_T)
        with pytest.raises(RetriesExhausted, match=r"key files hold residues below 2\^16"):
            keygen(Params(3, 3, 65539, 1, 1, 1), 0)

    def test_toy_keys_have_the_one_secret_point(self):
        # every key vanishes at (1,1) alone.  The paper's construction
        # makes the same draws but admits any scannable secret set; it
        # agrees with keygen on every seed but toy's 66, 100 and 255 of
        # 0-299, where it admitted |T| = 3 and keygen draws another G
        changed = []
        for params, seeds in ((TOY, range(300)), (MODERATE, range(20)), (HIGHEST, range(5))):
            dom = EvalDomain(params.n, params.q)
            for seed in seeds:
                pk, sk = keygen(params, seed)
                assert derive_T(dom.transform(sk.G.rows)) == [0]
                ref = paper_keygen(params, seed)
                if not (ref.T == (0,) and ref.weights == (sk.weight,) and ref.W == sk.W
                        and ref.F == sk.F and ref.G == sk.G and ref.H == pk.H):
                    changed.append((params.n, seed, len(ref.T)))
        assert changed == [(3, 66, 3), (3, 100, 3), (3, 255, 3)]


def zeros(n):
    """The zero message or blinding at n: a (4, n^2) int64 array."""
    return np.zeros((4, n * n), dtype=np.int64)


class TestEncrypt:
    def test_zero_phi_hook(self, moderate_key):
        pk, _ = moderate_key
        M = random_message(MODERATE, random.Random(63))
        ct = encrypt(pk, M, None, phi=zeros(7))
        assert np.array_equal(ct.C, M % 113)

    def test_all_zero(self, moderate_key):
        pk, _ = moderate_key
        ct = encrypt(pk, zeros(7), None, phi=zeros(7))
        assert is_zero(ct.C)

    def test_message_out_of_range(self, moderate_key):
        pk, _ = moderate_key
        bad = quat_scale(quat_one(7), 2).rows
        with pytest.raises(MessageOutOfRange):
            encrypt(pk, bad, random.Random(0))

    def test_no_convolution(self, moderate_key):
        # H o Phi mod q is a pointwise product on the evaluation grid
        pk, _ = moderate_key
        rng = random.Random(69)
        M = random_message(MODERATE, rng)
        before = CONV_COUNTER.count
        encrypt(pk, M, rng)
        assert CONV_COUNTER.count == before

    def test_cached_evaluation_arrays(self, moderate_key):
        pk, sk = moderate_key
        dom = EvalDomain(7, 113)
        assert np.array_equal(pk.rho_H, dom.transform(pk.H.rows))
        assert np.array_equal(sk.rho_F, dom.transform(sk.F.with_modulus(113).rows))
        assert pk.rho_H is pk.rho_H and sk.rho_F is sk.rho_F

    def test_strassen_schoolbook_agree(self, moderate_key):
        pk, _ = moderate_key
        rng = random.Random(64)
        M = random_message(MODERATE, rng)
        phi = Quaternion([signed_ternary(49, 6, 6, rng) for _ in range(4)])
        ct = encrypt(pk, M, None, phi=phi.rows)
        direct = quat_add(quat_scale(quat_mul_schoolbook(pk.H, phi.with_modulus(113)), 3),
                          quat_from_vector(M, 7, 113))
        assert np.array_equal(ct.C, direct.rows)


@functools.lru_cache(maxsize=None)
def set_key(params):
    return keygen(params, 66)


@st.composite
def ring_rows(draw, n, lo, hi):
    """A (4, n^2) int64 array with entries in [lo, hi], one row per component."""
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=4 * n * n,
                                  max_size=4 * n * n)), dtype=np.int64).reshape(4, n * n)


class TestEncryptAgainstSchoolbook:
    """The one-pass encrypt gives p * H o (Phi mod q) + M mod q by the
    schoolbook product, and checks its inputs itself."""

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_given_phi(self, params, data):
        pk, _ = set_key(params)
        n, p, q, half = params.n, params.p, params.q, (params.p - 1) // 2
        M = data.draw(ring_rows(n, -half, half))
        phi = data.draw(ring_rows(n, -2 * q, 2 * q))
        ct = encrypt(pk, M, None, phi=phi)
        direct = quat_add(quat_scale(quat_mul_schoolbook(pk.H, quat_from_vector(phi, n, q)), p),
                          quat_from_vector(M, n, q))
        assert np.array_equal(ct.C, direct.rows) and ct.q == q
        assert ct.C.dtype == np.int64

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), data=st.data())
    def test_drawn_phi(self, params, seed, data):
        # a drawn Phi is four signed_ternary rows from the caller's rng, in order
        pk, _ = set_key(params)
        half, d = (params.p - 1) // 2, params.d_phi
        M = data.draw(ring_rows(params.n, -half, half))
        rng = random.Random(seed)
        phi = np.array([signed_ternary(params.nsq, d, d, rng) for _ in range(4)])
        ct = encrypt(pk, M, random.Random(seed))
        assert np.array_equal(ct.C, encrypt(pk, M, None, phi=phi).C)

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    def test_other_n_raises_context_mismatch(self, params):
        pk, _ = set_key(params)
        n = params.n
        M, other_M = zeros(n), quat_one(n + 1).rows
        other_phi = np.array([signed_ternary((n + 1) ** 2, 1, 1, random.Random(2))
                              for _ in range(4)])
        with pytest.raises(ContextMismatch):
            encrypt(pk, other_M, random.Random(3))
        with pytest.raises(ContextMismatch):
            encrypt(pk, other_M, None, phi=zeros(n))
        with pytest.raises(ContextMismatch):
            encrypt(pk, M, None, phi=other_phi)

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    def test_wrong_shape_raises_context_mismatch(self, params):
        # the rows flattened, transposed, or one short: a typed error, not
        # an IndexError or ValueError from the array arithmetic
        pk, _ = set_key(params)
        M = random_message(params, random.Random(5))
        for bad in (M.reshape(-1), M.T, M[:3], M[None], np.int64(0),
                    quat_from_vector(M, params.n)):
            with pytest.raises(ContextMismatch):
                encrypt(pk, bad, random.Random(6))
            with pytest.raises(ContextMismatch):
                encrypt(pk, M, None, phi=bad)

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    @pytest.mark.parametrize("modulus", ["p", "q"])
    def test_message_with_modulus_out_of_range(self, params, modulus):
        # -1 given as its residue mod p or mod q, not as its centered value
        pk, _ = set_key(params)
        M = zeros(params.n)
        M[0, 0] = (params.p if modulus == "p" else params.q) - 1
        with pytest.raises(MessageOutOfRange):
            encrypt(pk, M, random.Random(4))
        with pytest.raises(MessageOutOfRange):
            encrypt(pk, M, None, phi=zeros(params.n))

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    def test_non_signed_integer_inputs_raise(self, params):
        # a message: MessageOutOfRange; a given blinding: ContextMismatch.
        # Unsigned input is refused too: uint64 with int64 promotes to float64
        pk, _ = set_key(params)
        z = zeros(params.n)
        for bad in (z + 0.5, z.astype(object), z > 0, z.astype(np.uint64), z.astype(np.uint8)):
            with pytest.raises(MessageOutOfRange):
                encrypt(pk, bad, random.Random(7))
            with pytest.raises(ContextMismatch):
                encrypt(pk, zeros(params.n), None, phi=bad)


class TestKeyTensors:
    """Each key applies its cached left-multiplication tensor of rho(H) or
    rho(F): it equals rho_mul and the row formula, and is built once."""

    @settings(max_examples=30, deadline=None)
    @given(params=st.sampled_from([TOY, MODERATE, HIGHEST]), data=st.data())
    def test_cached_tensor_matches_rho_mul(self, params, data):
        pk, sk = set_key(params)
        q = params.q
        # entries negative and >= q; rho_apply takes its operand reduced
        v = data.draw(ring_rows(params.n, -3 * q, 3 * q))
        for left, u in ((pk.left_H, pk.rho_H), (sk.left_F, sk.rho_F)):
            got = quat.rho_apply(left, v % q, q)
            assert np.array_equal(got, quat.rho_mul(u, v, q))
            assert np.array_equal(got, rho_mul_rows(u, v, q))

    def test_each_key_builds_its_tensor_once(self, monkeypatch):
        pk, sk = keygen(MODERATE, 70)
        built, applied = [], []
        left_tensor, apply = scheme.rho_left_tensor, scheme.rho_apply
        monkeypatch.setattr(scheme, "rho_left_tensor",
                            lambda u, q: built.append(u) or left_tensor(u, q))
        monkeypatch.setattr(scheme, "rho_apply",
                            lambda left, v, q: applied.append(left) or apply(left, v, q))
        rng = random.Random(71)
        cts = [encrypt(pk, encode_message(b"twice", MODERATE), rng) for _ in range(2)]
        assert [decode_message(decrypt(sk, ct), MODERATE) for ct in cts] == [b"twice"] * 2
        assert len(built) == 2
        assert applied[0] is applied[1] is pk.left_H
        assert applied[2] is applied[3] is sk.left_F


class TestDecrypt:
    def test_zero_round_trip_toy(self, toy_key):
        pk, sk = toy_key
        ct = encrypt(pk, zeros(3), None, phi=zeros(3))
        assert is_zero(decrypt(sk, ct))

    def test_round_trips_moderate(self, moderate_key):
        pk, sk = moderate_key
        rng = random.Random(65)
        ok = 0
        for _ in range(100):
            M = random_message(MODERATE, rng)
            ok += np.array_equal(decrypt(sk, encrypt(pk, M, rng)), M)
        assert ok >= 99

    def test_convolution_count(self, moderate_key):
        # F o C mod q is pointwise on the grid (no convolution), F_p^-1 o V
        # mod p takes the 7-product route, and the strict check F o M_hat
        # is over Z and stays schoolbook (16)
        pk, sk = moderate_key
        rng = random.Random(68)
        M = random_message(MODERATE, rng)
        ct = encrypt(pk, M, rng)
        for strict, convs in ((False, 7), (True, 23)):
            before = CONV_COUNTER.count
            assert np.array_equal(decrypt(sk, ct, strict=strict), M)
            assert CONV_COUNTER.count - before == convs

    def test_oversized_q_never_fails(self):
        assert HIGH_Q.q > 24 * 7 * 3
        rng = random.Random(66)
        pk, sk = keygen(HIGH_Q, rng)
        for _ in range(100):
            M = random_message(HIGH_Q, rng)
            assert np.array_equal(decrypt(sk, encrypt(pk, M, rng)), M)

    def test_strict_mode_flags_noise_overflow(self, toy_key):
        # toy parameters overflow q/2 almost surely; the zero-sum property
        # of the blinding residual catches nearly all of those wrecks
        pk, sk = toy_key
        rng = random.Random(67)
        flagged = 0
        for _ in range(50):
            M = random_message(TOY, rng)
            ct = encrypt(pk, M, rng)
            try:
                decrypt(sk, ct, strict=True)
            except DecryptionFailure:
                flagged += 1
        assert flagged >= 45

    def test_strict_mode_flags_garbage_ciphertext(self, moderate_key):
        _, sk = moderate_key
        rng = random.Random(75)
        for _ in range(3):
            C = np.array([[rng.randrange(113) for _ in range(49)] for _ in range(4)])
            with pytest.raises(DecryptionFailure):
                decrypt(sk, Ciphertext(C, 113), strict=True)

    def test_strict_mode_no_false_positives(self, moderate_key):
        pk, sk = moderate_key
        rng = random.Random(73)
        good = 0
        for _ in range(50):
            M = random_message(MODERATE, rng)
            try:
                good += np.array_equal(decrypt(sk, encrypt(pk, M, rng), strict=True), M)
            except DecryptionFailure:
                pass
        assert good >= 49

    @pytest.mark.parametrize("params", [TOY, MODERATE, HIGHEST], ids=lambda P: f"n{P.n}")
    @pytest.mark.parametrize("strict", [False, True])
    def test_returns_centered_int64_rows(self, params, strict):
        pk, sk = set_key(params)
        rng = random.Random(74)
        half = (params.p - 1) // 2
        for _ in range(5):
            ct = encrypt(pk, random_message(params, rng), rng)
            try:
                M_hat = decrypt(sk, ct, strict=strict)
            except DecryptionFailure:
                continue
            assert M_hat.dtype == np.int64 and M_hat.shape == (4, params.nsq)
            assert M_hat.min() >= -half and M_hat.max() <= half

    def test_wrong_shape_or_modulus_raises_context_mismatch(self, moderate_key):
        # a typed error, not an IndexError or ValueError from the arithmetic
        pk, sk = moderate_key
        C = encrypt(pk, random_message(MODERATE, 0), 1).C
        for bad in (Ciphertext(C.reshape(-1), 113), Ciphertext(C.T, 113),
                    Ciphertext(C[:3], 113), Ciphertext(np.zeros((4, 121), np.int64), 113),
                    Ciphertext(C, 199), Ciphertext(np.int64(0), 113)):
            for strict in (False, True):
                with pytest.raises(ContextMismatch):
                    decrypt(sk, bad, strict=strict)


def replace_field(text, label, values):
    """text with the values of field `label` replaced."""
    lines = [f"{label}: {values}" if line.split(":")[0] == label else line
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


def field_values(text, label):
    return next(line.split(":", 1)[1].split() for line in text.splitlines()
                if line.split(":")[0] == label)


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")


def respellings(v):
    """Other spellings that Python's int() reads as the integer v: a
    leading zero, an underscore, non-ASCII digits, a '+' sign, and -0."""
    sign, digits = ("-", v[1:]) if v.startswith("-") else ("", v)
    under = digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits
    out = [sign + "0" + digits, sign + under, sign + digits.translate(_ARABIC_INDIC)]
    if not sign:
        out.append("+" + digits)
    if digits == "0":
        out.append("-0")
    assert all(int(s) == int(v) for s in out)
    return out


def _join(lines, end="\n"):
    return end.join(lines) + end


def _with_line(lines, i, line):
    return _join(lines[:i] + [line] + lines[i + 1:])


# other spellings of a whole file, made from its lines without their line
# ends: the magic line, the header line, then one line per field
WHOLE_FILE_RESPELLINGS = {
    "blank line first": lambda ls: _join([""] + ls),
    "blank line between fields": lambda ls: _join(ls[:3] + [""] + ls[3:]),
    "blank line last": lambda ls: _join(ls + [""]),
    "CRLF line ends": lambda ls: _join(ls, "\r\n"),
    "no final newline": lambda ls: "\n".join(ls),
    "trailing space": lambda ls: _with_line(ls, len(ls) - 1, ls[-1] + " "),
    "two spaces between integers": lambda ls: _with_line(ls, 2, "  ".join(ls[2].rsplit(" ", 1))),
    "tab between integers": lambda ls: _with_line(ls, 2, "\t".join(ls[2].rsplit(" ", 1))),
    "label:values": lambda ls: _with_line(ls, 2, ls[2].replace(": ", ":", 1)),
    "label : values": lambda ls: _with_line(ls, 2, ls[2].replace(": ", " : ", 1)),
    "two fields swapped": lambda ls: _join(ls[:2] + [ls[3], ls[2]] + ls[4:]),
    "two header keys swapped": lambda ls: _with_line(
        ls, 1, " ".join(ls[1].split()[1::-1] + ls[1].split()[2:])),
}


@pytest.fixture(scope="module")
def honest_files(toy_key, moderate_key):
    """{(parameter set, kind): (text, loader, writer)} for a keypair at
    toy and at moderate and a ciphertext under each."""
    files = {}
    for name, (pk, sk) in (("toy", toy_key), ("moderate", moderate_key)):
        ct = encrypt(pk, random_message(pk.params, 0), 1)
        files[name, "public"] = serialize_public(pk), deserialize_public, serialize_public
        files[name, "private"] = serialize_private(sk), deserialize_private, serialize_private
        files[name, "ct"] = serialize_ct(ct), deserialize_ct, serialize_ct
    return files


def reduced_D_prime(params, T):
    """LLL-reduced basis of the secret lattice D' of the secret set T (reference path)."""
    dom = EvalDomain(params.n, params.q)
    return lll_reduce(build_D_prime(T, dom).rows.astype(np.int64))


def lagrange_gens(params, T):
    """The Lagrange rows of the points of T, the generators of D' mod q."""
    dom = EvalDomain(params.n, params.q)
    points = grid_points(dom)
    return lagrange_rows(dom, [points[t] for t in T])


def forbid_basis_of_D_prime(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the coset scan needs no basis of D'")

    # the D' basis and the sphere decoder live in the test oracles, out of
    # reach of the library; LLL is the one basis routine it still has
    monkeypatch.setattr(lattice, "lll_reduce", forbidden)


class TestDecryptPaths:
    def test_honest_key_never_builds_D_prime(self, moderate_key, monkeypatch):
        pk, sk = moderate_key
        forbid_basis_of_D_prime(monkeypatch)
        rng = random.Random(76)
        sk2 = deserialize_private(serialize_private(sk))
        M = random_message(MODERATE, rng)
        assert np.array_equal(decrypt(sk2, encrypt(pk, M, rng), strict=True), M)

    def test_two_point_key_decrypts_through_coset_scan(self, moderate_key):
        # the paper's decryption with a second secret point, (1,1) and
        # grid index 30: the oracle scans the q^2 cosets, recovers M from
        # honest ciphertexts as decrypt does, and agrees with the sphere
        # decoder over the same D'
        pk, sk = moderate_key
        T = (0, 30)
        ref_basis, gens = reduced_D_prime(MODERATE, T), lagrange_gens(MODERATE, T)
        rng = random.Random(79)
        for _ in range(5):
            M = random_message(MODERATE, rng)
            ct = encrypt(pk, M, rng)
            assert np.array_equal(paper_decrypt(sk, T, ct.C), M)
            assert np.array_equal(paper_decrypt(sk, (0,), ct.C), decrypt(sk, ct))
            A = quat_mul_schoolbook(sk.F.with_modulus(MODERATE.q),
                                    quat_from_vector(ct.C, MODERATE.n, MODERATE.q))
            for comp in A.rows:
                ref = sphere_decode(ref_basis, comp.astype(np.float64), max_nodes=50_000)
                assert np.array_equal(coset_scan(gens, MODERATE.q, comp), ref)

    @pytest.fixture(scope="class")
    def unscannable_text(self, moderate_key):
        """A key file at moderate with dg=0: G = 0 vanishes on the whole
        grid, so every G draw gives a T of 49 points, not {(1,1)}."""
        _, sk = moderate_key
        return serialize_private(dataclasses.replace(
            sk, params=dataclasses.replace(MODERATE, d_g=0)))

    def test_unscannable_key_file_rejected_at_load(self, unscannable_text):
        # the load derives the key as keygen does, which refuses the whole
        # grid as T; the file is then malformed, not a keygen failure
        with pytest.raises(MalformedData, match="d_g = 0 makes T the whole grid"):
            deserialize_private(unscannable_text)

    def test_dg0_header_refused_before_any_draw(self, monkeypatch):
        # a 146-byte file whose header makes every G zero is refused at
        # once, not after MAX_G_DRAWS draws of G; so is a dg=0 header at
        # any size, n=2 q=5 included, which the paper's scan bound admitted
        text = "BQTRU v1 private-seed\nn=53 p=3 q=107 df=5 dg=0 dphi=5\nseed: " + " ".join(
            ["7"] * 32) + "\n"
        draws = []
        monkeypatch.setattr(scheme, "signed_ternary",
                            lambda *args: draws.append(args) or signed_ternary(*args))
        with pytest.raises(MalformedData, match="d_g = 0 makes T the whole grid"):
            deserialize_private(text)
        with pytest.raises(MalformedData, match="d_g = 0 makes T the whole grid"):
            deserialize_private(text.replace("n=53 p=3 q=107 df=5 dg=0 dphi=5",
                                             "n=2 p=3 q=5 df=1 dg=0 dphi=1"))
        with pytest.raises(RetriesExhausted, match="d_g = 0 makes T the whole grid"):
            keygen(Params(2, 3, 5, 1, 0, 1), 0)
        assert draws == []

    def test_underivable_header_refused_before_any_draw(self, monkeypatch):
        # every G gives T = {(1, 1)}, and an F passes only if N(F) vanishes
        # at none of the other 2,808 grid points, about (106/107)^2808 =
        # 3.5e-12 of draws, so the 10^6 draws allowed would almost surely all fail
        text = "BQTRU v1 private-seed\nn=53 p=3 q=107 df=5 dg=5 dphi=5\nseed: " + " ".join(
            map(str, range(32))) + "\n"
        assert len(text) == 146
        draws = []
        monkeypatch.setattr(scheme, "signed_ternary",
                            lambda *args: draws.append(args) or signed_ternary(*args))
        with pytest.raises(MalformedData, match=r"3\.5e-06 expected to pass in 1000000"):
            deserialize_private(text)
        with pytest.raises(RetriesExhausted, match=r"\(1 - 1/q\)\^\(n\^2 - 1\)"):
            keygen(Params(53, 3, 107, 5, 5, 5), 0)
        assert draws == []

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_shipped_sets_expect_many_passing_F(self, name):
        # the refusal above is far from every shipped set
        params = PARAM_SETS[name]
        expected = (scheme.MAX_G_DRAWS * scheme.F_DRAWS_PER_G
                    * (1 - 1 / params.q) ** (params.nsq - 1))
        assert expected > 10 ** 5

    def test_derivable_dg0_header_still_derives(self):
        # T is the whole grid of n^2 = 4 points, 5^4 classes: the paper's
        # construction still admits it and derives the key keygen derived
        # before dg=0 was refused at every size; keygen now refuses it
        params = Params(2, 3, 5, 1, 0, 1)
        key = paper_keygen(params, 0)
        assert key.T == (0, 1, 2, 3)
        text = "BQTRU v1 private-seed\nn=2 p=3 q=5 df=1 dg=0 dphi=1\nseed: " + " ".join(
            ["0"] * 32) + "\n"
        digest = hashlib.sha256(
            (serialize_public(scheme.PublicKey(params, key.H)) + text).encode())
        assert digest.hexdigest() == (
            "9f7b7e0c78e5593e5126c9b8b277642d000bd70f17fc6fedb11a3acab8ddef9f")
        with pytest.raises(MalformedData, match="d_g = 0 makes T the whole grid"):
            deserialize_private(text)

    def test_cli_decrypt_with_unscannable_key_exits_1(self, moderate_key, unscannable_text,
                                                      tmp_path):
        pk, _ = moderate_key
        key = tmp_path / "dg0.priv"
        key.write_text(unscannable_text)
        ct = tmp_path / "msg.ct"
        ct.write_text(serialize_ct(encrypt(pk, random_message(MODERATE, 0), 1)))
        out = tmp_path / "msg.out"
        code = cli_main(["decrypt", "--key", str(key), "--in", str(ct),
                         "--out", str(out)], out=io.StringIO())
        assert code == 1
        assert not out.exists()

    def test_three_point_toy_key_decrypts_through_coset_scan(self):
        # the paper's key of toy seed 66 vanishes at three grid points, 7^3
        # = 343 classes; the oracle's scan finds a closest point of its D'
        # for every component, as the uncapped sphere decoder does (ties
        # may pick different but equally close points)
        rng = random.Random(80)
        key = paper_keygen(TOY, 66)
        assert len(key.T) == 3
        ref_basis, gens = reduced_D_prime(TOY, key.T), lagrange_gens(TOY, key.T)
        pk = scheme.PublicKey(TOY, key.H)
        for _ in range(20):
            ct = encrypt(pk, random_message(TOY, rng), rng)
            A = quat_mul_schoolbook(key.F.with_modulus(TOY.q), quat_from_vector(ct.C, 3, TOY.q))
            targets = A.rows
            got = coset_scan(gens, TOY.q, targets)
            for a, g in zip(targets, got):
                ref = sphere_decode(ref_basis, a.astype(np.float64))
                assert np.dot(a - g, a - g) == np.dot(a - ref, a - ref)

    def test_keygen_never_returns_unscannable_key(self, monkeypatch):
        # a G that vanishes at a second grid point k as well as at (1,1)
        # is not admitted: keygen draws another G
        calls = []

        def two_points(rho_G):
            calls.append(1)
            return [0, len(calls)] if len(calls) <= 3 else derive_T(rho_G)

        monkeypatch.setattr(scheme, "derive_T", two_points)
        _, sk = keygen(MODERATE, 81)
        assert len(calls) > 3
        assert derive_T(EvalDomain(7, 113).transform(sk.G.rows)) == [0]
        monkeypatch.setattr(scheme, "derive_T", lambda rho_G: [0, 5])
        monkeypatch.setattr(scheme, "MAX_G_DRAWS", 5)
        with pytest.raises(RetriesExhausted):
            keygen(MODERATE, 82)

    def test_results_do_not_depend_on_blas_threads(self):
        # strict decrypts at `highest`, honest and garbage, and LLL, the one
        # float64 path, through `bqtru attack` at `toy`, in a child process
        # with OpenBLAS pinned to one thread and in one left at its default
        # thread count
        script = textwrap.dedent("""
            import io
            import random
            import numpy as np
            from bqtru.cli import main
            from bqtru.errors import DecryptionFailure
            from bqtru.params import HIGHEST
            from bqtru.scheme import Ciphertext, decrypt, encrypt, keygen, random_message
            rng = random.Random(78)
            pk, sk = keygen(HIGHEST, rng)
            cts = [encrypt(pk, random_message(HIGHEST, rng), rng) for _ in range(3)]
            cts.append(Ciphertext(np.array([[rng.randrange(199) for _ in range(121)]
                                            for _ in range(4)]), 199))
            for ct in cts:
                try:
                    print(decrypt(sk, ct, strict=True).tobytes().hex())
                except DecryptionFailure:
                    print("rejected")
            for seed in ("1", "3", "11"):
                out = io.StringIO()
                main(["attack", "--params", "toy", "--seed", seed], out)
                print(out.getvalue(), end="")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(bqtru.__file__)))

        def run(threads):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True, timeout=120).stdout

        pinned, default = run("1"), run(None)
        assert pinned == default
        lines = pinned.splitlines()
        assert lines[3] == "rejected" and "rejected" not in lines[:3]
        assert sum(line.startswith("reduced_shortest_norm") for line in lines[4:]) == 3


class TestMessageCodec:
    def test_capacity_moderate(self):
        assert message_capacity(MODERATE) == 30

    def test_empty_payload(self):
        M = encode_message(b"", MODERATE)
        # zero length, zero padding: the whole quaternion is zero
        assert is_zero(M)
        assert decode_message(M, MODERATE) == b""

    def test_single_byte_0xff(self):
        M = encode_message(b"\xff", MODERATE)
        assert M.shape == (4, 49)
        flat = M.reshape(-1)
        assert flat[0] == 1  # length prefix: 1 = [1,0,...]
        assert not flat[1:16].any()
        # 255 = [0,1,1,0,0,1] in little-endian base 3; digits are the
        # centered residues mod 3 so 0 and 1 map to themselves
        assert flat[16:22].tolist() == [0, 1, 1, 0, 0, 1]
        assert not flat[22:].any()
        assert decode_message(M, MODERATE) == b"\xff"

    def test_payload_too_large(self):
        with pytest.raises(PayloadTooLarge):
            encode_message(b"x" * 31, MODERATE)

    def test_decode_wrong_shape_or_type_malformed(self):
        # typed errors, not an IndexError or ValueError from the digit arithmetic
        M = encode_message(b"four lanes", MODERATE)
        for bad in (M.reshape(-1), M.T, M[:3], M[:, :16], M[None], np.int64(0),
                    M + 0.0, M.astype(object)):
            with pytest.raises(MalformedData):
                decode_message(bad, MODERATE)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=30))
    def test_round_trip(self, payload):
        assert decode_message(encode_message(payload, MODERATE), MODERATE) == payload

    def test_round_trip_many(self):
        rng = random.Random(68)
        for _ in range(1000):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(31)))
            assert decode_message(encode_message(payload, MODERATE), MODERATE) == payload

    def test_encoding_sums_unbiased(self):
        # digit 0 must map to coefficient 0: a biased encoding drives the
        # per-component coefficient sums toward the short all-ones lattice
        # direction and decryption starts failing deterministically
        rng = random.Random(76)
        worst = 0
        for _ in range(200):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(31)))
            M = encode_message(payload, MODERATE)
            for row in M:
                worst = max(worst, abs(int(row.sum())))
        assert worst < 24  # comfortably below the n^2/2 failure threshold

    def test_text_payload_regression(self):
        # this key/payload pair failed 20/20 blinding choices under the
        # digit-minus-one encoding (c0 coefficient sum was -25)
        rng = random.Random(5)
        pk, sk = keygen(MODERATE, rng)
        payload = b"hello quaternions, 30 bytes!!"
        for seed in range(5):
            ct = encrypt(pk, encode_message(payload, MODERATE), random.Random(seed))
            assert decode_message(decrypt(sk, ct), MODERATE) == payload

    def test_full_pipeline(self, moderate_key):
        pk, sk = moderate_key
        rng = random.Random(69)
        payload = b"attack at dawn, all four lanes"
        ct = encrypt(pk, encode_message(payload, MODERATE), rng)
        assert decode_message(decrypt(sk, ct), MODERATE) == payload


# the shipped sets and custom sets with p = 5, 17 and 29 (4, 2 and 2
# digits per byte; at p = 29, 29**16 is past the int64 range)
CODEC_PARAMS = [TOY, MODERATE, HIGHEST, Params(3, 5, 7, 1, 1, 1),
                Params(3, 17, 19, 1, 1, 1), Params(5, 29, 31, 2, 2, 2)]


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised; an
    array result as its shape, dtype and bytes, so outcomes compare with =="""
    try:
        got = fn(*args)
    except BqtruError as exc:
        return type(exc), str(exc)
    return (got.shape, got.dtype, got.tobytes()) if isinstance(got, np.ndarray) else got


@st.composite
def digit_vectors(draw, params):
    """Centered digit vectors of a message quaternion: mostly with a length
    prefix within the capacity, so the byte groups are read too, and now
    and then with a coefficient outside the centered range."""
    p, half = params.p, (params.p - 1) // 2
    flat = np.array(draw(st.lists(st.integers(-half, half), min_size=4 * params.nsq,
                                  max_size=4 * params.nsq)), dtype=np.int64)
    if draw(st.booleans()):
        cap = message_capacity(params)
        length = draw(st.integers(0, cap + 1))
        flat[:16] = centered([length // p ** i % p for i in range(16)], p)
        if length <= cap and draw(st.booleans()):
            # the digits of real bytes, so no group exceeds 255
            payload = draw(st.binary(min_size=length, max_size=length))
            flat[16:] = loop_encode_message(payload, params).reshape(-1)[16:]
    if draw(st.integers(0, 9)) == 0:
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from([-half - 1, half + 1]))
    return flat.reshape(4, params.nsq)


class TestCodecAgainstLoops:
    """The array codec gives the digit-loop codec's coefficients, bytes and
    errors, messages included."""

    @pytest.mark.parametrize("params", CODEC_PARAMS, ids=lambda P: f"n{P.n}-p{P.p}")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_encode(self, params, data):
        payload = data.draw(st.binary(max_size=message_capacity(params) + 2))
        got = outcome(encode_message, payload, params)
        assert got == outcome(loop_encode_message, payload, params)
        if len(payload) <= message_capacity(params):
            assert decode_message(encode_message(payload, params), params) == payload

    @pytest.mark.parametrize("params", CODEC_PARAMS, ids=lambda P: f"n{P.n}-p{P.p}")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode(self, params, data):
        M = data.draw(digit_vectors(params))
        assert outcome(decode_message, M, params) == outcome(loop_decode_message, M, params)

    def test_every_payload_length(self):
        # and every byte value: bytes(range(256)) in capacity-sized pieces
        rng = random.Random(14)
        for params in CODEC_PARAMS:
            cap = message_capacity(params)
            payloads = [bytes(rng.randrange(256) for _ in range(size)) for size in range(cap + 1)]
            payloads += [bytes(range(256))[i:i + cap] for i in range(0, 256, cap)]
            for payload in payloads:
                M = encode_message(payload, params)
                assert np.array_equal(M, loop_encode_message(payload, params))
                assert decode_message(M, params) == payload


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dump_matches_str_writer(self, data):
        # each kind's layout at each shipped set, rows in [0, hi) that often
        # hold the edge values 0 and hi - 1: the table writer spells what
        # str and the % writer spell
        params = data.draw(st.sampled_from(sorted(PARAM_SETS.values(), key=lambda P: P.n)))
        kind, header, layout, hi = data.draw(st.sampled_from([
            scheme._public_form(params), scheme._private_form(params),
            scheme._ct_form(params.q, params.n)]))
        value = st.integers(0, hi - 1) | st.sampled_from([0, hi - 1])
        rows = np.array([data.draw(st.lists(value, min_size=count, max_size=count))
                         for _, count in layout], dtype=np.int64)
        text = scheme._dump(kind, header, layout, hi, rows)
        expect = [f"BQTRU v1 {kind}", header]
        expect += [label + ": " + " ".join(map(str, row))
                   for (label, _), row in zip(layout, rows.tolist())]
        assert text == "\n".join(expect) + "\n" == percent_dump(kind, header, layout, rows)

    @pytest.mark.parametrize("name", ["toy", "moderate", "highest"])
    def test_dump_edge_rows_match_percent_writer(self, name):
        params = PARAM_SETS[name]
        for kind, header, layout, hi in (scheme._public_form(params),
                                         scheme._private_form(params),
                                         scheme._ct_form(params.q, params.n)):
            for fill in (0, hi - 1):
                rows = np.full((len(layout), layout[0][1]), fill, dtype=np.int64)
                assert (scheme._dump(kind, header, layout, hi, rows)
                        == percent_dump(kind, header, layout, rows))

    def test_dump_layouts_differing_in_counts(self):
        # same labels, different counts: each row is spelled on its label's line
        short = scheme._dump("ct", "q=7 n=3", (("c0", 2), ("c1", 2)), 7, np.array([[0, 6], [5, 1]]))
        long = scheme._dump("ct", "q=7 n=3", (("c0", 3), ("c1", 3)), 7,
                            np.array([[0, 1, 2], [4, 5, 6]]))
        assert short == "BQTRU v1 ct\nq=7 n=3\nc0: 0 6\nc1: 5 1\n"
        assert long == "BQTRU v1 ct\nq=7 n=3\nc0: 0 1 2\nc1: 4 5 6\n"
        # a value outside [0, q) has no spelling in the table, so the writer
        # refuses it and names its field
        for bad in ([[0, 1], [7, 2]], [[0, 1], [-1, 2]]):
            with pytest.raises(MalformedData, match="field c1"):
                scheme._dump("ct", "q=7 n=3", (("c0", 2), ("c1", 2)), 7, np.array(bad))

    @pytest.mark.parametrize("q", [65537, 2 ** 31])
    def test_hostile_modulus_builds_no_table(self, q):
        # a header's q sizes the spelling table; no key has q > 2^16, so
        # both loaders refuse one without building a table for it
        ct = f"BQTRU v1 ct\nq={q} n=1\n" + "".join(f"c{i}: 0\n" for i in range(4))
        pub = f"BQTRU v1 public\nn=2 p=3 q={q} df=1 dg=1 dphi=1\n" + "".join(
            f"h{i}: 0 1 2 3\n" for i in range(4))
        before = scheme._spellings.cache_info()
        with pytest.raises(MalformedData, match=f"q = {q} > 2\\^16"):
            deserialize_ct(ct)
        with pytest.raises(MalformedData):
            deserialize_public(pub)
        # nor does the writer, given such a ciphertext in memory
        with pytest.raises(MalformedData):
            serialize_ct(Ciphertext(np.zeros((4, 1), dtype=np.int64), q))
        after = scheme._spellings.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_public_round_trip(self, moderate_key):
        pk, _ = moderate_key
        text = serialize_public(pk)
        again = deserialize_public(text)
        assert again.params == pk.params
        assert again.H == pk.H
        assert serialize_public(again) == text

    def test_private_round_trip(self, moderate_key):
        _, sk = moderate_key
        again = deserialize_private(serialize_private(sk))
        assert again.F == sk.F and again.G == sk.G
        assert again.weight == sk.weight and again.W == sk.W
        assert np.array_equal(rho_gamma(again), rho_gamma(sk))

    @pytest.mark.parametrize("seed", [84, random.Random(84), None], ids=["int", "Random", "None"])
    @pytest.mark.parametrize("name", ["toy", "moderate", "highest"])
    def test_loaded_key_is_derived_again(self, name, seed):
        # the file holds the parameters and the seed, and a load derives
        # the same secret half and the same cached arrays
        _, sk = keygen(PARAM_SETS[name], seed)
        again = deserialize_private(serialize_private(sk))
        assert again.seed == sk.seed and again.params == sk.params
        for field in ("F", "G", "F_p_inv"):
            assert np.array_equal(getattr(again, field).rows, getattr(sk, field).rows)
        assert (again.weight, again.W) == (sk.weight, sk.W)
        assert np.array_equal(rho_gamma(again), rho_gamma(sk))

    def test_seed_kinds(self):
        # an int is the seed itself, a random.Random gives 256 bits, and
        # None takes 256 bits from the operating system
        assert keygen(TOY, 5)[1].seed == 5
        assert keygen(TOY, random.Random(5))[1].seed == random.Random(5).getrandbits(256)
        fresh = {keygen(TOY, None)[1].seed for _ in range(3)}
        assert len(fresh) == 3 and max(fresh) < 2 ** 256
        for bad in (-1, 2 ** 256):
            with pytest.raises(ValueError):
                keygen(TOY, bad)

    @pytest.mark.parametrize("name", ["toy", "moderate", "highest"])
    def test_private_keys_compare_equal(self, name):
        # keys compare by their fields; the cached arrays are derived, not fields
        _, sk = keygen(PARAM_SETS[name], 84)
        again = deserialize_private(serialize_private(sk))
        assert (again == sk) is True
        assert [f.name for f in dataclasses.fields(sk)] == [
            "params", "seed", "F", "G", "weight", "W", "F_p_inv"]
        other = dataclasses.replace(sk, weight=sk.weight % (sk.params.q - 1) + 1)
        assert (other != sk) is True

    def test_custom_params_round_trip(self):
        # a key made under parameters outside PARAM_SETS loads back with
        # equal params
        pk, sk = keygen(HIGH_Q, 83)
        assert deserialize_public(serialize_public(pk)).params == HIGH_Q
        assert deserialize_private(serialize_private(sk)).params == HIGH_Q

    def test_deserialized_key_decrypts(self, moderate_key):
        pk, sk = moderate_key
        sk2 = deserialize_private(serialize_private(sk))
        rng = random.Random(70)
        M = random_message(MODERATE, rng)
        assert np.array_equal(decrypt(sk2, encrypt(pk, M, rng)), M)

    def test_ct_round_trip(self, moderate_key):
        pk, _ = moderate_key
        ct = encrypt(pk, random_message(MODERATE, random.Random(71)), random.Random(72))
        again = deserialize_ct(serialize_ct(ct))
        assert again == ct and again.C.dtype == np.int64
        assert again != Ciphertext(ct.C, ct.q + 2) and again != ct.C
        assert again != Ciphertext(np.roll(ct.C, 1), ct.q)

    @pytest.mark.parametrize("q, n", [(4, -3), (0, 0), (7, 0), (2, 1), (-7, 3)])
    def test_impossible_ct_header_rejected(self, q, n):
        # n^2 values per field, so only the header is wrong
        text = f"BQTRU v1 ct\nq={q} n={n}\n" + "".join(
            f"c{i}: " + " ".join(["0"] * (n * n)) + "\n" for i in range(4))
        with pytest.raises(MalformedData, match="n >= 1 and q >= 3"):
            deserialize_ct(text)

    def test_smallest_ct_header_loads(self):
        ct = deserialize_ct("BQTRU v1 ct\nq=3 n=1\n" + "".join(
            f"c{i}: {i % 3}\n" for i in range(4)))
        assert ct == Ciphertext(np.array([[0], [1], [2], [0]]), 3)

    def test_header_corruption_rejected(self, moderate_key):
        pk, _ = moderate_key
        text = serialize_public(pk)
        header = text.splitlines()[0]
        rest = text.split("\n", 1)[1]
        for pos in range(len(header)):
            flipped = header[:pos] + chr(ord(header[pos]) ^ 1) + header[pos + 1:]
            with pytest.raises(MalformedData):
                deserialize_public(flipped + "\n" + rest)

    def test_out_of_range_coefficient(self, moderate_key):
        pk, _ = moderate_key
        text = serialize_public(pk)
        bad = text.replace("h3:", "h3: 113", 1)  # 113 is not a residue mod 113
        with pytest.raises(MalformedData):
            deserialize_public(bad)

    @pytest.mark.parametrize("kind, label, values", [
        ("private", "seed", "a a"),
        ("ct", "c0", "z"),
        ("private", "seed", "1" + "0" * 30),
        ("private", "bogus", "1 2 3"),
        ("ct", "bogus", "0"),
        ("private", "header", "n=7 p=3 q=113 df=7 dg=6 dphi=6 extra=5"),
        ("private", "header", "n=7 p=3 q=113 df=7 dg=6 dphi=6 n=7"),
        ("ct", "header", "q=113 n=7 q=113"),
        ("private", "header", "n=\u0667 p=3 q=113 df=7 dg=6 dphi=6"),
        ("ct", "header", "q=1_13 n=7"),
        ("ct", "header", "q=113 n=+7"),
        ("ct", "header", "q=100000000000000000000000 n=7"),
    ])
    def test_malformed_field_raises_malformed_data(self, moderate_key, kind, label, values):
        # non-integer values, an integer past int64 and a ciphertext
        # modulus too large for int64
        # products are typed errors, not ValueError/OverflowError; so are a
        # label the kind does not define (appended) and a header line
        # (label "header") with an unknown or repeated key
        pk, sk = moderate_key
        if kind == "private":
            text, load = serialize_private(sk), deserialize_private
        else:
            ct = encrypt(pk, random_message(MODERATE, 0), 1)
            text, load = serialize_ct(ct), deserialize_ct
        lines = []
        for i, line in enumerate(text.splitlines()):
            if line.split(":")[0] == label:
                line = f"{label}: {values}"
            elif label == "header" and i == 1:
                line = values
            lines.append(line)
        if label == "bogus":
            lines.append(f"{label}: {values}")
        with pytest.raises(MalformedData):
            load("\n".join(lines) + "\n")

    def test_wrong_kind(self, moderate_key):
        pk, _ = moderate_key
        with pytest.raises(MalformedData):
            deserialize_private(serialize_public(pk))


class TestCodecRobustness:
    """Every field rejects what is not a list of in-range int64 values,
    an integer spelt other than in plain ASCII digits, and a label given
    twice; every kind rejects a label it does not define, and a header line
    that does not give each of its keys exactly once, in that spelling."""

    def _cases(self, pk, sk, ct):
        p = MODERATE
        yield serialize_public(pk), deserialize_public, {
            f"h{i}": (-1, p.q) for i in range(4)}
        yield serialize_private(sk), deserialize_private, {"seed": (-1, 256)}
        yield serialize_ct(ct), deserialize_ct, {f"c{i}": (-1, p.q) for i in range(4)}

    def test_every_field(self, moderate_key):
        pk, sk = moderate_key
        ct = encrypt(pk, random_message(MODERATE, 0), 1)
        checked = 0
        for text, load, fields in self._cases(pk, sk, ct):
            load(text)
            for label, (below, above) in fields.items():
                vals = field_values(text, label)
                for bad in ("1" + "0" * 19, "-" + "9" * 20, "1.5", "x", "0x1",
                            str(below), str(above)):
                    with pytest.raises(MalformedData):
                        load(replace_field(text, label, " ".join([bad] + vals[1:])))
                for count in (vals[:-1], vals + vals[-1:]):
                    with pytest.raises(MalformedData):
                        load(replace_field(text, label, " ".join(count)))
                # each integer has one spelling
                for spelling in respellings(vals[0]):
                    with pytest.raises(MalformedData):
                        load(replace_field(text, label, " ".join([spelling] + vals[1:])))
                # a repeated label, even with the same values
                with pytest.raises(MalformedData):
                    load(text + f"{label}: {' '.join(vals)}\n")
                checked += 1
            # a label this kind does not define
            with pytest.raises(MalformedData):
                load(text + "bogus: 1 2 3\n")
        assert checked == 4 + 1 + 4

    def test_every_header_key(self, moderate_key):
        pk, sk = moderate_key
        ct = encrypt(pk, random_message(MODERATE, 0), 1)
        for text, load, _ in self._cases(pk, sk, ct):
            magic, header, *rest = text.splitlines()

            def with_header(line):
                return "\n".join([magic, line] + rest) + "\n"

            load(with_header(header))
            keys = header.split()
            bad = [header + " extra=5", header + " 5", header.replace("=", "==", 1)]
            # a repeated key, even with the same value (the last used to win)
            bad += [f"{header} {tok}" for tok in keys]
            # a missing key
            bad += [" ".join(keys[:i] + keys[i + 1:]) for i in range(len(keys))]
            # another spelling of a value
            for i, tok in enumerate(keys):
                key, value = tok.split("=")
                bad += [" ".join(keys[:i] + [f"{key}={s}"] + keys[i + 1:])
                        for s in respellings(value)]
            for line in bad:
                with pytest.raises(MalformedData):
                    load(with_header(line))

    # a private key file has one field, so none of its fields can swap
    @pytest.mark.parametrize("kind, how", [
        (kind, how) for kind in ("public", "private", "ct") for how in WHOLE_FILE_RESPELLINGS
        if (kind, how) != ("private", "two fields swapped")])
    def test_whole_file_respellings(self, honest_files, kind, how):
        # each file has one spelling, the writer's: a loader that read
        # the same values from another spelling would accept a second
        # encoding of the same key or ciphertext
        text, load, _ = honest_files["moderate", kind]
        load(text)
        other = WHOLE_FILE_RESPELLINGS[how](text.split("\n")[:-1])
        assert other != text
        with pytest.raises(MalformedData):
            load(other)


EDIT_CHARS = "0123456789-+ =:_\t\r\nabcfhqxT"


@st.composite
def edited(draw, text):
    """text with 1 to 3 characters inserted, deleted or replaced, each new
    one a digit, a sign, a separator, a line end or a letter."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(text) - (op != "insert")))
        new = "" if op == "delete" else draw(st.sampled_from(EDIT_CHARS))
        text = text[:i] + new + text[i + (op != "insert"):]
    return text


class TestEditedTexts:
    @pytest.mark.parametrize("kind", ["public", "private", "ct"])
    @pytest.mark.parametrize("name", ["toy", "moderate"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_what_loads_round_trips(self, honest_files, name, kind, data):
        # an edited file either is refused, or loads as what the writer
        # writes back byte for byte: no text but the writer's loads
        text, load, write = honest_files[name, kind]
        other = data.draw(edited(text))
        try:
            got = load(other)
        except MalformedData:
            return
        assert write(got) == other


# the key file of keygen(TOY, 0) as written before a private key file
# held its seed
FIELDS_FORMAT_PRIVATE = """BQTRU v1 private
n=3 p=3 q=7 df=1 dg=1 dphi=1
f0: 0 0 1 0 0 0 0 -1 1
f1: 0 1 0 0 0 0 0 0 -1
f2: 0 0 0 0 0 1 0 -1 0
f3: 0 -1 0 0 0 0 0 0 1
g0: 0 0 0 0 0 0 1 0 -1
g1: 1 0 0 0 -1 0 0 0 0
g2: 0 0 0 0 0 0 0 -1 1
g3: 0 0 0 0 -1 0 1 0 0
T: 0
weights: 3
W: 4 3 5 6
rhogamma: 5 2 1 4 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
"""


class TestKeyValidation:
    """deserialize_private derives the key from the file's parameters and
    seed; TestDecryptPaths has a file whose seed derives none."""

    def test_honest_keys_load(self, toy_key, moderate_key):
        for _, sk in (toy_key, moderate_key):
            sk2 = deserialize_private(serialize_private(sk))
            assert np.array_equal(sk2.rho_F, sk.rho_F)

    def test_file_names_the_seed_alone(self, moderate_key):
        _, sk = moderate_key
        assert serialize_private(sk) == ("BQTRU v1 private-seed\n"
                                         "n=7 p=3 q=113 df=7 dg=6 dphi=6\n"
                                         "seed: " + "0 " * 31 + "61\n")

    def test_fields_format_file_refused(self):
        assert serialize_private(keygen(TOY, 0)[1]) != FIELDS_FORMAT_PRIVATE
        with pytest.raises(MalformedData):
            deserialize_private(FIELDS_FORMAT_PRIVATE)

    def test_runs_no_convolution_but_the_mod_p_inverse(self, moderate_key, monkeypatch):
        # a load derives the secret half only: the convolutions are
        # ring_inverse's, 7 per F^-1 mod p that the derivation computes
        _, sk = moderate_key
        inverses = []
        real_inverse = scheme.quat_inverse_mod_p

        def quat_inverse_mod_p(F):
            inverses.append(F)
            return real_inverse(F)

        monkeypatch.setattr(scheme, "quat_inverse_mod_p", quat_inverse_mod_p)
        text = serialize_private(sk)
        CONV_COUNTER.reset()
        deserialize_private(text)
        assert inverses and CONV_COUNTER.count == 7 * len(inverses)


def golden_digest(*names, seeds=range(10), private_text=True):
    """sha256 over keys for the seeds at each named set in turn, two
    ciphertexts per key (under the key and its reloaded copy) and their
    strict decrypts with both copies of the private key; the private
    key's text only if private_text."""
    h = hashlib.sha256()
    for name, seed in itertools.product(names, seeds):
        params = PARAM_SETS[name]
        pk, sk = keygen(params, seed)
        pub, priv = serialize_public(pk), serialize_private(sk)
        h.update(pub.encode())
        if private_text:
            h.update(priv.encode())
        pk2, sk2 = deserialize_public(pub), deserialize_private(priv)
        for j, key in enumerate((pk, pk2)):
            rng = random.Random(1000 * seed + j)
            ct = encrypt(key, random_message(params, rng), rng)
            text = serialize_ct(ct)
            h.update(text.encode())
            for s in (sk, sk2):
                try:
                    h.update(decrypt(s, deserialize_ct(text), strict=True).tobytes())
                except DecryptionFailure:
                    h.update(b"rejected")
    return h.hexdigest()


class TestGolden:
    """Keys, ciphertexts and decrypts are byte-identical to the reference
    release (the coefficient-domain norm, inverse and codec)."""

    @pytest.mark.parametrize("name, digest", [
        ("toy", "bd955e4b3d4b2739cec2db30d294cbf03e42018632917be78d3d3845e974c5e9"),
        ("moderate", "f0a4a28a3dc5c3349ecb61c22f97c1e7e817df0ad9edc9ef243719d3e995d78a"),
        ("highest", "2f439e4b3351fc710012916cc9b5d25bf0ab737bd64a3b66325d1a862599d45d"),
    ])
    def test_outputs_unchanged(self, name, digest):
        assert golden_digest(name) == digest

    @pytest.mark.parametrize("name, digest", [
        ("toy", "444fbde3475a183f2386e10bc9c113ebdf263e2480daede6854c5ee8417b3a67"),
        ("moderate", "3377af12c9e6564c13d2cb1ba5e6279caca097a3d4def04643a9ec392c66b60f"),
        ("highest", "6a02185a351a9e6c84f2053472d3faefad42df3e1ed26806ad65c69a506a8cc2"),
    ])
    def test_public_outputs_unchanged(self, name, digest):
        # public keys, ciphertexts and strict decrypts, pinned before the
        # private key file held its seed
        assert golden_digest(name, private_text=False) == digest

    def test_more_seeds_unchanged(self):
        # with the digests above, every key of seeds 0-99 at moderate and
        # highest, pinned when keygen still admitted any scannable secret set
        assert golden_digest("moderate", "highest", seeds=range(10, 100)) == (
            "1741e6e3eb1e17106770e76b7588a8b6f2b7365a8aa2a5132c02cef2c390d71e")
