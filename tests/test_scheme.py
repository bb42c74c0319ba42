import dataclasses
import functools
import hashlib
import io
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
import bqtru.scheme as scheme
from bqtru.cli import main as cli_main
from bqtru.errors import (
    BqtruError,
    ContextMismatch,
    DecryptionFailure,
    MalformedData,
    MessageOutOfRange,
    NotInvertible,
    PayloadTooLarge,
    RetriesExhausted,
    WeightTooLarge,
)
from bqtru.ideal import derive_T
from bqtru.lattice import coset_decode, lll_reduce
from bqtru.params import HIGHEST, MODERATE, PARAM_SETS, TOY, Params
from bqtru.quat import Quaternion, quat_inverse_mod_p, quat_mul_schoolbook, rho, rho_norms
from bqtru.ring import (
    CONV_COUNTER,
    EvalDomain,
    centered,
    eval_domain,
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
    is_zero,
    loop_decode_message,
    loop_encode_message,
    quat_add,
    quat_from_vector,
    quat_one,
    quat_scale,
    quat_sub,
    rho_mul_rows,
    sphere_decode,
    verify_key_membership,
)

# oversized q beyond the 24*d*p guard: decryption noise can never wrap mod q
HIGH_Q = Params(7, 3, 547, 7, 7, 7)


@pytest.fixture(scope="module")
def toy_key():
    return keygen(TOY, random.Random(60))


@pytest.fixture(scope="module")
def moderate_key():
    return keygen(MODERATE, random.Random(61))


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


class TestKeygen:
    def test_public_residual_vanishes_off_T(self, toy_key):
        pk, sk = toy_key
        dom = EvalDomain(3, 7)
        resid = quat_sub(quat_mul_schoolbook(sk.F.with_modulus(7), pk.H), sk.G.with_modulus(7))
        vals = rho(resid, dom)
        for k in range(9):
            if k not in sk.T:
                assert not vals[:, k].any()

    def test_rho_gamma_identity(self, moderate_key):
        # rho(F o H) = rho(G) + rho(gamma) pointwise
        pk, sk = moderate_key
        dom = EvalDomain(7, 113)
        lhs = rho(quat_mul_schoolbook(sk.F.with_modulus(113), pk.H), dom)
        rhs = (rho(sk.G.with_modulus(113), dom) + np.asarray(sk.rho_gamma)) % 113
        assert np.array_equal(lhs, rhs)

    def test_theta_support(self, moderate_key):
        pk, sk = moderate_key
        # gamma is supported on T: weights times W, carried through F
        for k in range(49):
            if k not in sk.T:
                assert not np.asarray(sk.rho_gamma)[:, k].any()

    def test_membership_identity(self, moderate_key):
        pk, sk = moderate_key
        assert verify_key_membership(sk, pk, EvalDomain(7, 113))

    def test_membership_many_toy_keys(self):
        rng = random.Random(62)
        dom = EvalDomain(3, 7)
        for _ in range(100):
            pk, sk = keygen(TOY, rng)
            assert verify_key_membership(sk, pk, dom)

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
            pk, sk = keygen(params, random.Random(seed))
            assert sk.T == (0,)  # grid index 0 is the point (1, 1)
            theta_hat = Quaternion([ones * (int(c.sum()) * pow(n * n, -1, q)) for c in pk.H.rows],
                                   q)
            H0 = quat_sub(pk.H, theta_hat)
            assert quat_mul_schoolbook(sk.F.with_modulus(q), H0) == sk.G.with_modulus(q)

    def test_T_window(self, moderate_key):
        _, sk = moderate_key
        assert 1 <= len(sk.T) <= 7

    def test_retries_exhausted(self):
        with pytest.raises(RetriesExhausted):
            keygen(TOY, random.Random(0), max_attempts=0)

    def test_one_mod_p_solve_per_usable_F(self, monkeypatch):
        # N(F)^-1 mod p is computed once per F candidate whose norm
        # vanishes only inside T -- never a second time for the accepted
        # F -- and once per private-key load
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
        _, sk = keygen(MODERATE, random.Random(63))
        assert sum(usable) >= 1
        assert inverses == [3] * sum(usable)
        inverses.clear()
        deserialize_private(serialize_private(sk))
        assert inverses == [3]

    def test_no_mod_q_quaternion_product(self, monkeypatch):
        # keygen runs no mod-q convolution: N(F) per F draw, H and rho_gamma
        # are pointwise products on the evaluation grid
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
        pk, sk = keygen(MODERATE, random.Random(63))
        assert sum(norms) >= 1
        assert sum(mod_q_convs) == 0
        assert verify_key_membership(sk, pk, EvalDomain(7, 113))

    def test_unscannable_q_fails_before_drawing_G(self, monkeypatch):
        # q > MAX_SCAN_CLASSES: even |T| = 1 is too many coset classes
        def derive_T(*_):
            raise AssertionError("keygen drew a G")

        monkeypatch.setattr(scheme, "derive_T", derive_T)
        with pytest.raises(RetriesExhausted, match=r"q\^\|T\| <= 2\^16"):
            keygen(Params(3, 3, 65539, 1, 1, 1), random.Random(0))


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
        assert np.array_equal(pk.rho_H, rho(pk.H, dom))
        assert np.array_equal(sk.rho_F, rho(sk.F.with_modulus(113), dom))
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
    return keygen(params, random.Random(66))


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
        pk, sk = keygen(MODERATE, random.Random(70))
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


def secret_points_text(sk, T):
    """The key file of sk, rewritten to name the secret set T instead.

    The file stays consistent as key load checks it.  Every component of G
    becomes (1 - y)(1 + x + ... + x^(n-1)), which vanishes at (1, 1) and at
    every grid point (omega^a, omega^b) with a != 0; the weights become 1
    and rhogamma is recomputed.  Decryption reads none of the three.
    """
    params = sk.params
    g = np.zeros((params.n, params.n), dtype=np.int64)
    g[:, 0], g[:, 1] = 1, -1
    g_line = " ".join(map(str, g.reshape(-1)))
    rho_theta = scheme._rho_theta(T, [1] * len(T), sk.W, params)
    # the file lists rho(gamma) point by point
    rho_gamma = quat.rho_mul(sk.rho_F, rho_theta, params.q).T.reshape(-1)
    replace = {"T": " ".join(map(str, T)), "weights": " ".join("1" for _ in T),
               "rhogamma": " ".join(map(str, rho_gamma)),
               **{f"g{i}": g_line for i in range(4)}}
    text = serialize_private(sk)
    for label, values in replace.items():
        text = replace_field(text, label, values)
    return text


def with_secret_points(sk, T):
    """The key as a key file naming the secret set T instead, loaded back."""
    return deserialize_private(secret_points_text(sk, T))


def reduced_D_prime(sk):
    """LLL-reduced basis of the secret lattice D' of sk (reference path)."""
    dom = EvalDomain(sk.params.n, sk.params.q)
    return lll_reduce(build_D_prime(sk.T, dom).rows.astype(np.int64))


def forbid_basis_of_D_prime(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the coset scan needs no basis of D'")

    # the D' basis and the sphere decoder live in the test oracles, out of
    # reach of the library; LLL is the one basis routine it still has
    monkeypatch.setattr(lattice, "lll_reduce", forbidden)


class TestDecryptPaths:
    def test_honest_key_never_builds_D_prime(self, moderate_key, monkeypatch):
        pk, sk = moderate_key
        assert len(sk.T) == 1
        forbid_basis_of_D_prime(monkeypatch)
        rng = random.Random(76)
        sk2 = deserialize_private(serialize_private(sk))
        M = random_message(MODERATE, rng)
        assert np.array_equal(decrypt(sk2, encrypt(pk, M, rng), strict=True), M)

    def test_two_point_key_decrypts_through_coset_scan(self, moderate_key, monkeypatch):
        # a key file naming a second secret point: decrypt scans the q^2
        # cosets, agrees with the sphere decoder on honest ciphertexts and
        # still rejects garbage in strict mode
        pk, sk = moderate_key
        extra = next(k for k in (20, 30, 40) if k not in sk.T)
        sk2 = with_secret_points(sk, list(sk.T) + [extra])
        ref_basis = reduced_D_prime(sk2)
        assert len(sk2.T) == 2
        forbid_basis_of_D_prime(monkeypatch)
        rng = random.Random(79)
        for _ in range(5):
            M = random_message(MODERATE, rng)
            ct = encrypt(pk, M, rng)
            assert np.array_equal(decrypt(sk2, ct, strict=True), M)
            # the sphere decoder over the same D' finds the same points
            A = quat_mul_schoolbook(sk.F.with_modulus(MODERATE.q),
                                    quat_from_vector(ct.C, MODERATE.n, MODERATE.q))
            for comp in A.rows:
                ref = sphere_decode(ref_basis, comp.astype(np.float64), max_nodes=50_000)
                got = coset_decode(sk2.lagrange_T, MODERATE.q, comp)
                assert np.array_equal(got, ref)
        garbage = Ciphertext(np.array([[rng.randrange(MODERATE.q) for _ in range(MODERATE.nsq)]
                                       for _ in range(4)]), MODERATE.q)
        with pytest.raises(DecryptionFailure):
            decrypt(sk2, garbage, strict=True)

    def test_unscannable_key_file_rejected_at_load(self, moderate_key):
        # the scan would cost q^|T| classes per component: 113^3 at
        # moderate and 547^2 at the wide-q set, both above 2^16
        _, sk = moderate_key
        T = list(sk.T) + [k for k in (20, 30, 40) if k not in sk.T]
        with pytest.raises(MalformedData):
            with_secret_points(sk, T[:3])
        _, sk_wide = keygen(HIGH_Q, random.Random(77))
        extra = next(k for k in (20, 30) if k not in sk_wide.T)
        with pytest.raises(MalformedData):
            with_secret_points(sk_wide, list(sk_wide.T) + [extra])

    def test_cli_decrypt_with_unscannable_key_exits_1(self, moderate_key, tmp_path):
        pk, sk = moderate_key
        T = list(sk.T) + [k for k in (20, 30, 40) if k not in sk.T]
        key = tmp_path / "three.priv"
        key.write_text(secret_points_text(sk, T[:3]))
        ct = tmp_path / "msg.ct"
        ct.write_text(serialize_ct(encrypt(pk, random_message(MODERATE, 0), 1)))
        out = tmp_path / "msg.out"
        code = cli_main(["decrypt", "--key", str(key), "--in", str(ct),
                         "--out", str(out)], out=io.StringIO())
        assert code == 1
        assert not out.exists()

    def test_three_point_toy_key_decrypts_through_coset_scan(self, monkeypatch):
        # 7^3 = 343 classes: keygen admits this toy key, and the scan finds
        # a closest point of D' for every component, as the uncapped sphere
        # decoder does (ties may pick different but equally close points)
        rng = random.Random(80)
        pk, sk = keygen(TOY, random.Random(66))
        assert len(sk.T) == 3
        ref_basis = reduced_D_prime(sk)
        for _ in range(20):
            ct = encrypt(pk, random_message(TOY, rng), rng)
            A = quat_mul_schoolbook(sk.F.with_modulus(TOY.q), quat_from_vector(ct.C, 3, TOY.q))
            targets = A.rows
            with monkeypatch.context() as m:
                forbid_basis_of_D_prime(m)
                decrypt(sk, ct)
                got = coset_decode(sk.lagrange_T, TOY.q, targets)
            for a, g in zip(targets, got):
                ref = sphere_decode(ref_basis, a.astype(np.float64))
                assert np.dot(a - g, a - g) == np.dot(a - ref, a - ref)

    def test_keygen_never_returns_unscannable_key(self, monkeypatch):
        # a G whose zero set has three grid points would need 113^3
        # classes per component at moderate: keygen draws another G
        calls = []

        def three_points(rho_G):
            calls.append(1)
            return [1, 2, 3] if len(calls) <= 3 else derive_T(rho_G)

        monkeypatch.setattr(scheme, "derive_T", three_points)
        _, sk = keygen(MODERATE, random.Random(81))
        assert len(calls) > 3 and len(sk.T) == 1
        monkeypatch.setattr(scheme, "derive_T", lambda rho_G: [1, 2, 3])
        with pytest.raises(RetriesExhausted):
            keygen(MODERATE, random.Random(82), max_attempts=5)

    def test_results_do_not_depend_on_blas_threads(self):
        # strict decrypts at `highest`, honest and garbage, in a child
        # process with OpenBLAS pinned to one thread and in one left at
        # its default thread count
        script = textwrap.dedent("""
            import random
            import numpy as np
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
        assert len(lines) == 4 and lines[-1] == "rejected"
        assert "rejected" not in lines[:3]


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
        rng = random.Random(14)
        for params in CODEC_PARAMS:
            for size in range(message_capacity(params) + 1):
                payload = bytes(rng.randrange(256) for _ in range(size))
                M = encode_message(payload, params)
                assert np.array_equal(M, loop_encode_message(payload, params))
                assert decode_message(M, params) == payload


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(fields=st.dictionaries(
        st.sampled_from(["h0", "T", "weights", "rhogamma"]),
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from([0, -1, 1]), max_size=130)))
    def test_dump_matches_str_writer(self, fields):
        # negative, zero and empty value lists, written from one flat int64 array
        expect = ["BQTRU v1 ct", "q=7 n=3"]
        expect += [label + ": " + " ".join(map(str, v)) for label, v in fields.items()]
        expect = "\n".join(expect) + "\n"
        layout = tuple((label, len(v)) for label, v in fields.items())
        flat = np.array([x for v in fields.values() for x in v], dtype=np.int64)
        assert scheme._dump("ct", "q=7 n=3", layout, flat) == expect

    def test_dump_layouts_differing_in_counts(self):
        # same labels, different counts: each layout gets its own format
        values = np.arange(-2, 3, dtype=np.int64)
        short = scheme._dump("ct", "q=7 n=3", (("c0", 2), ("c1", 3)), values)
        long = scheme._dump("ct", "q=7 n=3", (("c0", 3), ("c1", 2)), values)
        assert short == "BQTRU v1 ct\nq=7 n=3\nc0: -2 -1\nc1: 0 1 2\n"
        assert long == "BQTRU v1 ct\nq=7 n=3\nc0: -2 -1 0\nc1: 1 2\n"
        with pytest.raises(TypeError):
            scheme._dump("ct", "q=7 n=3", (("c0", 2), ("c1", 2)), values)

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
        assert again.T == sk.T and again.weights == sk.weights
        assert again.W == sk.W
        assert np.array_equal(np.asarray(again.rho_gamma), np.asarray(sk.rho_gamma))

    @pytest.mark.parametrize("name", ["toy", "moderate", "highest"])
    def test_private_keys_compare_equal(self, name):
        # keys compare by their fields; rho_gamma is derived, not a field
        _, sk = keygen(PARAM_SETS[name], random.Random(84))
        again = deserialize_private(serialize_private(sk))
        assert (again == sk) is True
        assert [f.name for f in dataclasses.fields(sk)] == [
            "params", "F", "G", "T", "weights", "W", "F_p_inv"]
        other = dataclasses.replace(sk, weights=tuple(w % (sk.params.q - 1) + 1
                                                      for w in sk.weights))
        assert (other != sk) is True

    def test_custom_params_round_trip(self):
        # a key made under parameters outside PARAM_SETS loads back with
        # equal params
        pk, sk = keygen(HIGH_Q, random.Random(83))
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
        ("private", "f0", "a a"),
        ("private", "T", "x"),
        ("private", "T", "24 24"),
        ("ct", "c0", "z"),
        ("private", "rhogamma", "1" + "0" * 30),
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
        # non-integer values, a repeated secret point (T: 24 24 with
        # weights: 5 6 would build sigma from one point at weight 6), an
        # integer past int64 and a ciphertext modulus too large for int64
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
            elif label == "T" and line.startswith("weights:"):
                line = "weights: " + " ".join(str(5 + i) for i in range(len(values.split())))
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
        yield serialize_private(sk), deserialize_private, {
            **{f"{c}{i}": (-2, 2) for c in "fg" for i in range(4)},
            "T": (-1, p.nsq), "weights": (0, p.q), "W": (0, p.q), "rhogamma": (-1, p.q)}
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
        assert checked == 4 + 12 + 4

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


class TestKeyValidation:
    """deserialize_private checks the key against its own evaluation arrays."""

    def test_honest_keys_load(self, toy_key, moderate_key):
        for _, sk in (toy_key, moderate_key):
            sk2 = deserialize_private(serialize_private(sk))
            assert np.array_equal(sk2.rho_F, sk.rho_F)

    def _tampered(self, sk, label):
        text = serialize_private(sk)
        vals = [int(v) for v in field_values(text, label)]
        q = sk.params.q
        if label == "g0":
            # a balanced component no longer vanishes at (1, 1), which is in T
            vals[vals.index(0)] = 1
        elif label == "f0":
            # F = 1 + i: N(F) = 1 - 1 = 0 at every grid point
            vals = [1] + [0] * (sk.params.nsq - 1)
            text = replace_field(text, "f1", " ".join(map(str, vals)))
            for other in ("f2", "f3"):
                text = replace_field(text, other, " ".join(["0"] * sk.params.nsq))
        elif label == "T":
            # a grid point where G does not vanish
            rho_G = rho(sk.G.with_modulus(q), eval_domain(sk.params.n, q))
            vals = [int(np.flatnonzero(rho_G.any(axis=0))[0])]
        else:
            vals[0] = vals[0] % (q - 1) + 1
        return replace_field(text, label, " ".join(map(str, vals)))

    @pytest.mark.parametrize("label, match", [
        ("g0", "G does not vanish on T"),
        ("T", "G does not vanish on T"),
        ("f0", r"N\(F\) vanishes"),
        ("weights", "rhogamma"),
        ("W", "rhogamma"),
        ("rhogamma", "rhogamma"),
    ])
    def test_tampered_field_rejected(self, moderate_key, label, match):
        _, sk = moderate_key
        with pytest.raises(MalformedData, match=match):
            deserialize_private(self._tampered(sk, label))

    @pytest.fixture(scope="class")
    def non_invertible_F_text(self, moderate_key):
        """The key file of the moderate key with an F whose norm vanishes
        only inside T but that has no inverse mod p, rhogamma recomputed."""
        _, sk = moderate_key
        params, dom = sk.params, eval_domain(7, 113)
        rng = random.Random(85)
        for _ in range(2000):
            F = Quaternion([signed_ternary(49, params.d_f + 1, params.d_f, rng)]
                           + [signed_ternary(49, params.d_f, params.d_f, rng) for _ in range(3)])
            norms = rho_norms(rho(F.with_modulus(113), dom), 113)
            if not set(np.flatnonzero(norms == 0).tolist()) <= set(sk.T):
                continue
            try:
                quat_inverse_mod_p(F.with_modulus(3))
            except NotInvertible:
                rho_theta = scheme._rho_theta(sk.T, sk.weights, sk.W, params)
                rho_gamma = quat.rho_mul(rho(F.with_modulus(113), dom), rho_theta, 113)
                text = replace_field(serialize_private(sk), "rhogamma",
                                     " ".join(map(str, rho_gamma.T.reshape(-1))))
                for i, c in enumerate(F.rows):
                    text = replace_field(text, f"f{i}", " ".join(map(str, c)))
                return text
        pytest.fail("no F with N(F) vanishing only inside T is singular mod p")

    def test_F_not_invertible_mod_p_rejected(self, non_invertible_F_text):
        with pytest.raises(MalformedData, match="F is not invertible mod p"):
            deserialize_private(non_invertible_F_text)

    def test_cli_decrypt_with_non_invertible_F_exits_1(self, moderate_key, non_invertible_F_text,
                                                       tmp_path):
        pk, _ = moderate_key
        key = tmp_path / "singular.priv"
        key.write_text(non_invertible_F_text)
        ct = tmp_path / "msg.ct"
        ct.write_text(serialize_ct(encrypt(pk, random_message(MODERATE, 0), 1)))
        out = tmp_path / "msg.out"
        code = cli_main(["decrypt", "--key", str(key), "--in", str(ct),
                         "--out", str(out)], out=io.StringIO())
        assert code == 1
        assert not out.exists()

    def test_runs_no_convolution_but_the_mod_p_inverse(self, moderate_key):
        # the checks read evaluation arrays; the 7 convolutions are
        # ring_inverse's, for F^-1 mod p
        _, sk = moderate_key
        text = serialize_private(sk)
        CONV_COUNTER.reset()
        deserialize_private(text)
        assert CONV_COUNTER.count == 7


def golden_digest(name):
    """sha256 over keys for seeds 0-9, two ciphertexts per key (under the
    key and its reloaded copy) and their strict decrypts with both copies
    of the private key."""
    params = PARAM_SETS[name]
    h = hashlib.sha256()
    for seed in range(10):
        pk, sk = keygen(params, random.Random(seed))
        pub, priv = serialize_public(pk), serialize_private(sk)
        h.update(pub.encode())
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
        ("toy", "dbb1c5dd7ca6bb4694032ba838057ec873c5ca3d1ba248d32bfca2a0ed927994"),
        ("moderate", "509d6a8b2173df3ca54b61aeb36e2c727dfb0c3c932bfcd8137d415a98b8c6bd"),
        ("highest", "c02ac5a7b28497d083bc4225c3757c5c0edfbe7f6c275d3c8d680e1fc0ceb87d"),
    ])
    def test_outputs_unchanged(self, name, digest):
        assert golden_digest(name) == digest
