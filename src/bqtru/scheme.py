"""Key generation, encryption, CVP-based decryption, and their text files.

Keys live over the bivariate convolution ring; a private key holds its key
file's fields (F, G, the secret grid subset T with its nonzero weights mod
q, W) and F^-1 mod p, and derives the rest.  Keys and ciphertexts share
one text format, written by _dump and read by _load, in which each
integer has one spelling (_INTEGERS).  All randomness comes from an
explicit random.Random instance, or a seed for one, supplied by the
caller; ternary polynomials come from ring.signed_ternary, centered
residues from ring.centered, and scalar and grid norms from
quat.rho_norms.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DecryptionFailure,
    MalformedData,
    MessageOutOfRange,
    NotInvertible,
    PayloadTooLarge,
    RetriesExhausted,
)
from .ideal import derive_T
from .lattice import coset_decode
from .params import Params
from .quat import (
    Quaternion,
    norm_zeros_off_T,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_mul_strassen,
    quat_norm,
    rho,
    rho_interpolate,
    rho_inverse,
    rho_mul,
    rho_norms,
)
from .ring import EvalDomain, RingElem, as_rng, centered, eval_domain, signed_ternary


@dataclass
class PublicKey:
    params: Params
    H: Quaternion

    @cached_property
    def rho_H(self) -> np.ndarray:
        """rho(H), the evaluation array encryption multiplies by."""
        return rho(self.H, eval_domain(self.params.n, self.params.q))


# decryption scans the q^|T| cosets of qZ^{n^2} in D' per component; keygen
# and key load admit only secret sets T whose scan stays within this bound
MAX_SCAN_CLASSES = 2 ** 16


def _scannable(T, q: int) -> bool:
    """Whether decryption can scan the cosets of a secret set T exactly."""
    return 1 <= len(T) and q ** len(T) <= MAX_SCAN_CLASSES


@dataclass
class PrivateKey:
    """Secret key material: the key file's secret fields and F^-1 mod p.

    T is the secret set of grid indices, with one nonzero weight mod q per
    index in weights; rho(theta) is weight_t * W at each t in T and zero
    elsewhere.  The private lattice D' is qZ^{n^2} + sum_{t in T}
    Z*lambda_t, with lambda_t the Lagrange rows for the secret points
    (lagrange_T, entries in [0, q)).  Decryption scans the q^|T| cosets
    of qZ^{n^2} in D' and never builds a basis of D'; keygen and
    deserialize_private admit only a T for which _scannable(T, q) holds.
    rho_F caches rho(F mod q), the evaluation array decryption multiplies
    by, and rho_gamma derives rho(F) * rho(theta).
    """

    params: Params
    F: Quaternion
    G: Quaternion
    T: tuple
    weights: tuple
    W: tuple
    F_p_inv: Quaternion

    @cached_property
    def lagrange_T(self) -> np.ndarray:
        return eval_domain(self.params.n, self.params.q).lagrange_matrix[list(self.T)]

    @cached_property
    def rho_F(self) -> np.ndarray:
        q = self.params.q
        return rho(self.F.with_modulus(q), eval_domain(self.params.n, q))

    @cached_property
    def rho_gamma(self) -> np.ndarray:
        return rho_mul(self.rho_F, _rho_theta(self.T, self.weights, self.W, self.params),
                       self.params.q)


@dataclass
class Ciphertext:
    C: Quaternion


def sample_ternary(n: int, d: int, rng: random.Random) -> RingElem:
    """Uniform polynomial with exactly d coefficients +1 and d coefficients -1."""
    return RingElem(signed_ternary(n * n, d, d, rng), n, None)


def keygen(params: Params, rng, max_attempts: int = 10_000):
    """Generate a keypair, retrying G until its zero set and F cooperate.

    The first component of F carries one extra +1 (d_f+1 ones, d_f minus
    ones): a fully balanced component vanishes at the grid point (1,1),
    which would force the norm of F to vanish there and make the required
    inverses impossible.

    All mod-q products are pointwise on the evaluation grid: rho(H) is
    rho(F)^-1 * rho(G) off T plus rho(theta), which is W * weight_t at
    each t in T and zero elsewhere, and rho_gamma = rho(F) * rho(theta).
    """
    n, q = params.n, params.q
    if q > MAX_SCAN_CLASSES:
        # even one secret point has q coset classes
        raise RetriesExhausted(f"no secret set T is scannable at q = {q}: decryption needs "
                               f"q^|T| <= 2^16 = {MAX_SCAN_CLASSES} coset classes")
    rng = as_rng(rng)
    dom = eval_domain(n, q)
    for _ in range(max_attempts):
        G = Quaternion(*(sample_ternary(n, params.d_g, rng) for _ in range(4)))
        rho_G = rho(G.with_modulus(q), dom)
        T = derive_T(rho_G)
        if not _scannable(T, q):
            continue
        found = _find_F(params, T, dom, rng)
        if found is None:
            continue
        F, F_p_inv = found
        weights = [rng.randrange(1, q) for _ in T]
        while True:
            W = tuple(rng.randrange(1, q) for _ in range(4))
            if rho_norms(W, q) != 0:
                break
        sk = PrivateKey(params, F, G, tuple(T), tuple(weights), W, F_p_inv)
        rho_H = (rho_mul(rho_inverse(sk.rho_F, q, T), rho_G, q)
                 + _rho_theta(T, weights, W, params)) % q
        return PublicKey(params, rho_interpolate(rho_H, dom)), sk
    raise RetriesExhausted(f"no usable G found in {max_attempts} attempts")


def _rho_theta(T, weights, W, params: Params) -> np.ndarray:
    """rho(theta): weight_t * W at each t in T, zero elsewhere."""
    rho_theta = np.zeros((params.nsq, 4), dtype=np.int64)
    rho_theta[list(T)] = np.outer(weights, W) % params.q
    return rho_theta


def _find_F(params: Params, T, dom: EvalDomain, rng: random.Random,
            attempts: int = 100):
    """(F, F^-1 mod p) for an F whose norm vanishes only inside T and is
    invertible mod p, or None when every attempt fails."""
    for _ in range(attempts):
        comps = [RingElem(signed_ternary(params.nsq, params.d_f + 1, params.d_f, rng),
                          params.n, None)]
        comps += [sample_ternary(params.n, params.d_f, rng) for _ in range(3)]
        F = Quaternion(*comps)
        if norm_zeros_off_T(dom.eval_all(quat_norm(F.with_modulus(dom.q))), T).size:
            continue
        try:
            return F, quat_inverse_mod_p(F.with_modulus(params.p))
        except NotInvertible:
            continue
    return None


def random_message(params: Params, rng) -> Quaternion:
    """Uniform quaternion with coefficients centered mod p (test utility)."""
    rng = as_rng(rng)
    half = (params.p - 1) // 2
    nsq = params.nsq
    comps = [
        RingElem(np.array([rng.randrange(-half, half + 1) for _ in range(nsq)]),
                 params.n, None)
        for _ in range(4)
    ]
    return Quaternion(*comps)


def encrypt(pk: PublicKey, M: Quaternion, rng, phi: Quaternion | None = None) -> Ciphertext:
    """C = p * H o Phi + M mod q, with a fresh ternary blinding Phi."""
    params = pk.params
    half = (params.p - 1) // 2
    for c in M.components:
        if c.modulus is not None or np.abs(c.coeffs).max(initial=0) > half:
            raise MessageOutOfRange("message coefficients must be centered mod p")
    if phi is None:
        rng = as_rng(rng)
        phi = Quaternion(*(sample_ternary(params.n, params.d_phi, rng) for _ in range(4)))
    q = params.q
    dom = eval_domain(params.n, q)
    prod = rho_interpolate(rho_mul(pk.rho_H, rho(phi.with_modulus(q), dom), q), dom)
    return Ciphertext(prod.scale(params.p) + M.with_modulus(q))


def decrypt(sk: PrivateKey, ct: Ciphertext, strict: bool = False) -> Quaternion:
    """Recover M by solving one closest-vector problem per component.

    F o C equals a point of D' = qZ^{n^2} + sum_{t in T} Z*lambda_t plus
    the small vector p*G o Phi + F o M; subtracting the closest lattice
    point and reducing centered mod p undoes the blinding.

    The closest point is found exactly by scanning the q^|T| cosets of
    qZ^{n^2} in D' for each of the four components; no admitted key scans
    more than MAX_SCAN_CLASSES cosets, and keys from keygen at `moderate`
    and `highest` have T = {(1,1)}, q cosets.  The work does not depend on
    the ciphertext, so strict rejections cost no more than honest
    decryptions.  F o C mod q is computed pointwise on the evaluation
    grid, rho(F) * rho(C), with no convolution.  F_p^-1 o V mod p takes the
    Strassen route (7 convolutions), although ring.product_domain could
    run it pointwise on an auxiliary prime's grid: Strassen is the paper's
    reference path for this product, and perfbench's product-count check
    reads it here.
    """
    params = sk.params
    p, q = params.p, params.q
    dom = eval_domain(params.n, q)
    # the inverse transform returns the [0, q) representatives the scan expects
    targets = dom.inverse_transform(rho_mul(sk.rho_F, rho(ct.C, dom), q).T)
    # coset_decode returns target - centered residue, so v_comps are centered
    v_comps = targets - coset_decode(sk.lagrange_T, q, targets)
    V = Quaternion(*(RingElem(v % p, params.n, p) for v in v_comps))
    M_hat = quat_mul_strassen(sk.F_p_inv, V).lift_centered()
    if strict:
        # On success V - F o M_hat equals p * G o Phi exactly over Z.  Two
        # checkable consequences: each quaternion component of G o Phi sums
        # four convolution products bounded by the support overlap, and --
        # because G is balanced -- it evaluates to 0 at the grid point
        # (1, 1), i.e. its coefficients sum to zero.  (The mod-p residue of
        # V - F o M_hat is zero by construction of M_hat and carries no
        # information.)  The product is over Z, where 2 has no inverse, so
        # it cannot take the Strassen route.
        FM = quat_mul_schoolbook(sk.F, M_hat)
        limit = 8 * min(params.d_g, params.d_phi)
        for v, c in zip(v_comps, FM.components):
            resid = (v - c.coeffs) // p
            if np.abs(resid).max() > limit or resid.sum() != 0:
                raise DecryptionFailure("blinding residual is not a valid mask")
    return M_hat


# ---------------------------------------------------------------------------
# message encoding: bytes <-> centered base-p digits packed into a quaternion
# ---------------------------------------------------------------------------

_LEN_DIGITS = 16


def _digits_per_byte(p: int) -> int:
    k, v = 0, 1
    while v < 256:
        v *= p
        k += 1
    return k


def message_capacity(params: Params) -> int:
    """Largest payload (bytes) that fits after the length prefix."""
    return (4 * params.nsq - _LEN_DIGITS) // _digits_per_byte(params.p)


def encode_message(payload: bytes, params: Params) -> Quaternion:
    p = params.p
    per = _digits_per_byte(p)
    if len(payload) > message_capacity(params):
        raise PayloadTooLarge(
            f"{len(payload)} bytes exceed the {message_capacity(params)}-byte capacity"
        )
    digits = []
    v = len(payload)
    for _ in range(_LEN_DIGITS):
        digits.append(v % p)
        v //= p
    for byte in payload:
        b = byte
        for _ in range(per):
            digits.append(b % p)
            b //= p
    nsq = params.nsq
    flat = np.zeros(4 * nsq, dtype=np.int64)
    flat[:len(digits)] = digits
    # centered residue: digit 0 stays 0 so padding and leading zeros do not
    # bias the coefficient sums (a large per-component sum lines up with a
    # short lattice direction and breaks decryption)
    return Quaternion.from_vector(centered(flat, p), params.n, None)


def decode_message(M: Quaternion, params: Params) -> bytes:
    p = params.p
    per = _digits_per_byte(p)
    half = (p - 1) // 2
    flat = M.vector().astype(np.int64)
    if flat.min() < -half or flat.max() > half:
        raise MalformedData("coefficients are not centered base-p digits")
    flat = flat % p  # undo the centered residue: -1 -> p-1
    length = 0
    for i in range(_LEN_DIGITS - 1, -1, -1):
        length = length * p + int(flat[i])
    if length > message_capacity(params):
        raise MalformedData("length prefix exceeds capacity")
    out = bytearray()
    pos = _LEN_DIGITS
    for _ in range(length):
        b = 0
        for i in range(per - 1, -1, -1):
            b = b * p + int(flat[pos + i])
        if b > 255:
            raise MalformedData("byte group out of range")
        out.append(b)
        pos += per
    return bytes(out)


# ---------------------------------------------------------------------------
# serialization (text format, one item per file)
# ---------------------------------------------------------------------------

_MAGIC = "BQTRU v1"

# the one spelling of each integer a file may hold: ASCII digits, no sign on
# 0, no '+', no leading zeros, no '_'; matched once per header value or field line
_INTEGERS = re.compile(r"(?:0|-?[1-9][0-9]*)(?:\s+(?:0|-?[1-9][0-9]*))*")

# the labelled fields a file of each kind holds
_FIELDS = {
    "public": ("h0", "h1", "h2", "h3"),
    "private": ("f0", "f1", "f2", "f3", "g0", "g1", "g2", "g3",
                "T", "weights", "W", "rhogamma"),
    "ct": ("c0", "c1", "c2", "c3"),
}


def _param_line(params: Params) -> str:
    return (f"n={params.n} p={params.p} q={params.q} "
            f"df={params.d_f} dg={params.d_g} dphi={params.d_phi}")


def _read_header(line: str, keys) -> dict:
    """{key: int} from a 'key=value' line that gives each of keys exactly
    once and nothing else; anything else is MalformedData."""
    kv = {}
    for tok in line.split():
        key, sep, value = tok.partition("=")
        if not sep or key not in keys:
            raise MalformedData(f"unknown header entry {tok!r}")
        if key in kv:
            raise MalformedData(f"header key {key} repeated")
        if not _INTEGERS.fullmatch(value):
            raise MalformedData(f"header key {key} is not an integer")
        kv[key] = int(value)
    missing = [k for k in keys if k not in kv]
    if missing:
        raise MalformedData(f"header key {missing[0]} missing")
    return kv


def _parse_params(line: str) -> Params:
    kv = _read_header(line, ("n", "p", "q", "df", "dg", "dphi"))
    try:
        return Params(n=kv["n"], p=kv["p"], q=kv["q"],
                      d_f=kv["df"], d_g=kv["dg"], d_phi=kv["dphi"])
    except ValueError as exc:
        raise MalformedData(f"bad parameter line: {line!r}") from exc


def _dump(kind: str, header_line: str, fields: dict) -> str:
    """The magic line with the kind, the header line, one 'label: values' line per field."""
    out = [f"{_MAGIC} {kind}", header_line]
    out += [label + ": " + " ".join(map(str, np.asarray(values).tolist()))
            for label, values in fields.items()]
    return "\n".join(out) + "\n"


def _load(text: str, kind: str):
    """(header line, {label: values text}) of a file of this kind; a wrong
    magic line or kind, an unlabelled line, and a label that is repeated,
    missing or not one of the kind's fields are MalformedData."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != f"{_MAGIC} {kind}":
        raise MalformedData(f"not a {_MAGIC} {kind} file")
    labels = _FIELDS[kind]
    fields = {}
    for ln in lines[2:]:
        if ":" not in ln:
            raise MalformedData(f"expected 'label: values', got {ln!r}")
        label, _, rest = ln.partition(":")
        label = label.strip()
        if label not in labels:
            raise MalformedData(f"a {kind} file has no field {label}")
        if label in fields:
            raise MalformedData(f"field {label} repeated")
        fields[label] = rest.strip()
    missing = [label for label in labels if label not in fields]
    if missing:
        raise MalformedData(f"missing field {missing[0]}")
    return lines[1], fields


def _read_coeffs(fields: dict, label: str, count, lo: int, hi: int) -> np.ndarray:
    """The field's int64 values, each in [lo, hi): count of them, or any number if None."""
    text = fields[label]
    if text and not _INTEGERS.fullmatch(text):
        raise MalformedData(f"field {label} is not a list of integers")
    try:
        vals = np.array(text.split(), dtype=np.int64)
    except OverflowError as exc:
        raise MalformedData(f"field {label} is past the int64 range") from exc
    if count not in (None, len(vals)) or ((vals < lo) | (vals >= hi)).any():
        raise MalformedData(f"field {label} malformed")
    return vals


def _quat_fields(label: str, Q: Quaternion) -> dict:
    """The fields label0..label3 that hold the coefficients of Q."""
    return {f"{label}{i}": c.coeffs for i, c in enumerate(Q.components)}


def _read_quat(fields: dict, label: str, n: int, lo: int, hi: int, modulus) -> Quaternion:
    """The quaternion in fields label0..label3, n^2 values in [lo, hi) each."""
    return Quaternion(*(RingElem(_read_coeffs(fields, f"{label}{i}", n * n, lo, hi), n, modulus)
                        for i in range(4)))


def serialize_public(pk: PublicKey) -> str:
    return _dump("public", _param_line(pk.params), _quat_fields("h", pk.H.lift_positive()))


def serialize_private(sk: PrivateKey) -> str:
    return _dump("private", _param_line(sk.params), {
        **_quat_fields("f", sk.F), **_quat_fields("g", sk.G),
        "T": sk.T, "weights": sk.weights, "W": sk.W, "rhogamma": sk.rho_gamma.reshape(-1)})


def serialize_ct(ct: Ciphertext) -> str:
    return _dump("ct", f"q={ct.C.modulus} n={ct.C.n}", _quat_fields("c", ct.C.lift_positive()))


def deserialize_public(text: str) -> PublicKey:
    header, fields = _load(text, "public")
    params = _parse_params(header)
    return PublicKey(params, _read_quat(fields, "h", params.n, 0, params.q, params.q))


def deserialize_private(text: str) -> PrivateKey:
    """Parse a private key and check it from evaluation arrays alone.

    G must vanish on T, the grid zeros of N(F) (the scalar norms of rho(F))
    must lie inside T, the file's rhogamma must equal the key's rho_gamma,
    and F must be invertible mod p, checked in that order; any failure,
    like a field out of range, raises MalformedData.  The key keeps rho(F)
    cached for decryption.
    """
    header, fields = _load(text, "private")
    params = _parse_params(header)
    F = _read_quat(fields, "f", params.n, -1, 2, None)
    G = _read_quat(fields, "g", params.n, -1, 2, None)
    T = _read_coeffs(fields, "T", None, 0, params.nsq).tolist()
    if len(set(T)) != len(T):
        raise MalformedData("bad T field")
    if not _scannable(T, params.q):
        raise MalformedData(f"T must name at least one point, and q^|T| = {params.q}^{len(T)} "
                            f"coset classes may not exceed {MAX_SCAN_CLASSES}")
    weights = _read_coeffs(fields, "weights", len(T), 1, params.q)
    W = _read_coeffs(fields, "W", 4, 1, params.q)
    rho_gamma = _read_coeffs(fields, "rhogamma", 4 * params.nsq, 0, params.q)
    sk = PrivateKey(params, F, G, tuple(T), tuple(weights.tolist()), tuple(W.tolist()), None)
    if rho(G.with_modulus(params.q), eval_domain(params.n, params.q))[T].any():
        raise MalformedData("G does not vanish on T")
    if norm_zeros_off_T(rho_norms(sk.rho_F, params.q), T).size:
        raise MalformedData("N(F) vanishes at a grid point outside T")
    if not np.array_equal(rho_gamma, sk.rho_gamma.reshape(-1)):
        raise MalformedData("rhogamma is not rho(F) * rho(theta)")
    try:
        sk.F_p_inv = quat_inverse_mod_p(F.with_modulus(params.p))
    except NotInvertible as exc:
        raise MalformedData("F is not invertible mod p") from exc
    return sk


def deserialize_ct(text: str) -> Ciphertext:
    header, fields = _load(text, "ct")
    kv = _read_header(header, ("q", "n"))
    return Ciphertext(_read_quat(fields, "c", kv["n"], 0, kv["q"], kv["q"]))
