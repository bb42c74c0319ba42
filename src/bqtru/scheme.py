"""Key generation, encryption, CVP-based decryption, and their text files.

Keys live over the bivariate convolution ring; a private key holds its key
file's fields (F, G, the secret grid subset T with its nonzero weights mod
q, W) and F^-1 mod p, and derives the rest.  Messages (centered mod p)
and ciphertexts (in [0, q)) are int64 (4, n^2) arrays, a row per
component, like a Quaternion's rows and the evaluation arrays rho(F);
decrypt wraps V and M_hat, each one array, in a Quaternion only for its
reference products.  Each key caches the (4, 4, n^2) left-multiplication
tensor of its evaluation array (PublicKey.left_H of rho(H),
PrivateKey.left_F of rho(F)), so a message costs one einsum and the two
transforms.  Keys and ciphertexts share one text format, written by _dump
and read by _load, in which each integer has one spelling (_INTEGERS):
_dump formats a whole file with one % into a format cached per layout
(kind, header and the (label, count) of each field), from one flat
array; the private key's rhogamma field lists rho(gamma) point by
point, the one place a (4, n^2) array is transposed.
All randomness comes from an explicit random.Random instance, or a seed
for one, supplied by the caller; ternary polynomials come from
ring.signed_ternary, centered residues from ring.centered, and scalar and
grid norms from quat.rho_norms.  A message is base-p digits, least
significant first: a _LEN_DIGITS-digit length prefix, zero past its first
_digits_for(capacity, p) digits, then _digits_for(255, p) digits per
byte; _to_digits and _from_digits are the one array rule each way.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ContextMismatch,
    DecryptionFailure,
    MalformedData,
    MessageOutOfRange,
    NotInvertible,
    PayloadTooLarge,
    RetriesExhausted,
)
from .ideal import derive_T
from .lattice import coset_decode
from .params import Params, fits_int64
from .quat import (
    Quaternion,
    norm_zeros_off_T,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_mul_strassen,
    quat_norm,
    rho,
    rho_apply,
    rho_interpolate,
    rho_inverse,
    rho_left_tensor,
    rho_mul,
    rho_norms,
)
from .ring import EvalDomain, as_rng, centered, eval_domain, signed_ternary


@dataclass
class PublicKey:
    params: Params
    H: Quaternion

    @cached_property
    def rho_H(self) -> np.ndarray:
        """rho(H), the evaluation array encryption multiplies by."""
        return rho(self.H, eval_domain(self.params.n, self.params.q))

    @cached_property
    def left_H(self) -> np.ndarray:
        """rho(H)'s left-multiplication tensor, built once; encrypt applies it."""
        return rho_left_tensor(self.rho_H, self.params.q)


# decryption scans the q^|T| cosets of qZ^{n^2} in D' per component; keygen
# and key load admit only secret sets T whose scan stays within this bound
MAX_SCAN_CLASSES = 2 ** 16

# keygen draws at most this many F for each usable G before drawing a new G
F_DRAWS_PER_G = 100


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
    rho_F caches rho(F mod q), left_F its left-multiplication tensor, which
    decryption and rho_gamma = rho(F) * rho(theta) apply.
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
    def left_F(self) -> np.ndarray:
        return rho_left_tensor(self.rho_F, self.params.q)

    @cached_property
    def rho_gamma(self) -> np.ndarray:
        return rho_apply(self.left_F, _rho_theta(self.T, self.weights, self.W, self.params),
                         self.params.q)


@dataclass
class Ciphertext:
    """C: the components' coefficients as (4, n^2) int64 rows in [0, q); n is its shape's."""

    C: np.ndarray
    q: int

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ciphertext) and self.q == other.q
                and np.array_equal(self.C, other.C))


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
        G = Quaternion([signed_ternary(params.nsq, params.d_g, params.d_g, rng)
                        for _ in range(4)])
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
    rho_theta = np.zeros((4, params.nsq), dtype=np.int64)
    rho_theta[:, list(T)] = np.outer(W, weights) % params.q
    return rho_theta


def _find_F(params: Params, T, dom: EvalDomain, rng: random.Random):
    """(F, F^-1 mod p) for an F whose norm vanishes only inside T and is
    invertible mod p, or None when all F_DRAWS_PER_G draws fail."""
    nsq, d_f = params.nsq, params.d_f
    for _ in range(F_DRAWS_PER_G):
        F = Quaternion([signed_ternary(nsq, d_f + 1, d_f, rng)]
                       + [signed_ternary(nsq, d_f, d_f, rng) for _ in range(3)])
        norm = quat_norm(F.with_modulus(dom.q))
        if norm_zeros_off_T(dom.transform(norm[None])[0], T).size:
            continue
        try:
            return F, quat_inverse_mod_p(F.with_modulus(params.p))
        except NotInvertible:
            continue
    return None


def random_message(params: Params, rng) -> np.ndarray:
    """Uniform (4, n^2) message array with coefficients centered mod p (test utility)."""
    rng = as_rng(rng)
    half = (params.p - 1) // 2
    return np.array([rng.randrange(-half, half + 1) for _ in range(4 * params.nsq)],
                    dtype=np.int64).reshape(4, params.nsq)


def encrypt(pk: PublicKey, M, rng, phi=None) -> Ciphertext:
    """C = p * H o Phi + M mod q, with a fresh ternary blinding Phi.

    M is a (4, n^2) signed integer array of coefficients centered mod p,
    a row per component; a given Phi is any (4, n^2) such array, else Phi's
    rows are drawn from rng.  Phi is transformed once, multiplied by rho(H)
    through the key's cached tensor, and transformed back once into
    [0, q); then (p * H o Phi + M) mod q gives the ciphertext's rows.
    """
    params = pk.params
    p, q, nsq = params.p, params.q, params.nsq
    half = (p - 1) // 2
    M, phi = np.asarray(M), None if phi is None else np.asarray(phi)
    if M.shape != (4, nsq) or phi is not None and (phi.shape, phi.dtype.kind) != ((4, nsq), "i"):
        raise ContextMismatch(f"M and a given Phi must be (4, {nsq}) arrays, Phi signed integers")
    if M.dtype.kind != "i" or M.min() < -half or M.max() > half:
        raise MessageOutOfRange("message coefficients must be signed integers centered mod p")
    if phi is None:
        rng = as_rng(rng)
        phi = np.array([signed_ternary(nsq, params.d_phi, params.d_phi, rng) for _ in range(4)])
    dom = eval_domain(params.n, q)
    h_phi = dom.inverse_transform(rho_apply(pk.left_H, dom.transform(phi), q))
    return Ciphertext((p * h_phi + M) % q, q)


def decrypt(sk: PrivateKey, ct: Ciphertext, strict: bool = False) -> np.ndarray:
    """Recover M by solving one closest-vector problem per component.

    F o C equals a point of D' = qZ^{n^2} + sum_{t in T} Z*lambda_t plus
    the small vector p*G o Phi + F o M; subtracting the closest lattice
    point and reducing centered mod p undoes the blinding; M's rows return
    centered, as an int64 (4, n^2) array.

    The closest point is found exactly by scanning the q^|T| cosets of
    qZ^{n^2} in D' for each of the four components; no admitted key scans
    more than MAX_SCAN_CLASSES cosets, and keys from keygen at `moderate`
    and `highest` have T = {(1,1)}, q cosets.  The work does not depend on
    the ciphertext, so strict rejections cost no more than honest
    decryptions.  F o C mod q is computed pointwise on the evaluation
    grid, rho(F) * rho(C) through the key's cached tensor, with no
    convolution.  F_p^-1 o V mod p takes the Strassen route (7
    convolutions), although ring.product_domain could run it pointwise on
    an auxiliary prime's grid: Strassen is the paper's reference path for
    this product, and perfbench's product-count check reads it here.
    """
    params = sk.params
    n, p, q = params.n, params.p, params.q
    if ct.q != q or np.shape(ct.C) != (4, params.nsq):
        raise ContextMismatch(f"the ciphertext must be (4, {params.nsq}) residues mod {q}")
    dom = eval_domain(n, q)
    # the inverse transform returns the [0, q) representatives the scan expects
    targets = dom.inverse_transform(rho_apply(sk.left_F, dom.transform(ct.C), q))
    # coset_decode returns target - centered residue, so V's rows are centered
    V = targets - coset_decode(sk.lagrange_T, q, targets)
    M_hat = centered(quat_mul_strassen(sk.F_p_inv, Quaternion(V, p)).rows, p)
    if strict:
        # On success V - F o M_hat equals p * G o Phi exactly over Z.  Two
        # checkable consequences: each quaternion component of G o Phi sums
        # four convolution products bounded by the support overlap, and --
        # because G is balanced -- it evaluates to 0 at the grid point
        # (1, 1), i.e. its coefficients sum to zero.  (The mod-p residue of
        # V - F o M_hat is zero by construction of M_hat and carries no
        # information.)  The product is over Z, where 2 has no inverse, so
        # it cannot take the Strassen route.
        resid = (V - quat_mul_schoolbook(sk.F, Quaternion(M_hat)).rows) // p
        if np.abs(resid).max() > 8 * min(params.d_g, params.d_phi) or resid.sum(axis=1).any():
            raise DecryptionFailure("blinding residual is not a valid mask")
    return M_hat


# ---------------------------------------------------------------------------
# message encoding: bytes <-> centered base-p digits in a (4, n^2) array
# ---------------------------------------------------------------------------

_LEN_DIGITS = 16


def _digits_for(v: int, p: int) -> int:
    """How many base-p digits the integers 0..v need: the least k with p**k > v."""
    k = 0
    while p ** k <= v:
        k += 1
    return k


@lru_cache(maxsize=32)
def _codec(params: Params) -> tuple:
    """The codec's constants at params, computed once: the capacity, the
    length prefix's significant digits, the digits per byte, and the place
    values p**k of as many digits as the larger of the two."""
    p = params.p
    per = _digits_for(255, p)
    cap = (4 * params.nsq - _LEN_DIGITS) // per
    low = _digits_for(cap, p)
    return cap, low, per, p ** np.arange(max(low, per))


def _to_digits(values, places: np.ndarray, p: int) -> np.ndarray:
    """Row i holds the base-p digits of values[i] at the place values places."""
    return np.asarray(values, dtype=np.int64)[:, None] // places % p


def _from_digits(digits: np.ndarray, places: np.ndarray) -> np.ndarray:
    """The values whose base-p digits, least significant first, are the rows of digits."""
    return digits @ places[:digits.shape[-1]]


def message_capacity(params: Params) -> int:
    """Largest payload (bytes) that fits after the length prefix."""
    return _codec(params)[0]


def encode_message(payload: bytes, params: Params) -> np.ndarray:
    p = params.p
    cap, low, per, places = _codec(params)
    if len(payload) > cap:
        raise PayloadTooLarge(f"{len(payload)} bytes exceed the {cap}-byte capacity")
    body = _to_digits(np.frombuffer(payload, dtype=np.uint8), places[:per], p)
    flat = np.zeros(4 * params.nsq, dtype=np.int64)
    flat[:low] = _to_digits([len(payload)], places[:low], p)[0]
    flat[_LEN_DIGITS:_LEN_DIGITS + body.size] = body.reshape(-1)
    # centered residue: digit 0 stays 0 so padding and leading zeros do not
    # bias the coefficient sums (a large per-component sum lines up with a
    # short lattice direction and breaks decryption)
    return centered(flat, p).reshape(4, params.nsq)


def decode_message(M, params: Params) -> bytes:
    p, half = params.p, (params.p - 1) // 2
    cap, low, per, places = _codec(params)
    M = np.asarray(M)
    if M.shape != (4, params.nsq) or M.dtype.kind not in "iu" or M.min() < -half or M.max() > half:
        raise MalformedData(f"a message is a (4, {params.nsq}) array of centered base-p digits")
    flat = M.reshape(-1).astype(np.int64) % p  # undo the centered residue: -1 -> p-1
    # any admitted length fits in low digits; reading no more keeps p**k in int64
    length = int(_from_digits(flat[:low], places))
    if flat[low:_LEN_DIGITS].any() or length > cap:
        raise MalformedData("length prefix exceeds capacity")
    values = _from_digits(flat[_LEN_DIGITS:_LEN_DIGITS + length * per].reshape(length, per),
                          places)
    if (values > 255).any():
        raise MalformedData("byte group out of range")
    return values.astype(np.uint8).tobytes()


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


@lru_cache(maxsize=32)
def _file_format(kind: str, header_line: str, layout: tuple) -> str:
    """The %-format of a whole file: the magic line with the kind, the
    header line, and one 'label: %d ...' line per (label, count) of layout."""
    lines = [f"{_MAGIC} {kind}", header_line]
    lines += [label + ": " + " ".join(["%d"] * count) for label, count in layout]
    return "\n".join(lines) + "\n"


def _dump(kind: str, header_line: str, layout: tuple, values: np.ndarray) -> str:
    """A file of this layout holding the flat int64 values in order, each
    spelled str(int), by one % into the layout's cached format."""
    return _file_format(kind, header_line, layout) % tuple(values.tolist())


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


@lru_cache(maxsize=32)
def _quat_layout(label: str, nsq: int) -> tuple:
    """The fields label0..label3 that hold a quaternion's (4, n^2) coefficient rows."""
    return tuple((f"{label}{i}", nsq) for i in range(4))


def _read_rows(fields: dict, label: str, n: int, lo: int, hi: int) -> np.ndarray:
    """The (4, n^2) rows in fields label0..label3, n^2 values in [lo, hi) each."""
    return np.stack([_read_coeffs(fields, f"{label}{i}", n * n, lo, hi) for i in range(4)])


def serialize_public(pk: PublicKey) -> str:
    return _dump("public", _param_line(pk.params), _quat_layout("h", pk.params.nsq),
                 pk.H.rows.ravel())


def serialize_private(sk: PrivateKey) -> str:
    nsq, t = sk.params.nsq, len(sk.T)
    layout = (_quat_layout("f", nsq) + _quat_layout("g", nsq)
              + (("T", t), ("weights", t), ("W", 4), ("rhogamma", 4 * nsq)))
    return _dump("private", _param_line(sk.params), layout, np.concatenate([
        sk.F.rows.ravel(), sk.G.rows.ravel(), sk.T, sk.weights, sk.W,
        sk.rho_gamma.T.ravel()]))


def serialize_ct(ct: Ciphertext) -> str:
    nsq = ct.C.shape[1]
    return _dump("ct", f"q={ct.q} n={math.isqrt(nsq)}", _quat_layout("c", nsq), ct.C.ravel())


def deserialize_public(text: str) -> PublicKey:
    header, fields = _load(text, "public")
    params = _parse_params(header)
    return PublicKey(params, Quaternion(_read_rows(fields, "h", params.n, 0, params.q), params.q))


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
    F = Quaternion(_read_rows(fields, "f", params.n, -1, 2))
    G = Quaternion(_read_rows(fields, "g", params.n, -1, 2))
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
    if rho(G.with_modulus(params.q), eval_domain(params.n, params.q))[:, T].any():
        raise MalformedData("G does not vanish on T")
    if norm_zeros_off_T(rho_norms(sk.rho_F, params.q), T).size:
        raise MalformedData("N(F) vanishes at a grid point outside T")
    if not np.array_equal(rho_gamma, sk.rho_gamma.T.reshape(-1)):
        raise MalformedData("rhogamma is not rho(F) * rho(theta)")
    try:
        sk.F_p_inv = quat_inverse_mod_p(F.with_modulus(params.p))
    except NotInvertible as exc:
        raise MalformedData("F is not invertible mod p") from exc
    return sk


def deserialize_ct(text: str) -> Ciphertext:
    header, fields = _load(text, "ct")
    kv = _read_header(header, ("q", "n"))
    n, q = kv["n"], kv["q"]
    if n < 1 or q < 3 or not fits_int64(n, q):
        raise MalformedData(f"a ciphertext needs n >= 1 and q >= 3, with q small enough "
                            f"for int64 arithmetic at n, not n={n} q={q}")
    return Ciphertext(_read_rows(fields, "c", n, 0, q), q)
