"""Key generation, encryption, CVP-based decryption, and their text files.

Keys live over the bivariate convolution ring.  keygen derives a keypair
from a 256-bit seed; the private key keeps the seed, its secret fields
(F, G, and theta's nonzero weight mod q and scalar quaternion W) and
F^-1 mod p, and derives the rest.  keygen admits only a G whose secret
set T, the grid points where G vanishes, is {(1,1)}: every balanced G
vanishes there, so that point is public.  Messages (centered mod p) and
ciphertexts (in [0, q)) are int64 (4, n^2) arrays, a row per component,
like a Quaternion's rows and the evaluation arrays rho(F): rho(F) is
EvalDomain.transform of F's rows, which reduces them mod q itself, so
signed rows go in as they are.  decrypt wraps V and M_hat, each one
array, in a Quaternion only for its reference products.  Each key
caches the (4, 4, n^2) left-multiplication tensor of its evaluation
array (PublicKey.left_H of rho(H), PrivateKey.left_F of rho(F)), so a
message costs one einsum and the two transforms.  Keys and
ciphertexts share one text format, defined by its writer alone: _dump
writes the header lines and a line per field (_public_form, _private_form
and _ct_form give each kind's header, fields' (label, count) and bound
hi), each value in [0, hi) spelled from a cached table of str(i); hi is
q, or 256 for the seed's bytes.  A loader checks the fields' counts,
their range, then their spelling, by having _dump write the text back
byte for byte from the values it parsed, so each file has one spelling;
a key's header is its Params.line(), read by Params.from_line.  A
header's q sizes the table, so a q above MAX_Q, which no key has, is
refused first.  A private key file holds the parameters and the
seed alone, and loading it derives the key again, so the seed pins keygen's
draws: ring.signed_ternary's sampler, their order and the retry limits.
All randomness comes from an explicit random.Random instance, or a seed
for one, supplied by the caller; ternary polynomials come from
ring.signed_ternary, centered residues from ring.centered, and scalar and
grid norms from quat.rho_norms.  A message is base-p digits, least
significant first: a _LEN_DIGITS-digit length prefix, zero past its first
_digits_for(capacity, p) digits, then _digits_for(255, p) digits per
byte; _to_digits and _from_digits are the one array rule each way.
_codec(params) holds, built on first use, the centered digits of each
byte value and of each length, tables _to_digits builds and
encode_message gathers from.
"""

from __future__ import annotations

import math
import random
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
    rho_apply,
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
        """rho(H), H's evaluation array, which encryption multiplies by."""
        return eval_domain(self.params.n, self.params.q).transform(self.H.rows)

    @cached_property
    def left_H(self) -> np.ndarray:
        """rho(H)'s left-multiplication tensor, built once; encrypt applies it."""
        return rho_left_tensor(self.rho_H, self.params.q)


# the text format's bound on q: _dump spells values from a table of q
# strings, and keygen refuses a larger q first
MAX_Q = 2 ** 16

# the secret set T of every key keygen makes: grid index 0, the point (1,1)
_T = [0]

# keygen draws at most this many G, and this many F for each usable G
# before drawing a new G; a key file holds only its seed, so both limits
# are part of the format
MAX_G_DRAWS = 10_000
F_DRAWS_PER_G = 100

# a private key file holds the key's seed as this many bytes
SEED_BYTES = 32


@dataclass
class PrivateKey:
    """A private key: its seed, the secret half of the key it derives
    (F, G, weight, W) and F^-1 mod p.

    The secret set T is {(1,1)}, grid index 0, and rho(theta) is
    weight * W there and zero elsewhere.  The private lattice D' is
    qZ^{n^2} + Z*lambda, with lambda = (n^2)^-1 * 1 mod q the Lagrange row
    of (1,1); decryption scans its q cosets of qZ^{n^2} and never builds
    a basis of D'.  rho_F caches rho(F), left_F its left-multiplication
    tensor, which decryption applies.
    """

    params: Params
    seed: int
    F: Quaternion
    G: Quaternion
    weight: int
    W: tuple
    F_p_inv: Quaternion

    @cached_property
    def rho_F(self) -> np.ndarray:
        return eval_domain(self.params.n, self.params.q).transform(self.F.rows)

    @cached_property
    def left_F(self) -> np.ndarray:
        return rho_left_tensor(self.rho_F, self.params.q)


@dataclass
class Ciphertext:
    """C: the components' coefficients as (4, n^2) int64 rows in [0, q); n is its shape's."""

    C: np.ndarray
    q: int

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ciphertext) and self.q == other.q
                and np.array_equal(self.C, other.C))


def keygen(params: Params, seed=None) -> tuple[PublicKey, PrivateKey]:
    """A keypair derived from a 256-bit seed, which the private key keeps.

    An int in [0, 2^256) is itself the seed, a random.Random gives one by
    getrandbits(256), and None takes one from the operating system's
    entropy through random.SystemRandom, as secrets does.  The private key
    is _private_key(params, seed); the public key is then H with rho(H) =
    rho(F)^-1 * rho(G) off (1,1), a pointwise product on the evaluation
    grid, and rho(theta) = weight * W at (1,1).
    """
    if seed is None:
        seed = random.SystemRandom().getrandbits(8 * SEED_BYTES)
    elif isinstance(seed, random.Random):
        seed = seed.getrandbits(8 * SEED_BYTES)
    elif not 0 <= seed < 2 ** (8 * SEED_BYTES):
        raise ValueError(f"a key seed is an int in [0, 2^{8 * SEED_BYTES}), not {seed}")
    sk = _private_key(params, seed)
    q, dom = params.q, eval_domain(params.n, params.q)
    rho_H = rho_mul(rho_inverse(sk.rho_F, q, _T), dom.transform(sk.G.rows), q)
    rho_H[:, 0] = np.multiply(sk.W, sk.weight) % q  # rho(theta) at (1,1)
    return PublicKey(params, Quaternion(dom.inverse_transform(rho_H), q)), sk


def _private_key(params: Params, seed: int) -> PrivateKey:
    """The private key that random.Random(seed) draws, retrying G until it
    vanishes at (1,1) alone and an F cooperates, at most MAX_G_DRAWS times.

    The first component of F carries one extra +1 (d_f+1 ones, d_f minus
    ones): a fully balanced component vanishes at the grid point (1,1),
    which would force the norm of F to vanish there and make the required
    inverses impossible.
    """
    n, q = params.n, params.q
    if q > MAX_Q:
        raise RetriesExhausted(f"no key has q = {q}: key files hold residues "
                               f"below 2^16 = {MAX_Q}")
    if params.d_g == 0:
        # G = 0 vanishes on the whole grid, so every draw gives this T
        raise RetriesExhausted("d_g = 0 makes T the whole grid, not {(1,1)}")
    # an F passes only if N(F) vanishes at none of the n^2 - 1 grid points
    # off (1,1), each a zero about once in q draws
    expected = MAX_G_DRAWS * F_DRAWS_PER_G * (1 - 1 / q) ** (params.nsq - 1)
    if expected < 1e-3:
        raise RetriesExhausted(f"an F draw passes with probability about (1 - 1/q)^(n^2 - 1) "
                               f"at n={n} q={q}: {expected:.1e} expected to pass in "
                               f"{MAX_G_DRAWS * F_DRAWS_PER_G}")
    rng = random.Random(seed)
    dom = eval_domain(n, q)
    for _ in range(MAX_G_DRAWS):
        G = Quaternion(signed_ternary(params.nsq, [params.d_g] * 4, [params.d_g] * 4, rng))
        if derive_T(dom.transform(G.rows)) != _T:
            continue
        found = _find_F(params, dom, rng)
        if found is None:
            continue
        F, F_p_inv = found
        weight = rng.randrange(1, q)
        while True:
            W = tuple(rng.randrange(1, q) for _ in range(4))
            if rho_norms(W, q) != 0:
                break
        return PrivateKey(params, seed, F, G, weight, W, F_p_inv)
    raise RetriesExhausted(f"no usable G found in {MAX_G_DRAWS} attempts")


def _find_F(params: Params, dom: EvalDomain, rng: random.Random):
    """(F, F^-1 mod p) for an F whose norm vanishes at no grid point but
    (1,1) and is invertible mod p, or None when all F_DRAWS_PER_G draws fail."""
    nsq, d_f = params.nsq, params.d_f
    for _ in range(F_DRAWS_PER_G):
        F = Quaternion(signed_ternary(nsq, [d_f + 1] + [d_f] * 3, [d_f] * 4, rng))
        norm = quat_norm(F.with_modulus(dom.q))
        if norm_zeros_off_T(dom.transform(norm[None])[0], _T).size:
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
        phi = signed_ternary(nsq, [params.d_phi] * 4, [params.d_phi] * 4, rng)
    dom = eval_domain(params.n, q)
    h_phi = dom.inverse_transform(rho_apply(pk.left_H, dom.transform(phi), q))
    return Ciphertext((p * h_phi + M) % q, q)


def decrypt(sk: PrivateKey, ct: Ciphertext, strict: bool = False) -> np.ndarray:
    """Recover M by solving one closest-vector problem per component.

    F o C equals a point of D' = qZ^{n^2} + Z*lambda, lambda = (n^2)^-1 * 1
    mod q, plus the small vector p*G o Phi + F o M; subtracting the closest
    lattice point and reducing centered mod p undoes the blinding; M's rows
    return centered, as an int64 (4, n^2) array.

    The closest point is found exactly by scanning the q cosets of
    qZ^{n^2} in D' for each of the four components.  The work does not
    depend on the ciphertext, so strict rejections cost no more than
    honest decryptions.  F o C mod q is computed pointwise on the evaluation
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
    V = targets - coset_decode(np.full(params.nsq, pow(params.nsq, -1, q)), q, targets)
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
    """The codec's constants at params, computed on first use: the
    capacity, the length prefix's significant digits, the digits per byte,
    the place values p**k of as many digits as the larger of the two, and
    two digit tables built by _to_digits, row v the centered digits of v:
    one of each byte value 0..255 and one of each length 0..capacity.

    The digits are centered residues: digit 0 stays 0, so padding and
    leading zeros do not bias the coefficient sums (a large per-component
    sum lines up with a short lattice direction and breaks decryption)."""
    p = params.p
    per = _digits_for(255, p)
    cap = (4 * params.nsq - _LEN_DIGITS) // per
    low = _digits_for(cap, p)
    places = p ** np.arange(max(low, per))
    byte_digits = centered(_to_digits(np.arange(256), places[:per], p), p)
    length_digits = centered(_to_digits(np.arange(cap + 1), places[:low], p), p)
    return cap, low, per, places, byte_digits, length_digits


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
    cap, low, _, _, byte_digits, length_digits = _codec(params)
    if len(payload) > cap:
        raise PayloadTooLarge(f"{len(payload)} bytes exceed the {cap}-byte capacity")
    flat = np.zeros(4 * params.nsq, dtype=np.int64)
    body = byte_digits[np.frombuffer(payload, dtype=np.uint8)].reshape(-1)
    flat[:low] = length_digits[len(payload)]
    flat[_LEN_DIGITS:_LEN_DIGITS + body.size] = body
    return flat.reshape(4, params.nsq)


def decode_message(M, params: Params) -> bytes:
    p, half = params.p, (params.p - 1) // 2
    cap, low, per, places, _, _ = _codec(params)
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


@lru_cache(maxsize=4)
def _spellings(hi: int) -> np.ndarray:
    """str(i) for each i in [0, hi), as an object array a field's values index."""
    return np.array([str(i) for i in range(hi)], dtype=object)


def _dump(kind: str, header_line: str, layout: tuple, hi: int, rows: np.ndarray) -> str:
    """A file of this layout holding rows, one per (label, count) of it,
    each value in [0, hi) spelled str(int) from the table _spellings(hi).
    An hi above MAX_Q, which no key's q is, and a value out of range are
    MalformedData, raised before a table is built or read."""
    if hi > MAX_Q:
        raise MalformedData(f"no key has q = {hi} > 2^16: keygen refuses it")
    if rows.min() < 0 or rows.max() >= hi:
        bad = ((rows < 0) | (rows >= hi)).any(axis=1).argmax()
        raise MalformedData(f"field {layout[bad][0]} malformed")
    lines = [f"{_MAGIC} {kind}", header_line]
    lines += [label + ": " + " ".join(words)
              for (label, _), words in zip(layout, _spellings(hi)[rows].tolist())]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=32)
def _quat_layout(label: str, nsq: int) -> tuple:
    """The fields label0..label3 that hold a quaternion's (4, n^2) coefficient rows."""
    return tuple((f"{label}{i}", nsq) for i in range(4))


# each kind's (kind, header line, layout, bound hi of its values): the one
# definition of its files, which serialize_* writes and deserialize_*
# holds a text to

def _public_form(params: Params) -> tuple:
    return "public", params.line(), _quat_layout("h", params.nsq), params.q


def _private_form(params: Params) -> tuple:
    return "private-seed", params.line(), (("seed", SEED_BYTES),), 256


def _ct_form(q: int, n: int) -> tuple:
    return "ct", f"q={q} n={n}", _quat_layout("c", n * n), q


def _parse(text: str) -> tuple:
    """(header line, {label: int64 values}) of a file's text, its fields
    read leniently: other spellings than the writer's parse too, and
    _written refuses them."""
    try:
        _, head, *lines = text.split("\n")
        return head, {label: np.array(values.split(), dtype=np.int64)
                      for label, _, values in (line.partition(":") for line in lines)}
    except (ValueError, OverflowError) as exc:
        raise MalformedData(f"not a {_MAGIC} file: {exc}") from exc


def _written(text: str, kind: str, header_line: str, layout: tuple, hi: int,
             fields: dict) -> np.ndarray:
    """The values of layout's fields as rows, in order, if each field
    holds its count of values in [0, hi) and _dump writes text from them
    byte for byte; a missing field, another count, a value out of range
    (which _dump refuses) and any other spelling are MalformedData,
    checked in that order."""
    try:
        rows = [fields[label] for label, _ in layout]
    except KeyError as exc:
        raise MalformedData(f"a {kind} file needs the field {exc}") from exc
    for (label, count), values in zip(layout, rows):
        if len(values) != count:
            raise MalformedData(f"field {label} malformed")
    rows = np.stack(rows)
    if _dump(kind, header_line, layout, hi, rows) != text:
        raise MalformedData(f"not a {_MAGIC} {kind} file as written")
    return rows


def serialize_public(pk: PublicKey) -> str:
    return _dump(*_public_form(pk.params), pk.H.rows)


def serialize_private(sk: PrivateKey) -> str:
    seed = np.array([list(sk.seed.to_bytes(SEED_BYTES, "big"))])
    return _dump(*_private_form(sk.params), seed)


def serialize_ct(ct: Ciphertext) -> str:
    return _dump(*_ct_form(ct.q, math.isqrt(ct.C.shape[1])), ct.C)


def deserialize_public(text: str) -> PublicKey:
    head, fields = _parse(text)
    params = Params.from_line(head)
    return PublicKey(params, Quaternion(_written(text, *_public_form(params), fields), params.q))


def deserialize_private(text: str) -> PrivateKey:
    """Parse a private key file, its parameters and seed, and derive the
    key from them as keygen does, without its public half.  A seed that
    derives no key at the file's parameters, like a field out of range,
    raises MalformedData."""
    head, fields = _parse(text)
    params = Params.from_line(head)
    seed = int.from_bytes(bytes(_written(text, *_private_form(params), fields)[0].tolist()), "big")
    try:
        return _private_key(params, seed)
    except RetriesExhausted as exc:
        raise MalformedData(f"the key file's seed derives no key: {exc}") from exc


def deserialize_ct(text: str) -> Ciphertext:
    head, fields = _parse(text)
    try:  # _written refuses any other spelling than "q=... n=..."
        q, n = (int(token.partition("=")[2]) for token in head.split(" "))
    except ValueError as exc:
        raise MalformedData(f"bad ciphertext header: {exc}") from exc
    if n < 1 or q < 3 or not fits_int64(n, q):
        raise MalformedData(f"a ciphertext needs n >= 1 and q >= 3, with q small enough "
                            f"for int64 arithmetic at n, not n={n} q={q}")
    return Ciphertext(_written(text, *_ct_form(q, n), fields), q)
