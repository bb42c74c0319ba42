"""The benchmark's workloads: inputs derived from the seed, one closed-loop
client, every output checked.

``stream-highest`` drives ``bqtru.scheme`` with keypairs made in set-up;
``files-highest`` drives ``bqtru.cli.main`` in a directory of its own, so
every op pays the key lifecycle.  Why each exists
and which numbers it should (not) move is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import string
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import bqtru.cli as cli
import bqtru.ring as ring
import bqtru.scheme as scheme
from bqtru.errors import DecryptionFailure, MalformedData
from bqtru.params import get_params

TEXT_ALPHABET = string.ascii_letters + string.digits + " .,;:!?'-\n"
# round trips must fail at most the library's own acceptance bar of
# 995 successful round trips per 1000
HONEST_FAILURE_BAR = 0.005
# a ciphertext the receiver rejects is sent again with fresh randomness, at
# most this many times in all; the library rejects about one honest
# ciphertext in 5,000, and most of them decrypt when sent again
MAX_SENDS = 3


def rng_for(seed: int, workload: str, what) -> random.Random:
    """Independent, reproducible stream per (seed, workload, purpose)."""
    return random.Random(f"{seed}/{workload}/{what}")


def make_payload(rng: random.Random, capacity: int) -> bytes:
    """What the ops send: uniformly random bytes, as a hybrid sender sends a
    session key or compressed, encrypted data; length uniform in
    [0, capacity].

    Structured payloads are not sent by the ops: the library fails on some
    of them whatever the encryption randomness (a known defect, see
    NOTES.md), and an op must not fail.  probe() measures that defect on
    every run instead.
    """
    return rng.randbytes(rng.randint(0, capacity))


def make_structured(rng: random.Random, capacity: int, j: int) -> bytes:
    """Probe payload j: ASCII text for even j, a single-byte run (a stand-in
    for padding and other low-entropy data) for odd j; length uniform in
    [0, capacity]."""
    length = rng.randint(0, capacity)
    if j % 2 == 0:
        return "".join(rng.choice(TEXT_ALPHABET) for _ in range(length)).encode()
    return bytes([rng.randrange(256)]) * length


def clear_caches():
    """Drop the library's process-wide caches so each set-up rebuilds them."""
    sub_index = getattr(ring, "_sub_index", None)
    if hasattr(sub_index, "cache_clear"):
        sub_index.cache_clear()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one op did.

    index: the op's number.  failed: the payload was not delivered.
    unexpected: the outcome is one the library does not document (an
    undocumented exception or exit code); any such op makes the run
    incorrect.  sends: ciphertexts sent for this payload, more than one
    when the receiver rejected one.
    """

    index: object
    failed: bool
    unexpected: bool
    steps: dict = field(default_factory=dict)
    digest: str = ""
    seconds: float = 0.0
    sends: int = 1


@dataclass
class StreamSession:
    seed: int
    pk: object
    sk: object
    capacity: int
    fingerprint: str

    def keypair(self):
        return self.pk, self.sk

    def close(self):
        pass


class StreamWorkload:
    """Sender and receiver in one process with long-lived keypairs.

    Each op encodes, encrypts and serializes a payload, then deserializes,
    strictly decrypts and decodes it; a rejected ciphertext is sent again
    with fresh randomness.
    """

    def __init__(self, name: str, params_name: str, ops_per_pass: int):
        self.name = name
        self.params_name = params_name
        self.params = get_params(params_name)
        self.ops_per_pass = ops_per_pass

    def setup(self, seed: int, variant: int = 0) -> StreamSession:
        """One session keypair; each variant has an independent key."""
        key = "key" if variant == 0 else f"key{variant}"
        pk, sk = scheme.keygen(self.params, rng_for(seed, self.name, key))
        session = StreamSession(
            seed, pk, sk, scheme.message_capacity(self.params),
            _digest(scheme.serialize_public(pk), scheme.serialize_private(sk)))
        # the first decrypt forces the lazy reduction of the private basis
        probe = b"set-up round trip"
        ct = scheme.encrypt(pk, scheme.encode_message(probe, self.params),
                            rng_for(seed, self.name, "setup"))
        if scheme.decode_message(scheme.decrypt(sk, ct, strict=True), self.params) != probe:
            raise RuntimeError("set-up round trip returned other bytes")
        return session

    def op(self, s: StreamSession, i: int) -> Outcome:
        P = self.params
        rng = rng_for(s.seed, self.name, i)
        payload = make_payload(rng, s.capacity)
        steps = {"encrypt": 0.0, "decrypt": 0.0}
        wires = []
        for sends in range(1, MAX_SENDS + 1):
            t0 = time.perf_counter()
            wire = scheme.serialize_ct(
                scheme.encrypt(s.pk, scheme.encode_message(payload, P), rng))
            t1 = time.perf_counter()
            wires.append(wire)
            try:
                got = scheme.decode_message(
                    scheme.decrypt(s.sk, scheme.deserialize_ct(wire), strict=True), P)
            except (DecryptionFailure, MalformedData) as exc:
                got = type(exc).__name__
            t2 = time.perf_counter()
            steps["encrypt"] += t1 - t0
            steps["decrypt"] += t2 - t1
            if not isinstance(got, str):
                break
        return Outcome(i, got != payload, False, steps,
                       _digest(s.fingerprint, payload, *wires, got), sends=sends)


@dataclass
class FilesSession:
    seed: int
    workdir: str
    capacity: int
    fingerprint: str = ""

    def keypair(self):
        """The keypair in the session's files, loaded as the CLI loads it."""
        pk = scheme.deserialize_public(_read(os.path.join(self.workdir, "key.pub")).decode())
        sk = scheme.deserialize_private(_read(os.path.join(self.workdir, "key.priv")).decode())
        return pk, sk

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_cli(*argv) -> int:
    """In-process ``bqtru`` command; its messages are discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        return cli.main(list(argv), out=sink)


class FilesWorkload:
    """The CLI key lifecycle: keygen, encrypt, strict decrypt per op, each
    command loading its key from the file the previous one wrote; a
    rejected ciphertext is encrypted again with a fresh seed."""

    def __init__(self, name: str, params_name: str, ops_per_pass: int, workroot: str):
        self.name = name
        self.params_name = params_name
        self.params = get_params(params_name)
        self.ops_per_pass = ops_per_pass
        self.workroot = workroot

    def setup(self, seed: int, variant: int = 0) -> FilesSession:
        """Scratch directory, warmed by one key lifecycle of its own."""
        os.makedirs(self.workroot, exist_ok=True)
        session = FilesSession(seed, tempfile.mkdtemp(prefix=self.name + "-", dir=self.workroot),
                               scheme.message_capacity(self.params))
        warm = self.op(session, f"setup{variant}")
        if warm.unexpected or warm.failed:
            session.close()
            raise RuntimeError("set-up key lifecycle failed")
        session.fingerprint = warm.digest
        return session

    def op(self, s: FilesSession, i) -> Outcome:
        rng = rng_for(s.seed, self.name, i)
        payload = make_payload(rng, s.capacity)
        key_seed = rng.randrange(2 ** 31)
        key, msg, ct, out = (os.path.join(s.workdir, f) for f in ("key", "msg", "ct", "out"))
        with open(msg, "wb") as fh:
            fh.write(payload)
        steps = {"encrypt": 0.0, "decrypt": 0.0}
        t0 = time.perf_counter()
        code = run_cli("keygen", "--params", self.params_name, "--seed", str(key_seed),
                       "--out", key)
        steps["keygen"] = time.perf_counter() - t0
        if code != 0:
            return Outcome(i, True, True, steps, f"keygen exit {code}")
        files = [_read(key + ".pub"), _read(key + ".priv")]
        for sends in range(1, MAX_SENDS + 1):
            if os.path.exists(out):
                os.unlink(out)
            t1 = time.perf_counter()
            code = run_cli("encrypt", "--key", key + ".pub", "--in", msg, "--out", ct,
                           "--seed", str(rng.randrange(2 ** 31)))
            t2 = time.perf_counter()
            steps["encrypt"] += t2 - t1
            if code != 0:
                return Outcome(i, True, True, steps, f"encrypt exit {code}", sends=sends)
            code = run_cli("decrypt", "--key", key + ".priv", "--in", ct, "--out", out, "--strict")
            steps["decrypt"] += time.perf_counter() - t2
            files.append(_read(ct))
            # exit 3 is the documented strict rejection: send again
            if code != 3:
                break
        got = _read(out) if code == 0 else b""
        failed = code != 0 or got != payload
        # any other exit code than 0 and 3 is undocumented
        unexpected = code not in (0, 3)
        return Outcome(i, failed, unexpected, steps, _digest(*files, code, got),
                       sends=sends)


def make_workloads(workroot: str) -> dict:
    ws = [StreamWorkload("stream-highest", "highest", ops_per_pass=100),
          FilesWorkload("files-highest", "highest", ops_per_pass=16, workroot=workroot)]
    return {w.name: w for w in ws}


def probe(workload, keypairs, seed: int, count: int):
    """Send `count` structured payloads once each, through the scheme API.

    Payloads are drawn from the seed and spread over `keypairs` in turn.
    Returns (delivered, undocumented): how many came back as the same
    bytes, and how many raised an exception the library does not document.
    """
    P = workload.params
    capacity = scheme.message_capacity(P)
    delivered = undocumented = 0
    for j in range(count):
        rng = rng_for(seed, workload.name, f"probe{j}")
        pk, sk = keypairs[j % len(keypairs)]
        payload = make_structured(rng, capacity, j)
        try:
            ct = scheme.encrypt(pk, scheme.encode_message(payload, P), rng)
            got = scheme.decode_message(scheme.decrypt(sk, ct, strict=True), P)
        except (DecryptionFailure, MalformedData):
            got = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            undocumented += 1
            got = None
        delivered += got == payload
    return delivered, undocumented


def distinct(outcomes) -> list:
    """One outcome per op, failed or unexpected if any run of it was.

    An op runs several times to be timed; it is one operation, attempted
    once, and the benchmark counts it once.
    """
    ops = {}
    for o in outcomes:
        first = ops.setdefault(o.index, Outcome(o.index, False, False))
        first.failed |= o.failed
        first.unexpected |= o.unexpected
        first.sends = max(first.sends, o.sends)
    return list(ops.values())


def problems(ops) -> list:
    """Why the outputs of a run's distinct ops are wrong, or an empty list."""
    found = []
    odd = sum(o.unexpected for o in ops)
    if odd:
        found.append(f"{odd} ops had outcomes the library does not document")
    bad = sum(o.failed for o in ops)
    if bad > max(1, HONEST_FAILURE_BAR * len(ops)):
        found.append(f"{bad} of {len(ops)} round trips failed, "
                     f"above the {HONEST_FAILURE_BAR:.1%} bar")
    return found


def run_passes(workload, sessions, seconds: float) -> list:
    """Closed loop with one client: the next op starts when the last returns.

    Runs ops 0 .. ops_per_pass-1 in order, then again, pass after pass,
    until `seconds` have passed; the first pass always runs to its end.
    Op i always uses session i mod len(sessions), so the figures rest on
    every session's key, not on one key's decoding cost.  Returns one list
    of outcomes per pass.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        this = []
        passes.append(this)
        for i in range(workload.ops_per_pass):
            if len(passes) > 1 and time.perf_counter() >= deadline:
                break
            this.append(run_op(workload, sessions[i % len(sessions)], i))
    return passes


def run_op(workload, session, i) -> Outcome:
    """Op i, timed as a whole; an exception becomes a failed outcome."""
    t0 = time.perf_counter()
    try:
        outcome = workload.op(session, i)
    except Exception:
        # an undocumented exception is a wrong output; record it and go on
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(i, True, True, {}, "error")
    outcome.seconds = time.perf_counter() - t0
    return outcome
