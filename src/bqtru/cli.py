"""Command-line front end: key lifecycle, file encryption, analysis
reports, operation-count benchmarks, and a desk-scale lattice-attack demo.

Exit codes: 0 success, 1 I/O or malformed input, 2 key generation
exhausted its retries, 3 decryption failure (strict mode), 4 payload too
large, 5 basis reduction exceeded its step budget.  main reads them from
EXIT_CODES, the one table that maps each error to its code.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import statistics
import sys
import tempfile
import time
from functools import lru_cache

import numpy as np

from .analysis import analysis_report, expansion_ratio, public_key_size_bits
from .errors import (
    BqtruError,
    DecryptionFailure,
    MalformedData,
    NotInvertible,
    PayloadTooLarge,
    ReductionBudgetExceeded,
    RetriesExhausted,
)
from .ideal import build_bqtru_lattice, hybrid_norm, rho_flat
from .lattice import gaussian_heuristic, lll_reduce
from .ntru import conv as ntru_conv
from .params import PARAM_SETS, Params, get_params
from .quat import (
    Quaternion,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_mul_strassen,
    rho,
    rho_interpolate,
    rho_mul,
)
from .ring import CONV_COUNTER, RingElem, eval_domain
from .scheme import (
    decode_message,
    decrypt,
    deserialize_ct,
    deserialize_private,
    deserialize_public,
    encode_message,
    encrypt,
    keygen,
    serialize_ct,
    serialize_private,
    serialize_public,
)

def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BQTRU_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MalformedData(f"BQTRU_SEED={env!r} is not an integer")
    return None


def _rng_from(args) -> random.Random:
    # Random(None) seeds itself from system entropy
    return random.Random(_resolve_seed(args))


def _resolve_params(args) -> tuple[Params, str]:
    if getattr(args, "n", None) is not None:
        explicit = (args.p, args.q, args.d_f, args.d_g, args.d_phi)
        if any(v is None for v in explicit):
            raise MalformedData("explicit parameters need --p --q --d-f --d-g --d-phi")
        p = Params(args.n, args.p, args.q, args.d_f, args.d_g, args.d_phi)
        return p, "custom"
    name = args.params
    return get_params(name), name


def _write_atomic(path: str, data) -> None:
    """Write via a temp file in the same directory so failures leave no
    partial output behind."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bqtru-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _warn_if_toy(label: str, out) -> None:
    if label == "toy":
        print("WARNING: 'toy' parameters are NOT SECURE (testing only)", file=out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_keygen(args, out) -> int:
    params, label = _resolve_params(args)
    _warn_if_toy(label, out)
    rng = _rng_from(args)
    pk, sk = keygen(params, rng)
    _write_atomic(args.out + ".pub", serialize_public(pk))
    _write_atomic(args.out + ".priv", serialize_private(sk))
    print(f"wrote {args.out}.pub and {args.out}.priv", file=out)
    print(f"parameter_set = {label}", file=out)
    print(f"packed_public_key_bits = {public_key_size_bits(params)}", file=out)
    return 0


def cmd_encrypt(args, out) -> int:
    pk = deserialize_public(_read_text(args.key))
    with open(getattr(args, "in"), "rb") as fh:
        payload = fh.read()
    M = encode_message(payload, pk.params)
    ct = encrypt(pk, M, _rng_from(args))
    _write_atomic(args.out, serialize_ct(ct))
    print(f"encrypted {len(payload)} bytes -> {args.out}", file=out)
    return 0


def cmd_decrypt(args, out) -> int:
    sk = deserialize_private(_read_text(args.key))
    ct = deserialize_ct(_read_text(getattr(args, "in")))
    M = decrypt(sk, ct, strict=args.strict)
    try:
        payload = decode_message(M, sk.params)
    except MalformedData as exc:
        raise DecryptionFailure(f"recovered digits do not decode: {exc}")
    _write_atomic(args.out, payload)
    print(f"decrypted {len(payload)} bytes -> {args.out}", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    params, label = _resolve_params(args)
    _warn_if_toy(label, out)
    print(analysis_report(params, label), end="", file=out)
    return 0


def cmd_bench(args, out) -> int:
    params, label = _resolve_params(args)
    n, q = params.n, params.q
    rng = _rng_from(args)

    def rand_quat():
        return Quaternion(*(
            _rand_elem(n, q, rng) for _ in range(4)
        ))

    pairs = [(rand_quat(), rand_quat()) for _ in range(args.trials)]

    CONV_COUNTER.reset()
    quat_mul_schoolbook(*pairs[0])
    school_convs = CONV_COUNTER.count
    CONV_COUNTER.reset()
    quat_mul_strassen(*pairs[0])
    strassen_convs = CONV_COUNTER.count

    t_school = _median_time(lambda a, b: quat_mul_schoolbook(a, b), pairs)
    t_strassen = _median_time(lambda a, b: quat_mul_strassen(a, b), pairs)
    # both factors transformed, multiplied pointwise and transformed back
    dom = eval_domain(n, q)
    t_eval = _median_time(
        lambda a, b: rho_interpolate(rho_mul(rho(a, dom), rho(b, dom), q), dom), pairs)

    # univariate baseline over 4n^2 coefficients: one length-4n^2 cyclic
    # convolution per encryption, i.e. (4n^2)^2 = 16 n^4 scalar products
    big = 4 * n * n
    uni_pairs = [
        (np.array([rng.randrange(q) for _ in range(big)], dtype=np.int64),
         np.array([rng.randrange(3) - 1 for _ in range(big)], dtype=np.int64))
        for _ in range(args.trials)
    ]
    t_uni = _median_time(lambda h, r: ntru_conv(h, r, q), uni_pairs)

    # the quaternion inverse mod p that keygen and private-key load compute
    units = []
    while len(units) < args.trials:
        F = Quaternion(*(_rand_elem(n, params.p, rng) for _ in range(4)))
        try:
            quat_inverse_mod_p(F)
        except NotInvertible:
            continue
        units.append((F, None))
    CONV_COUNTER.reset()
    quat_inverse_mod_p(units[0][0])
    inverse_convs = CONV_COUNTER.count
    t_inverse = _median_time(lambda F, _: quat_inverse_mod_p(F), units)

    print(f"parameter_set = {label}", file=out)
    print(f"trials = {args.trials}", file=out)
    print(f"schoolbook_convolutions_per_product = {school_convs}", file=out)
    print(f"strassen_convolutions_per_product = {strassen_convs}", file=out)
    print(f"count_ratio = {school_convs}/{strassen_convs}", file=out)
    print(f"quaternion_scalar_mults = {strassen_convs * n ** 4}", file=out)
    print(f"univariate_scalar_mults = {16 * n ** 4}", file=out)
    print(f"median_schoolbook_product_s = {t_school:.6f}", file=out)
    print(f"median_strassen_product_s = {t_strassen:.6f}", file=out)
    print(f"median_evaluation_product_s = {t_eval:.6f}", file=out)
    print(f"median_univariate_conv_s = {t_uni:.6f}", file=out)
    print(f"mod_p_inverse_convolutions = {inverse_convs}", file=out)
    print(f"median_mod_p_inverse_s = {t_inverse:.6f}", file=out)
    return 0


def cmd_attack(args, out) -> int:
    params, label = _resolve_params(args)
    _warn_if_toy(label, out)
    rng = _rng_from(args)

    sk = None
    if args.target:
        pk = deserialize_public(_read_text(args.target))
        if pk.params.n != params.n or pk.params.q != params.q:
            raise MalformedData("target key does not match the chosen parameters")
    elif params.n <= 3:
        pk, sk = keygen(params, rng)

    # the dimensions are closed formulas; the lattices are built only to be reduced
    dim = 12 * params.nsq
    gh = gaussian_heuristic(dim, params.q ** (4 * params.nsq))
    print(f"key_recovery_lattice_dim = {dim}", file=out)
    print(f"expanded_lattice_dim = {expansion_ratio(params).built_dim}", file=out)
    print(f"gaussian_heuristic = {gh:.4f}", file=out)

    if params.n > 3:
        print("reduction skipped: dimension too large for desk-scale LLL", file=out)
        return 0

    M = build_bqtru_lattice(pk.H, eval_domain(params.n, params.q))
    rb = lll_reduce(M, delta=0.99, max_swaps=args.budget)
    norms = np.sqrt((rb.rows.astype(np.float64) ** 2).sum(axis=1))
    shortest = int(np.argmin(norms))
    print(f"reduced_shortest_norm = {norms[shortest]:.4f}", file=out)

    if sk is not None:
        four = 4 * params.nsq
        r = rho_flat(np.asarray(sk.rho_gamma, dtype=np.int64))
        key_vec = np.concatenate([
            sk.G.vector(), sk.F.vector(), -r,
        ]).astype(np.int64)
        hyb = hybrid_norm(key_vec[:four], key_vec[four:2 * four], key_vec[2 * four:])
        print(f"private_key_euclidean_norm = {math.sqrt(float(key_vec @ key_vec)):.4f}",
              file=out)
        print(f"private_key_hybrid_norm = {hyb:.4f}", file=out)
        recovered = any(
            np.array_equal(row, key_vec) or np.array_equal(row, -key_vec)
            for row in rb.rows
        )
        print(f"private_key_recovered = {'yes' if recovered else 'no'}", file=out)
    return 0


# ---------------------------------------------------------------------------
# helpers and argument wiring
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _rand_elem(n, q, rng):
    return RingElem(np.array([rng.randrange(q) for _ in range(n * n)]), n, q)


def _median_time(fn, pairs) -> float:
    samples = []
    for a, b in pairs:
        t0 = time.perf_counter()
        fn(a, b)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _add_param_flags(sub):
    sub.add_argument("--params", choices=sorted(PARAM_SETS), default="moderate")
    sub.add_argument("--n", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--d-f", dest="d_f", type=int)
    sub.add_argument("--d-g", dest="d_g", type=int)
    sub.add_argument("--d-phi", dest="d_phi", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqtru",
        description="quaternion lattice cryptosystem: keys, files, analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kg = subs.add_parser("keygen", help="generate a keypair")
    _add_param_flags(kg)
    kg.add_argument("--seed", type=int)
    kg.add_argument("--out", required=True, help="path prefix for .pub/.priv")
    kg.set_defaults(fn=cmd_keygen)

    enc = subs.add_parser("encrypt", help="encrypt a file")
    enc.add_argument("--key", required=True, help="public key file")
    enc.add_argument("--in", required=True, help="plaintext file")
    enc.add_argument("--out", required=True, help="ciphertext file")
    enc.add_argument("--seed", type=int)
    enc.set_defaults(fn=cmd_encrypt)

    dec = subs.add_parser("decrypt", help="decrypt a file")
    dec.add_argument("--key", required=True, help="private key file")
    dec.add_argument("--in", required=True, help="ciphertext file")
    dec.add_argument("--out", required=True, help="plaintext file")
    dec.add_argument("--strict", action="store_true",
                     help="reject ciphertexts whose noise residual is implausible")
    dec.set_defaults(fn=cmd_decrypt)

    ana = subs.add_parser("analyze", help="print the parameter analysis report")
    _add_param_flags(ana)
    ana.set_defaults(fn=cmd_analyze)

    ben = subs.add_parser("bench", help="operation counts and timings")
    _add_param_flags(ben)
    ben.add_argument("--trials", type=int, default=25)
    ben.add_argument("--seed", type=int)
    ben.set_defaults(fn=cmd_bench)

    atk = subs.add_parser("attack", help="build and reduce the key-recovery lattice")
    _add_param_flags(atk)
    atk.add_argument("--target", help="public key file (defaults to a fresh keypair)")
    atk.add_argument("--seed", type=int)
    atk.add_argument("--budget", type=int, default=200_000,
                     help="maximum LLL swap count before giving up")
    atk.set_defaults(fn=cmd_attack)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process."""
    return build_parser()


# (error type, exit code); the first match wins, so subclasses of
# BqtruError come before it
EXIT_CODES = (
    (RetriesExhausted, 2),
    (DecryptionFailure, 3),
    (PayloadTooLarge, 4),
    (ReductionBudgetExceeded, 5),
    (BqtruError, 1),
    (OSError, 1),
    (ValueError, 1),
)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
