"""Command-line front end: key lifecycle, file encryption, analysis
reports, operation-count benchmarks, and a desk-scale lattice-attack demo.

Exit codes: 0 success, 1 I/O or malformed input, 2 key generation
exhausted its retries (argparse exits 2 too, on a command line it cannot
parse), 3 decryption failure (the strict check, or recovered digits that
do not decode, in either mode), 4 payload too large, 5 basis reduction
exceeded its step budget.  main reads them from EXIT_CODES, the one
table that maps each error to its code.
"""

from __future__ import annotations

import argparse
import errno
import os
import statistics
import sys
import tempfile
import time
from functools import lru_cache

import numpy as np

from .analysis import analysis_report, public_key_size_bits
from .errors import (
    BqtruError,
    DecryptionFailure,
    MalformedData,
    NotInvertible,
    PayloadTooLarge,
    ReductionBudgetExceeded,
    RetriesExhausted,
)
from .ideal import build_key_lattice
from .lattice import gaussian_heuristic, lll_reduce
from .ntru import conv as ntru_conv
from .params import MODERATE, TOY, Params, get_params
from .quat import (
    Quaternion,
    quat_inverse_mod_p,
    quat_mul_schoolbook,
    quat_mul_strassen,
    quat_to_matrix,
    rho_mul,
)
from .ring import CONV_COUNTER, as_rng, eval_domain, mult_matrix
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


def _chosen_params(args) -> tuple[Params, str]:
    """The set --params gives and its label: a name labels its set, and a line is "custom"."""
    text = "moderate" if args.params is None else args.params
    if "=" in text:
        return Params.from_line(text), "custom"
    return get_params(text), text


def _write_atomic(*outputs) -> None:
    """Write each (path, data) pair via a temp file in its directory.  No path
    may be a directory, and all temps are written before any is moved into
    place, in order: a failure leaves no partial output and no path without
    those before it.  An OSError names the path, not its temp file."""
    temps, path = [], None
    try:
        for path, _ in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, data in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".bqtru-")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _warn_if_toy(params: Params, out) -> None:
    if params == TOY:
        print("WARNING: 'toy' parameters are NOT SECURE (testing only)", file=out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_keygen(args, out) -> int:
    params, label = _chosen_params(args)
    _warn_if_toy(params, out)
    pk, sk = keygen(params, args.seed)
    # the private key first, so no new public key is left without it
    _write_atomic((args.out + ".priv", serialize_private(sk)),
                  (args.out + ".pub", serialize_public(pk)))
    print(f"wrote {args.out}.pub and {args.out}.priv", file=out)
    print(f"parameter_set = {label}", file=out)
    print(f"packed_public_key_bits = {public_key_size_bits(params)}", file=out)
    return 0


def cmd_encrypt(args, out) -> int:
    pk = deserialize_public(_read_text(args.key))
    with open(getattr(args, "in"), "rb") as fh:
        payload = fh.read()
    M = encode_message(payload, pk.params)
    ct = encrypt(pk, M, args.seed)
    _write_atomic((args.out, serialize_ct(ct)))
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
    _write_atomic((args.out, payload))
    print(f"decrypted {len(payload)} bytes -> {args.out}", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    params, label = _chosen_params(args)
    _warn_if_toy(params, out)
    print(analysis_report(params, label), end="", file=out)
    return 0


def cmd_bench(args, out) -> int:
    params, label = _chosen_params(args)
    if args.trials < 1:
        raise MalformedData(f"--trials must be at least 1, got {args.trials}")
    n, q = params.n, params.q
    rng = as_rng(args.seed)

    def rand_quat(m):
        return Quaternion([[rng.randrange(m) for _ in range(n * n)] for _ in range(4)], m)

    pairs = [(rand_quat(q), rand_quat(q)) for _ in range(args.trials)]

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
    t_eval = _median_time(lambda a, b: Quaternion(dom.inverse_transform(
        rho_mul(dom.transform(a.rows), dom.transform(b.rows), q)), q), pairs)

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
        F = rand_quat(params.p)
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
    """Reduce the 4 n^2-dimensional key-recovery lattice of ideal.build_key_lattice.

    With a fresh key (no --target) the key rows, A_F's rows next to A_G's
    (quat.quat_to_matrix), count as recovered when a reduced row equals
    one of them up to sign, with each n x n block rotated by the same
    monomial: a rotated key decrypts as the key does.  Reduction runs for
    n <= 3 only.
    """
    if args.budget < 0:
        raise MalformedData(f"--budget must be at least 0, got {args.budget}")
    sk = None
    if args.target is not None:
        if args.params is not None:
            raise MalformedData("give --params or --target, not both: a key file holds its own")
        if args.seed is not None:
            raise MalformedData("give --seed or --target, not both: --seed draws a fresh key")
        pk = deserialize_public(_read_text(args.target))
        params = pk.params
    else:
        params, _ = _chosen_params(args)
        if params.n <= 3:
            pk, sk = keygen(params, args.seed)
    _warn_if_toy(params, out)

    # the dimension is a closed formula; the lattice is built only to be reduced
    dim = 4 * params.nsq
    gh = gaussian_heuristic(dim, params.q ** (2 * params.nsq))
    print(f"key_recovery_lattice_dim = {dim}", file=out)
    print(f"gaussian_heuristic = {gh:.4f}", file=out)

    if params.n > 3:
        print("reduction skipped: dimension too large for desk-scale LLL", file=out)
        return 0

    reduced = lll_reduce(build_key_lattice(pk.H), max_swaps=args.budget)
    norms = np.sqrt((reduced.astype(np.float64) ** 2).sum(axis=1))
    print(f"reduced_shortest_norm = {norms.min():.4f}", file=out)

    if sk is not None:
        key_rows = np.concatenate([quat_to_matrix(sk.F), quat_to_matrix(sk.G)],
                                  axis=1).reshape(2, dim)
        key_norm = np.sqrt((key_rows.astype(np.float64) ** 2).sum(axis=1)).min()
        # row r of mult_matrix(block) is the block times monomial r
        rotated = np.concatenate([np.hstack([mult_matrix(b) for b in row.reshape(4, -1)])
                                  for row in key_rows])
        keys = np.concatenate([rotated, -rotated])
        recovered = (reduced[:, None, :] == keys[None]).all(axis=2).any()
        print(f"private_key_euclidean_norm = {key_norm:.4f}", file=out)
        print(f"private_key_recovered = {'yes' if recovered else 'no'}", file=out)
    return 0


# ---------------------------------------------------------------------------
# helpers and argument wiring
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    """The file's bytes as UTF-8 text, line ends untranslated, as _write_atomic wrote them."""
    with open(path, "rb") as fh:
        return fh.read().decode()


def _median_time(fn, pairs) -> float:
    samples = []
    for a, b in pairs:
        t0 = time.perf_counter()
        fn(a, b)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqtru",
        description="quaternion lattice cryptosystem: keys, files, analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kg = subs.add_parser("keygen", help="generate a keypair")
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
    ana.set_defaults(fn=cmd_analyze)

    ben = subs.add_parser("bench", help="operation counts and timings")
    ben.add_argument("--trials", type=int, default=25)
    ben.add_argument("--seed", type=int)
    ben.set_defaults(fn=cmd_bench)

    atk = subs.add_parser("attack", help="build and reduce the key-recovery lattice")
    atk.add_argument("--target", help="public key file and its parameters (default: a fresh key)")
    atk.add_argument("--seed", type=int)
    atk.add_argument("--budget", type=int, default=200_000,
                     help="maximum LLL swap count before giving up")
    atk.set_defaults(fn=cmd_attack)
    for sub in (kg, ana, ben, atk):
        sub.add_argument("--params", help="toy, moderate (the default), highest, or a "
                         f"parameter line as key files hold it, '{MODERATE.line()}'")
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
