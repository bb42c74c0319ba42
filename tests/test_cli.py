import hashlib
import io
import random
import time

import pytest

import bqtru.cli as cli
import bqtru.ideal as ideal
from bqtru.cli import main
from bqtru.scheme import deserialize_ct, serialize_ct


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def keyfiles(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys")
    prefix = str(base / "m")
    code, _ = run("keygen", "--params", "moderate", "--seed", "41", "--out", prefix)
    assert code == 0
    return prefix + ".pub", prefix + ".priv"


class TestKeygen:
    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("keygen", "--params", "toy", "--seed", "7", "--out", a)[0] == 0
        assert run("keygen", "--params", "toy", "--seed", "7", "--out", b)[0] == 0
        for ext in (".pub", ".priv"):
            assert open(a + ext, "rb").read() == open(b + ext, "rb").read()

    def test_seed_changes_key(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("keygen", "--params", "toy", "--seed", "7", "--out", a)
        run("keygen", "--params", "toy", "--seed", "8", "--out", b)
        assert open(a + ".pub").read() != open(b + ".pub").read()

    def test_no_seed_draws_a_fresh_key(self, tmp_path):
        # without --seed each private key file holds a seed of its own
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("keygen", "--params", "toy", "--out", a)[0] == 0
        assert run("keygen", "--params", "toy", "--out", b)[0] == 0
        assert open(a + ".priv").read() != open(b + ".priv").read()

    def test_size_report(self, tmp_path):
        code, out = run("keygen", "--params", "moderate", "--seed", "1",
                        "--out", str(tmp_path / "k"))
        assert code == 0
        assert "packed_public_key_bits = 1372" in out

    def test_toy_flagged_not_secure(self, tmp_path):
        _, out = run("keygen", "--params", "toy", "--seed", "1",
                     "--out", str(tmp_path / "k"))
        assert "NOT SECURE" in out

    def test_unwritable_private_key_leaves_no_public_key(self, tmp_path, capsys):
        # a directory where the private key goes: the public key is not
        # published without it, and no temp file is left behind
        (tmp_path / "k.priv").mkdir()
        code, _ = run("keygen", "--params", "moderate", "--seed", "1",
                      "--out", str(tmp_path / "k"))
        assert code == 1
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "k.pub").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.priv"]

    def test_unwritable_public_key_keeps_old_private_key(self, tmp_path, capsys):
        # a directory where the public key goes: the existing private key is
        # not replaced by one whose public key cannot be written
        out = str(tmp_path / "k")
        assert run("keygen", "--params", "toy", "--seed", "1", "--out", out)[0] == 0
        old = (tmp_path / "k.priv").read_bytes()
        (tmp_path / "k.pub").unlink()
        (tmp_path / "k.pub").mkdir()
        code, _ = run("keygen", "--params", "toy", "--seed", "2", "--out", out)
        assert code == 1
        assert "Is a directory" in capsys.readouterr().err
        assert (tmp_path / "k.priv").read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.priv", "k.pub"]

    def test_bad_output_dir(self):
        code, _ = run("keygen", "--params", "toy", "--seed", "1",
                      "--out", "/nonexistent-dir-zzz/k")
        assert code == 1

    def test_unscannable_q_exits_2_at_once(self, tmp_path, capsys):
        # a key file spells residues below 2^16 only
        t0 = time.perf_counter()
        code, _ = run("keygen", "--params", "n=3 p=3 q=65539 df=1 dg=1 dphi=1",
                      "--seed", "1", "--out", str(tmp_path / "k"))
        assert code == 2
        assert time.perf_counter() - t0 < 0.5
        assert "key files hold residues below 2^16" in capsys.readouterr().err

    def test_underivable_params_exit_2_at_once(self, tmp_path, capsys):
        # about 3.5e-12 of F draws pass at n=53 q=107
        t0 = time.perf_counter()
        code, _ = run("keygen", "--params", "n=53 p=3 q=107 df=5 dg=5 dphi=5",
                      "--seed", "1", "--out", str(tmp_path / "k"))
        assert code == 2
        assert time.perf_counter() - t0 < 0.5
        assert "expected to pass" in capsys.readouterr().err


class TestParamsOption:
    """--params takes a set name or the parameter line key files hold."""

    def test_line_writes_the_named_sets_keys(self, tmp_path):
        named, lined = str(tmp_path / "named"), str(tmp_path / "lined")
        line = "n=7 p=3 q=113 df=7 dg=6 dphi=6"
        assert run("keygen", "--params", "moderate", "--seed", "41", "--out", named)[0] == 0
        code, out = run("keygen", "--params", line, "--seed", "41", "--out", lined)
        assert code == 0
        assert "parameter_set = custom" in out
        for ext in (".pub", ".priv"):
            assert open(named + ext, "rb").read() == open(lined + ext, "rb").read()
        assert open(lined + ".pub").read().splitlines()[1] == line

    @pytest.mark.parametrize("line", [
        "n=7  p=3 q=113 df=7 dg=6 dphi=6",
        "p=3 n=7 q=113 df=7 dg=6 dphi=6",
        "n=7 p=3 q=+113 df=7 dg=6 dphi=6",
        "n=7 p=3 q=0113 df=7 dg=6 dphi=6",
        "n=7 p=3 q=113 df=7 dg=6 dphi=6 ",
        "n=7 p=3 q=113 df=7 dg=6",
        "n=7 p=3 q=113 df=7 dg=6 dphi=6 x=1",
    ], ids=["double space", "reordered", "plus sign", "leading zero", "trailing space",
            "missing key", "extra key"])
    def test_respelled_line_exits_1(self, tmp_path, capsys, line):
        code, out = run("keygen", "--params", line, "--seed", "41",
                        "--out", str(tmp_path / "k"))
        assert code == 1
        assert out == "" and not list(tmp_path.iterdir())
        assert "parameter line" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["keygen", "analyze", "bench", "attack"])
    def test_unknown_name_exits_1_and_names_the_sets(self, tmp_path, capsys, command):
        argv = [command, "--params", "bogus"]
        if command == "keygen":
            argv += ["--out", str(tmp_path / "k")]
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert "'bogus'" in err and all(repr(name) in err for name in ("toy", "moderate",
                                                                        "highest"))

    def test_line_analyzed_as_custom(self):
        code, out = run("analyze", "--params", "n=7 p=3 q=113 df=7 dg=6 dphi=6")
        assert code == 0
        assert out.replace("custom", "moderate") == run("analyze", "--params", "moderate")[1]


class TestEncryptDecrypt:
    def test_round_trip(self, keyfiles, tmp_path):
        pub, priv = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"sixteen byte msg")
        ct = str(tmp_path / "ct")
        out = str(tmp_path / "out")
        assert run("encrypt", "--key", pub, "--in", str(msg), "--out", ct,
                   "--seed", "2")[0] == 0
        assert run("decrypt", "--key", priv, "--in", ct, "--out", out)[0] == 0
        assert open(out, "rb").read() == b"sixteen byte msg"

    def test_empty_file(self, keyfiles, tmp_path):
        pub, priv = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"")
        ct = str(tmp_path / "ct")
        out = str(tmp_path / "out")
        assert run("encrypt", "--key", pub, "--in", str(msg), "--out", ct,
                   "--seed", "3")[0] == 0
        assert run("decrypt", "--key", priv, "--in", ct, "--out", out)[0] == 0
        assert open(out, "rb").read() == b""

    def test_negative_seed_is_an_input_error(self, keyfiles, tmp_path, capsys):
        # random.Random(-1) draws what random.Random(1) draws, so -1 is refused
        pub, _ = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"hello")
        ct = tmp_path / "ct"
        code, out = run("encrypt", "--key", pub, "--in", str(msg), "--out", str(ct),
                        "--seed", "-1")
        assert code == 1
        assert out == "" and not ct.exists()
        assert capsys.readouterr().err.startswith("error: a seed is a nonnegative int")

    def test_payload_too_large(self, keyfiles, tmp_path):
        pub, _ = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"x" * 31)
        code, _ = run("encrypt", "--key", pub, "--in", str(msg),
                      "--out", str(tmp_path / "ct"), "--seed", "4")
        assert code == 4

    def test_corrupted_ciphertext_strict_exit_3(self, keyfiles, tmp_path):
        pub, priv = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"hello")
        ct_path = tmp_path / "ct"
        run("encrypt", "--key", pub, "--in", str(msg), "--out", str(ct_path),
            "--seed", "5")
        # shift a handful of coefficients far off; strict mode must notice
        ct = deserialize_ct(ct_path.read_text())
        ct.C[0, :5] = (ct.C[0, :5] + 40) % 113
        ct_path.write_text(serialize_ct(ct))
        out = str(tmp_path / "out")
        code, _ = run("decrypt", "--key", priv, "--in", str(ct_path),
                      "--out", out, "--strict")
        assert code == 3
        assert not (tmp_path / "out").exists()  # no partial output

    def test_other_keys_digits_exit_3_without_strict(self, keyfiles, tmp_path, capsys):
        # another key's private half recovers digits that are no message:
        # exit 3 as in strict mode, and no output
        pub, _ = keyfiles
        other = str(tmp_path / "other")
        assert run("keygen", "--params", "moderate", "--seed", "42", "--out", other)[0] == 0
        msg, ct = tmp_path / "msg", str(tmp_path / "ct")
        msg.write_bytes(b"hello")
        assert run("encrypt", "--key", pub, "--in", str(msg), "--out", ct, "--seed", "5")[0] == 0
        code, _ = run("decrypt", "--key", other + ".priv", "--in", ct,
                      "--out", str(tmp_path / "out"))
        assert code == 3
        assert "do not decode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input_file(self, keyfiles, tmp_path):
        pub, _ = keyfiles
        code, _ = run("encrypt", "--key", pub, "--in", str(tmp_path / "nope"),
                      "--out", str(tmp_path / "ct"))
        assert code == 1

    @pytest.mark.parametrize("where", ["missing directory", "directory in the way"])
    def test_failed_write_names_out_path(self, keyfiles, tmp_path, capsys, where):
        pub, _ = keyfiles
        msg = tmp_path / "msg"
        msg.write_bytes(b"hello")
        if where == "missing directory":
            target = tmp_path / "nonexistent" / "x"
        else:
            target = tmp_path / "x"
            target.mkdir()
        code, _ = run("encrypt", "--key", pub, "--in", str(msg), "--out", str(target),
                      "--seed", "6")
        err = capsys.readouterr().err
        assert code == 1
        assert repr(str(target)) in err and ".bqtru-" not in err
        assert not list(tmp_path.rglob(".bqtru-*"))  # the temp file is gone

    def test_malformed_key_file(self, tmp_path):
        bad = tmp_path / "bad.pub"
        bad.write_text("not a key\n")
        code, _ = run("encrypt", "--key", str(bad), "--in", str(bad),
                      "--out", str(tmp_path / "ct"))
        assert code == 1


# bytes an edit puts in a file: digits, signs, separators, line ends,
# letters, and bytes that are not UTF-8
EDIT_BYTES = [bytes([b]) for b in b"0123456789-+ =:_\t\r\nhqxT"] + [b"\xff", b"\x80", b"\xc3"]


def edit_bytes(data: bytes, rng: random.Random) -> bytes:
    """data with 1 to 3 bytes inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["insert", "delete", "replace"])
        i = rng.randrange(len(data) + (op == "insert"))
        new = b"" if op == "delete" else rng.choice(EDIT_BYTES)
        data = data[:i] + new + data[i + (op != "insert"):]
    return data


class TestEditedFiles:
    """An edited key or ciphertext file gives a documented exit code, and
    no exception leaves main."""

    @pytest.mark.parametrize("which", ["pub", "priv", "ct"])
    @pytest.mark.parametrize("params", ["toy", "moderate"])
    def test_exit_codes(self, tmp_path, params, which):
        prefix, msg, ct = str(tmp_path / "k"), tmp_path / "msg", str(tmp_path / "ct")
        msg.write_bytes(b"ed")
        assert run("keygen", "--params", params, "--seed", "12", "--out", prefix)[0] == 0
        assert run("encrypt", "--key", prefix + ".pub", "--in", str(msg), "--out", ct,
                   "--seed", "13")[0] == 0
        edited = str(tmp_path / f"edited.{which}")
        if which == "pub":
            honest = prefix + ".pub"
            argv = ["encrypt", "--key", edited, "--in", str(msg), "--out", str(tmp_path / "ct2")]
            allowed = {0, 1, 4}
        else:
            honest = prefix + ".priv" if which == "priv" else ct
            key, ct_in = (edited, ct) if which == "priv" else (prefix + ".priv", edited)
            argv = ["decrypt", "--strict", "--key", key, "--in", ct_in,
                    "--out", str(tmp_path / "out")]
            allowed = {0, 1, 3}
        with open(honest, "rb") as fh:
            data = fh.read()
        rng = random.Random(f"{params}-{which}")
        for _ in range(200):
            with open(edited, "wb") as fh:
                fh.write(edit_bytes(data, rng))
            assert run(*argv)[0] in allowed

    def test_crlf_key_file_refused(self, keyfiles, tmp_path):
        # a key file is read as its bytes spell it, line ends untranslated
        pub, _ = keyfiles
        crlf, msg = tmp_path / "crlf.pub", tmp_path / "msg"
        with open(pub, "rb") as fh:
            crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
        msg.write_bytes(b"hi")
        assert run("encrypt", "--key", str(crlf), "--in", str(msg),
                   "--out", str(tmp_path / "ct"))[0] == 1


class TestAnalyze:
    def test_moderate_report(self):
        code, out = run("analyze", "--params", "moderate")
        assert code == 0
        assert "public_key_bits = 1372  [reference: 1372]" in out
        assert "message_security_bits = 92" in out

    def test_highest_report(self):
        code, out = run("analyze", "--params", "highest")
        assert code == 0
        assert "public_key_bits = 3872  [reference: 3872]" in out
        # the paper's secret-subset count describes no key keygen makes
        assert ("secret_subset_search_log2 = 134.11  "
                "[paper's figure: keygen's keys have T = {(1,1)}]") in out

    def test_modulus_too_large_for_int64(self):
        code, _ = run("analyze", "--params", "n=3 p=3 q=4294967311 df=1 dg=1 dphi=1")
        assert code == 1

    def test_toy_report(self):
        code, out = run("analyze", "--params", "toy")
        assert code == 0
        assert "NOT SECURE" in out
        assert "[reference" not in out

    def test_byte_stable(self):
        assert run("analyze", "--params", "moderate") == run("analyze", "--params", "moderate")

    @pytest.mark.parametrize("name, digest", [
        ("toy", "bb77a7af8e3918c267723dbaad29d3364f822c324dddd6c946de8d7d94e3f596"),
        ("moderate", "ea7822eb30f5f9328d4c61fc7cba2d073271197acbadf75c09bdf32ae9cb84fa"),
        ("highest", "8ffdf2c6fc398d337a7ed638954cd41d345f90ef237723063a5943912b77de9d"),
    ], ids=["toy", "moderate", "highest"])
    def test_full_report_unchanged(self, name, digest):
        # sha256 of the whole report, every line and its formatting; the
        # secret-subset figure is flagged as the paper's, not keygen's
        code, out = run("analyze", "--params", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBench:
    def test_counters(self):
        code, out = run("bench", "--params", "toy", "--trials", "3", "--seed", "1")
        assert code == 0
        assert "schoolbook_convolutions_per_product = 16" in out
        assert "strassen_convolutions_per_product = 7" in out
        assert "count_ratio = 16/7" in out
        # univariate baseline over 4n^2 coefficients costs 16 n^4 mults
        assert "univariate_scalar_mults = 1296" in out
        lines = dict(line.split(" = ") for line in out.splitlines())
        for name in ("schoolbook", "strassen", "evaluation"):
            assert float(lines[f"median_{name}_product_s"]) > 0
        # e - 1 = 5 = 12 in base 3 at toy: f^2, one digit product, the check
        assert int(lines["mod_p_inverse_convolutions"]) <= 3
        assert float(lines["median_mod_p_inverse_s"]) > 0

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out = run("bench", "--params", "toy", "--trials", "1", "--seed", "-3")
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: a seed is a nonnegative int")

    def test_zero_trials_is_an_input_error(self, capsys):
        code, _ = run("bench", "--params", "toy", "--trials", "0")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --trials must be at least 1")


class TestParser:
    def test_built_once_and_stateless(self, tmp_path, monkeypatch):
        builds, stricts = [], []
        real_build, real_decrypt = cli.build_parser, cli.decrypt

        def build_parser():
            builds.append(1)
            return real_build()

        def decrypt(sk, ct, strict=False):
            stricts.append(strict)
            return real_decrypt(sk, ct, strict=strict)

        monkeypatch.setattr(cli, "build_parser", build_parser)
        monkeypatch.setattr(cli, "decrypt", decrypt)
        cli._parser.cache_clear()
        try:
            key, msg, ct = str(tmp_path / "k"), tmp_path / "msg", str(tmp_path / "ct")
            msg.write_bytes(b"abc")
            assert run("keygen", "--params", "moderate", "--seed", "3", "--out", key)[0] == 0
            assert run("encrypt", "--key", key + ".pub", "--in", str(msg), "--out", ct,
                       "--seed", "4")[0] == 0
            for flags in (["--strict"], []):
                out = str(tmp_path / "out")
                assert run("decrypt", "--key", key + ".priv", "--in", ct, "--out", out,
                           *flags)[0] == 0
                assert open(out, "rb").read() == b"abc"
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert stricts == [True, False]


class TestAttack:
    def test_toy_full_run(self, tmp_path):
        # LLL finds a key row, up to sign and a monomial rotation of its
        # blocks, in the 36-dimensional lattice of these toy keys
        for seed in ("1", "3", "11"):
            code, out = run("attack", "--params", "toy", "--seed", seed)
            assert code == 0
            assert [line.split(" = ")[0] for line in out.splitlines()[1:]] == [
                "key_recovery_lattice_dim", "gaussian_heuristic", "reduced_shortest_norm",
                "private_key_euclidean_norm", "private_key_recovered"]
            assert "key_recovery_lattice_dim = 36" in out
            assert "private_key_recovered = yes" in out

    def test_moderate_builds_only(self):
        code, out = run("attack", "--params", "moderate", "--seed", "11")
        assert code == 0
        assert "key_recovery_lattice_dim = 196" in out
        assert "expanded_lattice_dim" not in out
        assert "reduction skipped" in out

    def test_highest_builds_no_lattice_and_draws_no_key(self, monkeypatch):
        # the dimension line is a closed formula: the 484-dimensional
        # lattice is neither built nor reduced
        def refuse(*_):
            raise AssertionError("attack built a lattice or drew a key it does not use")

        monkeypatch.setattr(ideal, "build_key_lattice", refuse)
        monkeypatch.setattr(cli, "build_key_lattice", refuse)
        monkeypatch.setattr(cli, "keygen", refuse)
        code, out = run("attack", "--params", "highest", "--seed", "1")
        assert code == 0
        assert out.splitlines() == [
            "key_recovery_lattice_dim = 484",
            "gaussian_heuristic = 75.0952",
            "reduction skipped: dimension too large for desk-scale LLL",
        ]

    @pytest.mark.parametrize("params", ["toy", "highest"])
    def test_params_with_target_exit_1(self, tmp_path, capsys, params):
        # the key file holds its parameters; a second source of them is
        # refused, whether or not it agrees
        prefix = str(tmp_path / "t")
        run("keygen", "--params", "toy", "--seed", "12", "--out", prefix)
        code, out = run("attack", "--params", params, "--target", prefix + ".pub")
        assert code == 1
        assert out == ""
        assert "give --params or --target, not both" in capsys.readouterr().err

    def test_seed_with_target_exit_1(self, tmp_path, capsys):
        # --seed draws the fresh key that --target replaces, so it would
        # change nothing
        prefix = str(tmp_path / "t")
        run("keygen", "--params", "toy", "--seed", "12", "--out", prefix)
        code, out = run("attack", "--target", prefix + ".pub", "--seed", "5")
        assert code == 1
        assert out == ""
        assert "give --seed or --target, not both" in capsys.readouterr().err

    def test_budget_exceeded_exit_5(self):
        code, _ = run("attack", "--params", "toy", "--seed", "11", "--budget", "5")
        assert code == 5

    def test_negative_budget_is_an_input_error(self, capsys):
        code, out = run("attack", "--params", "toy", "--seed", "11", "--budget", "-1")
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --budget must be at least 0")

    def test_target_pubkey(self, tmp_path):
        # the parameters come from the key file, toy's warning among them
        prefix = str(tmp_path / "t")
        run("keygen", "--params", "toy", "--seed", "12", "--out", prefix)
        code, out = run("attack", "--target", prefix + ".pub")
        assert code == 0
        assert out.splitlines() == [
            "WARNING: 'toy' parameters are NOT SECURE (testing only)",
            "key_recovery_lattice_dim = 36",
            "gaussian_heuristic = 3.8412",
            "reduced_shortest_norm = 3.0000",
        ]  # no private key available, so no recovery lines


class TestExitCodes:
    def test_every_entry_reachable(self):
        # main takes the first matching entry, so a type listed after one
        # of its base classes would never get its own code
        kinds = [kind for kind, _ in cli.EXIT_CODES]
        for i, kind in enumerate(kinds):
            assert not any(issubclass(kind, earlier) for earlier in kinds[:i])
        assert sorted({code for _, code in cli.EXIT_CODES}) == [1, 2, 3, 4, 5]
