import hashlib
import io
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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BQTRU_SEED", "99")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("keygen", "--params", "toy", "--out", a)
        run("keygen", "--params", "toy", "--out", b)
        assert open(a + ".pub").read() == open(b + ".pub").read()

    def test_size_report(self, tmp_path):
        code, out = run("keygen", "--params", "moderate", "--seed", "1",
                        "--out", str(tmp_path / "k"))
        assert code == 0
        assert "packed_public_key_bits = 1372" in out

    def test_toy_flagged_not_secure(self, tmp_path):
        _, out = run("keygen", "--params", "toy", "--seed", "1",
                     "--out", str(tmp_path / "k"))
        assert "NOT SECURE" in out

    def test_bad_output_dir(self):
        code, _ = run("keygen", "--params", "toy", "--seed", "1",
                      "--out", "/nonexistent-dir-zzz/k")
        assert code == 1

    def test_unscannable_q_exits_2_at_once(self, tmp_path, capsys):
        # every secret set has q^|T| >= 65539 > 2^16 coset classes
        t0 = time.perf_counter()
        code, _ = run("keygen", "--n", "3", "--p", "3", "--q", "65539", "--d-f", "1",
                      "--d-g", "1", "--d-phi", "1", "--seed", "1", "--out", str(tmp_path / "k"))
        assert code == 2
        assert time.perf_counter() - t0 < 0.5
        assert "q^|T| <= 2^16" in capsys.readouterr().err


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
        ct.C.c0.coeffs[:5] = (ct.C.c0.coeffs[:5] + 40) % 113
        ct_path.write_text(serialize_ct(ct))
        out = str(tmp_path / "out")
        code, _ = run("decrypt", "--key", priv, "--in", str(ct_path),
                      "--out", out, "--strict")
        assert code == 3
        assert not (tmp_path / "out").exists()  # no partial output

    def test_missing_input_file(self, keyfiles, tmp_path):
        pub, _ = keyfiles
        code, _ = run("encrypt", "--key", pub, "--in", str(tmp_path / "nope"),
                      "--out", str(tmp_path / "ct"))
        assert code == 1

    def test_malformed_key_file(self, tmp_path):
        bad = tmp_path / "bad.pub"
        bad.write_text("not a key\n")
        code, _ = run("encrypt", "--key", str(bad), "--in", str(bad),
                      "--out", str(tmp_path / "ct"))
        assert code == 1


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

    def test_modulus_too_large_for_int64(self):
        code, _ = run("analyze", "--n", "3", "--p", "3", "--q", "4294967311",
                      "--d-f", "1", "--d-g", "1", "--d-phi", "1")
        assert code == 1

    def test_toy_report(self):
        code, out = run("analyze", "--params", "toy")
        assert code == 0
        assert "NOT SECURE" in out
        assert "[reference" not in out

    def test_byte_stable(self):
        assert run("analyze", "--params", "moderate") == run("analyze", "--params", "moderate")

    @pytest.mark.parametrize("name, digest", [
        ("toy", "99c026d8b3d052815376da9b2f1471e410cda8a27372c3bee54728f7933d789d"),
        ("moderate", "9f42b250067d34f95b8741f56fde9228b4f4bff04e7dc2d07cee785361dd7dda"),
        ("highest", "97ce67b1a9ab02f35fda5f494bac399cc56c4e5e8404d4546bf4ac39e9e4e924"),
    ])
    def test_full_report_unchanged(self, name, digest):
        # sha256 of the whole report, every line and its formatting
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
        code, out = run("attack", "--params", "toy", "--seed", "11")
        assert code == 0
        assert "key_recovery_lattice_dim = 108" in out
        assert "expanded_lattice_dim = 180" in out
        assert "reduced_shortest_norm" in out
        assert "private_key_recovered" in out

    def test_moderate_builds_only(self):
        code, out = run("attack", "--params", "moderate", "--seed", "11")
        assert code == 0
        assert "key_recovery_lattice_dim = 588" in out
        assert "expanded_lattice_dim = 1764" in out
        assert "reduction skipped" in out

    def test_highest_builds_no_lattice_and_draws_no_key(self, monkeypatch):
        # the dimension lines are closed formulas: the 1452- and
        # 4840-dimensional lattices are neither built nor reduced
        def refuse(*_):
            raise AssertionError("attack built a lattice or drew a key it does not use")

        monkeypatch.setattr(ideal, "build_bqtru_lattice", refuse)
        monkeypatch.setattr(cli, "build_bqtru_lattice", refuse)
        monkeypatch.setattr(cli, "keygen", refuse)
        code, out = run("attack", "--params", "highest", "--seed", "1")
        assert code == 0
        assert out.splitlines() == [
            "key_recovery_lattice_dim = 1452",
            "expanded_lattice_dim = 4840",
            "gaussian_heuristic = 53.8308",
            "reduction skipped: dimension too large for desk-scale LLL",
        ]

    def test_mismatched_target_exit_1(self, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        run("keygen", "--params", "toy", "--seed", "12", "--out", prefix)
        code, out = run("attack", "--params", "highest", "--target", prefix + ".pub")
        assert code == 1
        assert out == ""
        assert "target key does not match" in capsys.readouterr().err

    def test_budget_exceeded_exit_5(self):
        code, _ = run("attack", "--params", "toy", "--seed", "11", "--budget", "5")
        assert code == 5

    def test_target_pubkey(self, tmp_path):
        prefix = str(tmp_path / "t")
        run("keygen", "--params", "toy", "--seed", "12", "--out", prefix)
        code, out = run("attack", "--params", "toy", "--seed", "13",
                        "--target", prefix + ".pub")
        assert code == 0
        assert "private_key_recovered" not in out  # no private key available


class TestExitCodes:
    def test_every_entry_reachable(self):
        # main takes the first matching entry, so a type listed after one
        # of its base classes would never get its own code
        kinds = [kind for kind, _ in cli.EXIT_CODES]
        for i, kind in enumerate(kinds):
            assert not any(issubclass(kind, earlier) for earlier in kinds[:i])
        assert sorted({code for _, code in cli.EXIT_CODES}) == [1, 2, 3, 4, 5]
