"""The benchmark's trace targets resolve where perfbench/run.py looks them
up, and its workloads' ops run.

perfbench wraps each name where its caller looks it up and skips a name
that is absent, so a change to src/ that moves or renames one would
silently zero its span.  These tests pin the set that resolves, and run
one op of each workload as the benchmark does.
"""

import importlib.util
import pathlib
import random
import sys

import numpy as np
import pytest

import bqtru.scheme as scheme
from bqtru.params import HIGHEST

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# targets that name no function of the library, so their spans read 0 by
# construction; perfbench still lists them
READ_ZERO = {
    ("bqtru.scheme", "ring_inverse"),
    ("bqtru.scheme", "quat_inverse_mod_J"),
    ("bqtru.scheme", "make_ideal"),
    ("bqtru.scheme", "build_D_prime"),
    ("bqtru.scheme", "lll_reduce"),
    ("bqtru.scheme", "sphere_decode"),
    ("bqtru.lattice", "babai_nearest_plane"),
}


def _load(name: str):
    """perfbench/<name>.py as a module, loaded by its file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    run, tracing = _load("run"), _load("tracing")
    targets = [(owner, attr) for owner, attr, _ in run.trace_targets(199)]
    resolved = {(owner, attr) for owner, attr in targets
                if callable(getattr(tracing._resolve(owner), attr, None))}
    assert len(targets) == len(set(targets)) == 39
    assert set(targets) - resolved == READ_ZERO
    assert len(resolved) == 32


def test_pinned_call_sites_are_traced():
    # the per-layer rows read keygen's F draws (quat_norm from scheme at
    # modulus q) and decrypt's two reference products, each with its
    # convolutions as direct children
    run, tracing = _load("run"), _load("tracing")
    tracer = tracing.Tracer()
    rng = random.Random(1)
    with tracer.installed(run.trace_targets(HIGHEST.q)):
        pk, sk = scheme.keygen(HIGHEST, rng)
        M = scheme.random_message(HIGHEST, rng)
        assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, M, rng), strict=True), M)
    names = [span[0] for span in tracer.spans]
    for product, convs in (("quat.quat_mul_strassen", 7), ("quat.quat_mul_schoolbook", 16)):
        calls = [i for i, name in enumerate(names) if name == product]
        assert calls, product
        for i in calls:
            children = [s[0] for s in tracer.spans if s[3] == i]
            assert children.count("ring.conv_mul") == convs, product
    assert "scheme.keygen.F_draw" in names


def test_every_convolution_is_traced():
    # perfbench reads the per-product convolution counts from conv_mul's
    # spans; a convolution reached through a name it does not wrap counts in
    # ring.CONV_COUNTER but in no span
    run, tracing = _load("run"), _load("tracing")
    tracer = tracing.Tracer()
    rng = random.Random(1)
    before = run.conv_counter()
    with tracer.installed(run.trace_targets(HIGHEST.q)):
        pk, sk = scheme.keygen(HIGHEST, rng)
        sk = scheme.deserialize_private(scheme.serialize_private(sk))
        M = scheme.random_message(HIGHEST, rng)
        assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, M, rng), strict=True), M)
    spans = sum(span[0] == "ring.conv_mul" for span in tracer.spans)
    assert spans > 0
    assert run.conv_counter() - before == spans


def test_convolution_counter_is_read():
    assert _load("run").conv_counter() is not None


@pytest.mark.parametrize("name", ["stream-highest", "files-highest"])
def test_workload_op_runs(name, tmp_path):
    # op 0 through the benchmark's own calls into the library, so a change
    # to what those calls take or return fails here, not only in a
    # benchmark run
    workloads = _load("workloads")
    workload = workloads.make_workloads(str(tmp_path))[name]
    session = workload.setup(1)
    try:
        outcome = workloads.run_op(workload, session, 0)
    finally:
        session.close()
    assert not outcome.failed and not outcome.unexpected
