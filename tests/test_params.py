"""The parameter line: Params.line writes it, Params.from_line reads it
back, and the reader takes the writer's spelling alone."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtru.errors import MalformedData
from bqtru.params import PARAM_SETS, Params, fits_int64

PRIMES = [p for p in range(2, 400) if all(p % f for f in range(2, p))]


@st.composite
def valid_params(draw):
    n = draw(st.sampled_from(PRIMES[:8]))
    p = draw(st.sampled_from([p for p in PRIMES[1:12]]))
    q = draw(st.sampled_from([q for q in PRIMES if q > p and q % n == 1 and fits_int64(n, q)]))
    d_f = draw(st.integers(0, (n * n - 1) // 2))
    d_g, d_phi = (draw(st.integers(0, n * n // 2)) for _ in range(2))
    return Params(n, p, q, d_f, d_g, d_phi)


@settings(max_examples=100, deadline=None)
@given(valid_params())
def test_line_round_trip(params):
    line = params.line()
    assert Params.from_line(line) == params
    assert Params.from_line(line).line() == line


def test_shipped_lines():
    assert PARAM_SETS["moderate"].line() == "n=7 p=3 q=113 df=7 dg=6 dphi=6"
    for params in PARAM_SETS.values():
        assert Params.from_line(params.line()) == params


# characters an edit puts in a line: digits, signs, separators, letters of
# its keys, and characters that int() reads as digits or skips
EDIT_CHARS = list("0123456789+-_= \t\nndfgqhip") + ["٣", " "]


def edit_line(line: str, rng: random.Random) -> str:
    """line with 1 to 3 characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["insert", "delete", "replace"])
        i = rng.randrange(len(line) + (op == "insert"))
        new = "" if op == "delete" else rng.choice(EDIT_CHARS)
        line = line[:i] + new + line[i + (op != "insert"):]
    return line


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_edited_lines_raise_or_read_as_written(name):
    # an edit either gives another set's own line or is refused
    rng = random.Random(f"edit-{name}")
    parsed = 0
    for _ in range(2000):
        edited = edit_line(PARAM_SETS[name].line(), rng)
        try:
            params = Params.from_line(edited)
        except MalformedData:
            continue
        assert params.line() == edited
        parsed += 1
    assert parsed > 0  # some edits spell a valid set, so the check ran


# tests/test_cli.py runs the respellings the command line is most likely
# to see (a double space, reordered keys, a sign, a leading zero, a
# trailing space, a missing or an extra key) through --params
@pytest.mark.parametrize("line", [
    "n=7 p=3 q=1_13 df=7 dg=6 dphi=6",
    "n=7 p=3 q=١١٣ df=7 dg=6 dphi=6",
    " n=7 p=3 q=113 df=7 dg=6 dphi=6",
    "n=7\tp=3 q=113 df=7 dg=6 dphi=6",
    "N=7 p=3 q=113 df=7 dg=6 dphi=6",
    "n:7 p=3 q=113 df=7 dg=6 dphi=6",
    "n=7 p=3 q=113 d_f=7 dg=6 dphi=6",
    "",
])
def test_respellings_refused(line):
    with pytest.raises(MalformedData):
        Params.from_line(line)


@pytest.mark.parametrize("line", [
    "n=7 p=3 q=114 df=7 dg=6 dphi=6",
    "n=1 p=3 q=113 df=7 dg=6 dphi=6",
    "n=7 p=3 q=4294967311 df=7 dg=6 dphi=6",
    "n=7 p=3 q=113 df=25 dg=6 dphi=6",
    "n=7 p=-3 q=113 df=7 dg=6 dphi=6",
    # F's first component would need 2*df + 1 = 5 nonzeros in n**2 = 4 slots
    "n=2 p=3 q=7 df=2 dg=2 dphi=2",
])
def test_invalid_parameters_refused(line):
    with pytest.raises(MalformedData):
        Params.from_line(line)


@pytest.mark.parametrize("line", [
    # n is a prime near 10**18 and q = 1 keeps n * n * (q - 1)**2 in int64
    "n=1000000000000000003 p=3 q=1 df=0 dg=0 dphi=0",
    "n=1000000000000000003 p=-5 q=1 df=0 dg=0 dphi=0",
    "n=3 p=1000000000000000003 q=7 df=1 dg=1 dphi=1",
])
def test_huge_values_refused_without_trial_division(line):
    # the bounds are checked before any primality test, so no huge value
    # reaches trial division, which would take minutes
    t0 = time.perf_counter()
    with pytest.raises(MalformedData):
        Params.from_line(line)
    assert time.perf_counter() - t0 < 0.5
