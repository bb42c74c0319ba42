"""Public system parameters and the shipped parameter sets."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedData


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def fits_int64(n: int, m: int) -> bool:
    """Whether ring products mod m, sums of n**2 terms below (m-1)**2, fit int64."""
    return n * n * (m - 1) ** 2 < 2 ** 63


@dataclass(frozen=True)
class Params:
    """Public parameters (n, p, q) plus the ternary weight counts.

    n is the degree of both cyclic variables, so ring elements have n**2
    coefficients and quaternions 4*n**2.  The splitting condition n | q-1
    guarantees the full n**2-point evaluation grid exists mod q (and, as
    q = 1 mod n, that n and q are coprime).  Ring
    arithmetic is int64, and a product sums n**2 terms below (q-1)**2, so
    n**2 * (q-1)**2 must stay below 2**63.
    """

    n: int
    p: int
    q: int
    d_f: int
    d_g: int
    d_phi: int

    def __post_init__(self):
        n, p, q = self.n, self.p, self.q
        if not fits_int64(n, q):
            raise ValueError(f"q={q} is too large for int64 arithmetic at n={n}")
        # bounds first: fits_int64 then keeps n and q below 2**31 for trial division
        if n < 2 or p < 2 or q <= p:
            raise ValueError(f"need n >= 2, p >= 2 and q > p, not n={n} p={p} q={q}")
        if not (_is_prime(n) and _is_prime(p) and _is_prime(q)):
            raise ValueError("n, p and q must be prime")
        if p == 2:
            raise ValueError("p must be odd (the centered lift needs an odd modulus)")
        if (q - 1) % n != 0:
            raise ValueError(f"n={n} must divide q-1={q - 1}")
        # F's first component carries 2*d_f + 1 nonzeros in its n**2 slots
        half = n * n // 2
        for name, top in (("d_f", (n * n - 1) // 2), ("d_g", half), ("d_phi", half)):
            d = getattr(self, name)
            if d < 0 or d > top:
                raise ValueError(f"{name}={d} out of range [0, {top}]")

    @property
    def nsq(self) -> int:
        return self.n * self.n

    def line(self) -> str:
        """The one spelling of the set, which key files and --params hold."""
        return (f"n={self.n} p={self.p} q={self.q} "
                f"df={self.d_f} dg={self.d_g} dphi={self.d_phi}")

    @classmethod
    def from_line(cls, line: str) -> Params:
        """The parameters whose line() is line; any other text, another
        spelling of valid parameters among it, is MalformedData."""
        try:
            params = cls(*(int(token.partition("=")[2]) for token in line.split(" ")))
        except (TypeError, ValueError) as exc:
            raise MalformedData(f"bad parameter line {line!r}: {exc}") from exc
        if params.line() != line:
            raise MalformedData(f"not a parameter line as written: {line!r}")
        return params


# "toy" relaxes the weight guidance so n=3 keygen terminates quickly.
# It is NOT SECURE and exists for testing and demonstrations only.
TOY = Params(n=3, p=3, q=7, d_f=1, d_g=1, d_phi=1)

# The two production-style sets (moderate / highest security levels).
MODERATE = Params(n=7, p=3, q=113, d_f=7, d_g=6, d_phi=6)
HIGHEST = Params(n=11, p=3, q=199, d_f=17, d_g=17, d_phi=13)

PARAM_SETS = {"toy": TOY, "moderate": MODERATE, "highest": HIGHEST}


def get_params(name: str) -> Params:
    try:
        return PARAM_SETS[name]
    except KeyError:
        raise ValueError(f"unknown parameter set {name!r}; pick from {sorted(PARAM_SETS)}")
