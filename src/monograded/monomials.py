"""Exact arithmetic on monomial ideals, with monomials as exponent tuples.

A monomial is its exponent vector, a tuple of nonnegative ints, and a monomial
ideal stores its unique minimal generating set once, as such tuples in
(degree, exps) order.  All operations (sum, product, power, intersection,
colon, saturation) stay inside this combinatorial world.  The length of an
Artinian R/I and its top degree are read from its cached Hilbert series
(`hilbert`); `graded_length` counts the standard monomials of one degree.
`Monomial` is only the boundary value that `parse_monomial` returns and
`MonomialIdeal.gens` shows; the ideal's constructor and monomial arguments
accept it as well as a tuple.  `parse_ideal` reads text straight into exponent
tuples, checks the names once per ideal, and skips the constructor's checks,
which parsed text cannot fail.
An ideal is its ring size and generators alone: variable names enter only where
text is parsed (`parse_ideal`) or printed (`format(names)`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, le

from .errors import DimensionMismatch, InfiniteLength, ZeroIdealColon

DEFAULT_NAMES = ("x", "y", "z", "w")

# A variable name the ideal grammar can write: a letter or _, then letters,
# digits or _.
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"


def ring_names(k: int, names=None) -> tuple[str, ...]:
    """Display names for a ring with k variables: the given ones, checked, or
    the defaults."""
    if names is not None:
        names = tuple(names)
        if len(names) != k:
            raise DimensionMismatch(f"{len(names)} names for {k} variables")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"{name!r} is not a variable name"
                                 " (a letter or _, then letters, digits or _)")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        return names
    if k <= len(DEFAULT_NAMES):
        return DEFAULT_NAMES[:k]
    return tuple(f"x{i + 1}" for i in range(k))


def _format_exps(exps: tuple[int, ...], names) -> str:
    """`x^3*y` style text of an exponent tuple ("1" for the unit)."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def format(self, names=None) -> str:
        return _format_exps(self.exps, ring_names(len(self.exps), names))

    def __str__(self) -> str:
        return self.format()


def _divisible(exps, gens) -> bool:
    """Whether the monomial `exps` is a multiple of one of `gens`."""
    return any(all(map(le, g, exps)) for g in gens)


def minimalize(gens) -> tuple[tuple[int, ...], ...]:
    """The unique minimal generating set of exponent tuples, in (degree, exps)
    order: drop every tuple divisible by (coordinatewise at least) another."""
    kept: list = []
    for g in sorted(gens, key=lambda t: (sum(t), t)):
        if not _divisible(g, kept):
            kept.append(g)
    return tuple(kept)


def _pure_power_variable(exps):
    """Index of the single supported variable, or None if not a pure power."""
    support = [j for j, e in enumerate(exps) if e]
    return support[0] if len(support) == 1 else None


class MonomialIdeal:
    """A monomial ideal of k[x_1..x_k], kept in minimalized form.

    `exps` holds the minimal generators as exponent tuples in (degree, exps)
    order; the empty tuple is the zero ideal and ((0,..,0),) the unit ideal.
    """

    __slots__ = ("k", "exps")

    def __init__(self, k: int, gens=()):
        """`gens` holds exponent tuples (or `Monomial` values) of length k."""
        self.k = k
        self.exps = minimalize([self._monomial(g) for g in gens])

    def _monomial(self, m) -> tuple[int, ...]:
        """The exponent tuple of a monomial of this ring, checked."""
        exps = tuple(getattr(m, "exps", m))
        if len(exps) != self.k:
            raise DimensionMismatch(f"{len(exps)}-variable monomial in a {self.k}-variable ring")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    @classmethod
    def _from_minimal(cls, k: int, exps: tuple) -> "MonomialIdeal":
        """The ideal whose minimal generators are `exps`, exponent tuples of
        length k already in (degree, exps) order; nothing is checked."""
        ideal = cls.__new__(cls)
        ideal.k, ideal.exps = k, exps
        return ideal

    @classmethod
    def zero(cls, k: int) -> "MonomialIdeal":
        return cls(k, ())

    @classmethod
    def unit(cls, k: int) -> "MonomialIdeal":
        return cls(k, ((0,) * k,))

    @property
    def gens(self) -> frozenset[Monomial]:
        """The minimal generators as `Monomial` values (a read-only view)."""
        return frozenset(Monomial(g) for g in self.exps)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def is_unit(self) -> bool:
        return bool(self.exps) and not any(self.exps[0])

    def is_m_primary(self) -> bool:
        """True iff radical is the maximal ideal: a pure power of each variable."""
        if self.is_unit:
            return False
        covered = {_pure_power_variable(g) for g in self.exps} - {None}
        return len(covered) == self.k

    # -- structure -----------------------------------------------------

    def num_generators(self) -> int:
        return len(self.exps)

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators (0 for absent variables)."""
        if not self.exps:
            return (0,) * self.k
        return tuple(map(max, zip(*self.exps)))

    def pure_power_bounds(self) -> tuple[int, ...]:
        """Minimal a_j with x_j^a_j in the ideal; requires an m-primary ideal."""
        if not self.is_m_primary():
            raise InfiniteLength("quotient is not Artinian (ideal is not m-primary)")
        bounds = [0] * self.k
        for g in self.exps:  # a minimal set has one pure power per variable
            j = _pure_power_variable(g)
            if j is not None:
                bounds[j] = g[j]
        return tuple(bounds)

    # -- ideal arithmetic ------------------------------------------------

    def _check(self, other: "MonomialIdeal"):
        if self.k != other.k:
            raise DimensionMismatch(f"ideals in {self.k} and {other.k} variables")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.k, self.exps + other.exps)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        products = {tuple(map(add, a, b)) for a in self.exps for b in other.exps}
        return MonomialIdeal(self.k, products)

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("negative power of an ideal")
        result = MonomialIdeal.unit(self.k)
        for _ in range(n):
            result = result * self
        return result

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        lcms = {tuple(map(max, a, b)) for a in self.exps for b in other.exps}
        return MonomialIdeal(self.k, lcms)

    def colon_monomial(self, m) -> "MonomialIdeal":
        m = self._monomial(m)
        quotients = {tuple([a - b if a > b else 0 for a, b in zip(g, m)]) for g in self.exps}
        return MonomialIdeal(self.k, quotients)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if other.is_zero:
            raise ZeroIdealColon("colon by the zero ideal")
        result = None
        for m in other.exps:
            piece = self.colon_monomial(m)
            result = piece if result is None else result.intersection(piece)
        return result

    def saturation(self) -> "MonomialIdeal":
        """I : m^infinity, by iterating I : m until the chain stabilizes.

        One equality certifies stability: the chain is ascending and colon by m
        is monotone, so a repeat is a fixed point.
        """
        variables = [tuple(int(i == j) for i in range(self.k)) for j in range(self.k)]
        maximal = MonomialIdeal(self.k, variables)
        current = self
        while True:
            nxt = current.colon(maximal)
            if nxt.exps == current.exps:
                return current
            current = nxt

    # -- lengths ---------------------------------------------------------

    def _artinian_series(self):
        """The cached Hilbert series of an Artinian R/I; `hilbert` imports this
        module, so it is imported here, at call time."""
        from .hilbert import hilbert_series

        self.pure_power_bounds()  # precondition check: Artinian quotient
        return hilbert_series(self)

    def quotient_length(self) -> int:
        """ell(R/I), the multiplicity of the series of an Artinian R/I.
        Requires m-primary I."""
        return self._artinian_series().multiplicity

    def graded_length(self, n: int) -> int:
        """ell((R/I)_n): standard monomials of total degree n."""
        if n < 0 or self.is_unit:
            return 0
        gens = self.exps
        return sum(1 for exps in compositions(n, self.k) if not _divisible(exps, gens))

    def smallest_contained_m_power(self) -> int:
        """Least t with m^t inside the ideal. Requires an m-primary ideal.

        The series of R/I is a polynomial of degree s, the top degree of R/I,
        so its numerator N = H * (1 - lambda)^k has degree s + k, and t = s + 1."""
        return max(self._artinian_series().terms) + 1 - self.k

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.k == other.k
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.k, self.exps))

    def format(self, names=None) -> str:
        if self.is_zero:
            return "(0)"
        names = ring_names(self.k, names)
        return "(" + ", ".join(_format_exps(g, names) for g in self.exps) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self.format()}"


def compositions(n: int, k: int):
    """All exponent vectors of length k with total degree n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


# -- parsing ------------------------------------------------------------

_NAME_RE = re.compile(_NAME)
_FACTOR_RE = re.compile(rf"^({_NAME})(?:\^(\d+))?$")


def _parse_exps(text: str, index: dict[str, int]) -> tuple[int, ...]:
    """The exponent tuple of `x^3*y` style monomial text; `index` maps each
    variable name to its position."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty monomial (write 1 for the unit)")
    exps = [0] * len(index)
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        name, exp = m.groups()
        j = index.get(name)
        if j is None:
            raise ValueError(f"unknown variable {name!r} (ring has {', '.join(index)})")
        exps[j] += int(exp) if exp else 1
    return tuple(exps)


def parse_monomial(text: str, names) -> Monomial:
    """Parse `x^3*y` style monomial text against the given variable names,
    which are checked as `parse_ideal` checks them."""
    names = ring_names(len(names), names)
    return Monomial(_parse_exps(text, {name: j for j, name in enumerate(names)}))


def parse_ideal(text: str, names) -> MonomialIdeal:
    """Parse a comma-separated generator list, e.g. `x^3, x^2*y^4, x*y^5, y^7`.

    The empty string parses to the zero ideal; `1` yields the unit ideal.  The
    names are checked here, once, and are not kept: print the ideal with
    `format(names)`.  Parsed text needs none of the constructor's checks
    (each tuple has one entry per name, and no exponent is negative), so the
    ideal is built from its minimalized generators directly.
    """
    names = tuple(names)
    ring_names(len(names), names)
    text = text.strip()
    if not text or text == "0":
        return MonomialIdeal.zero(len(names))
    index = {name: j for j, name in enumerate(names)}
    gens = [_parse_exps(part, index) for part in text.split(",")]
    return MonomialIdeal._from_minimal(len(names), minimalize(gens))
