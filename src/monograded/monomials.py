"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors; a monomial ideal is stored through its unique
minimal monomial generating set.  All operations (sum, product, power,
intersection, colon, saturation) stay inside this combinatorial world, and
length computations count standard monomials directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionMismatch, InfiniteLength, ZeroIdealColon

DEFAULT_NAMES = ("x", "y", "z", "w")


def ring_names(k: int, names=None) -> tuple[str, ...]:
    """Display names for a ring with k variables."""
    if names is not None:
        names = tuple(names)
        if len(names) != k:
            raise DimensionMismatch(f"{len(names)} names for {k} variables")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        return names
    if k <= len(DEFAULT_NAMES):
        return DEFAULT_NAMES[:k]
    return tuple(f"x{i + 1}" for i in range(k))


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    @property
    def k(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_one(self) -> bool:
        return self.degree == 0

    def _check(self, other: "Monomial"):
        if len(self.exps) != len(other.exps):
            raise DimensionMismatch(
                f"monomials in {len(self.exps)} and {len(other.exps)} variables"
            )

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def colon(self, other: "Monomial") -> "Monomial":
        """self : other, i.e. self / gcd(self, other)."""
        self._check(other)
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exps, other.exps)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.exps) if e > 0)

    @property
    def pure_power_variable(self):
        """Index of the single supported variable, or None if not a pure power."""
        supp = self.support
        return supp[0] if len(supp) == 1 else None

    def format(self, names=None) -> str:
        if self.is_one:
            return "1"
        names = ring_names(self.k, names)
        parts = []
        for name, e in zip(names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.format()


def minimalize(gens) -> frozenset[Monomial]:
    """The unique minimal generating set: drop every monomial divisible by another."""
    by_exps = {g.exps: g for g in gens}
    return frozenset(by_exps[e] for e in _minimalize_exps(by_exps))


class MonomialIdeal:
    """A monomial ideal of k[x_1..x_k], kept in minimalized form.

    The empty generating set is the zero ideal; the set {1} is the unit ideal.
    """

    __slots__ = ("k", "gens", "names")

    def __init__(self, k: int, gens=(), names=None, _minimal=False):
        self.k = k
        gens = [g if isinstance(g, Monomial) else Monomial(tuple(g)) for g in gens]
        for g in gens:
            if g.k != k:
                raise DimensionMismatch(f"{g.k}-variable generator in a {k}-variable ring")
        self.gens = frozenset(gens) if _minimal else minimalize(gens)
        self.names = ring_names(k, names)

    @classmethod
    def zero(cls, k: int, names=None) -> "MonomialIdeal":
        return cls(k, (), names, _minimal=True)

    @classmethod
    def unit(cls, k: int, names=None) -> "MonomialIdeal":
        return cls(k, (Monomial((0,) * k),), names, _minimal=True)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(g.is_one for g in self.gens)

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        self._check(other)
        return all(self.contains_monomial(g) for g in other.gens)

    def is_m_primary(self) -> bool:
        """True iff radical is the maximal ideal: a pure power of each variable."""
        if self.is_unit:
            return False
        covered = set()
        for g in self.gens:
            j = g.pure_power_variable
            if j is not None:
                covered.add(j)
        return len(covered) == self.k

    # -- structure -----------------------------------------------------

    def minimal_generators(self) -> list[Monomial]:
        return sorted(self.gens, key=lambda m: (m.degree, m.exps))

    def num_generators(self) -> int:
        return len(self.gens)

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators (0 for absent variables)."""
        rho = [0] * self.k
        for g in self.gens:
            for j, e in enumerate(g.exps):
                if e > rho[j]:
                    rho[j] = e
        return tuple(rho)

    def pure_power_bounds(self) -> tuple[int, ...]:
        """Minimal a_j with x_j^a_j in the ideal; requires an m-primary ideal."""
        if not self.is_m_primary():
            raise InfiniteLength("quotient is not Artinian (ideal is not m-primary)")
        bounds = []
        for j in range(self.k):
            best = None
            for g in self.gens:
                if g.pure_power_variable == j:
                    e = g.exps[j]
                    if best is None or e < best:
                        best = e
            bounds.append(best)
        return tuple(bounds)

    # -- ideal arithmetic ------------------------------------------------

    def _check(self, other: "MonomialIdeal"):
        if self.k != other.k:
            raise DimensionMismatch(f"ideals in {self.k} and {other.k} variables")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.k, self.gens | other.gens, self.names)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        prods = {a * b for a in self.gens for b in other.gens}
        return MonomialIdeal(self.k, prods, self.names)

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("negative power of an ideal")
        result = MonomialIdeal.unit(self.k, self.names)
        for _ in range(n):
            result = result * self
        return result

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        lcms = {a.lcm(b) for a in self.gens for b in other.gens}
        return MonomialIdeal(self.k, lcms, self.names)

    def colon_monomial(self, m: Monomial) -> "MonomialIdeal":
        return MonomialIdeal(self.k, {g.colon(m) for g in self.gens}, self.names)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if other.is_zero:
            raise ZeroIdealColon("colon by the zero ideal")
        result = None
        for m in other.gens:
            piece = self.colon_monomial(m)
            result = piece if result is None else result.intersection(piece)
        return result

    def saturation(self) -> "MonomialIdeal":
        """I : m^infinity, by iterating I : m until the chain stabilizes.

        One equality certifies stability: the chain is ascending and colon by m
        is monotone, so a repeat is a fixed point.
        """
        maximal = MonomialIdeal(
            self.k,
            {Monomial(tuple(1 if i == j else 0 for i in range(self.k))) for j in range(self.k)},
            self.names,
        )
        current = self
        while True:
            nxt = current.colon(maximal)
            if nxt.gens == current.gens:
                return current
            current = nxt

    # -- lengths ---------------------------------------------------------

    def quotient_length(self) -> int:
        """ell(R/I): the number of standard monomials. Requires m-primary I.

        Counted by slicing off the last variable: monomials with last exponent
        e are standard exactly when their truncation avoids the subideal of
        generators whose last exponent is at most e.
        """
        self.pure_power_bounds()  # precondition check: Artinian quotient
        memo: dict = {}
        return _count_standard(self.k, tuple(sorted(g.exps for g in self.gens)), memo)

    def graded_length(self, n: int) -> int:
        """ell((R/I)_n): standard monomials of total degree n."""
        if n < 0:
            return 0
        if self.is_unit:
            return 0
        return sum(
            1
            for exps in compositions(n, self.k)
            if not self.contains_monomial(Monomial(exps))
        )

    def smallest_contained_m_power(self, cap: int = 10_000) -> int:
        """Least t with m^t inside the ideal. Requires an m-primary ideal."""
        bounds = self.pure_power_bounds()
        # m^t subset I iff every degree-t monomial is in I; t is at least
        # max(bounds) and at most sum(bounds - 1) + 1.
        t = max(bounds)
        upper = sum(b - 1 for b in bounds) + 1
        while t <= min(upper, cap):
            if all(
                self.contains_monomial(Monomial(exps)) for exps in compositions(t, self.k)
            ):
                return t
            t += 1
        raise InfiniteLength(f"no m-power inside the ideal up to degree {cap}")

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.k == other.k
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.k, self.gens))

    def format(self) -> str:
        if self.is_zero:
            return "(0)"
        inner = ", ".join(g.format(self.names) for g in self.minimal_generators())
        return f"({inner})"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self.format()}"


def _minimalize_exps(gens) -> tuple:
    kept: list = []
    for g in sorted(gens, key=lambda t: (sum(t), t)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(kept)


def _count_standard(k: int, gens: tuple, memo: dict) -> int:
    if any(sum(g) == 0 for g in gens):
        return 0
    if k == 0:
        return 1
    key = (k, gens)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if k == 1:
        value = min(g[0] for g in gens)
    else:
        last = k - 1
        pure_last = min(g[last] for g in gens if not any(g[:last]))
        value = 0
        for e in range(pure_last):
            sub = _minimalize_exps(g[:last] for g in gens if g[last] <= e)
            value += _count_standard(last, sub, memo)
    memo[key] = value
    return value


def compositions(n: int, k: int):
    """All exponent vectors of length k with total degree n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


# -- parsing ------------------------------------------------------------

_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text: str, names) -> Monomial:
    """Parse `x^3*y` style monomial text against the given variable names."""
    text = text.replace(" ", "")
    if text in ("1", ""):
        return Monomial((0,) * len(names))
    exps = [0] * len(names)
    index = {name: j for j, name in enumerate(names)}
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        name, exp = m.group(1), m.group(2)
        if name not in index:
            raise ValueError(f"unknown variable {name!r} (ring has {', '.join(names)})")
        exps[index[name]] += int(exp) if exp else 1
    return Monomial(tuple(exps))


def parse_ideal(text: str, names) -> MonomialIdeal:
    """Parse a comma-separated generator list, e.g. `x^3, x^2*y^4, x*y^5, y^7`.

    The empty string parses to the zero ideal; `1` yields the unit ideal.
    """
    names = tuple(names)
    text = text.strip()
    if not text or text == "0":
        return MonomialIdeal.zero(len(names), names)
    gens = [parse_monomial(part, names) for part in text.split(",")]
    return MonomialIdeal(len(names), gens, names)
