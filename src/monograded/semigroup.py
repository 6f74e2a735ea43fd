"""Numerical semigroup rings and their monomial ideals by sumset arithmetic.

An ideal of k[[t^a1, ..., t^ag]] generated by monomials is the set of
valuations E = union(g_i + S); with the representation (finite prefix,
threshold c such that [c, infinity) lies in E) every operation -- product,
colon, length, Ratliff-Rush closure, reduction number -- terminates exactly.
This is the complete one-dimensional engine.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import ComputationError, NotAReduction


class NumericalSemigroup:
    """The additive submonoid of N generated by coprime positive integers."""

    __slots__ = ("gens", "conductor", "frobenius", "_member")

    def __init__(self, gens):
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or any(g <= 0 for g in gens):
            raise ValueError("semigroup generators must be positive")
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            raise ValueError(f"generators {gens} have gcd {g}; complement would be infinite")
        self.gens = gens
        a_min, a_max = gens[0], gens[-1]
        cap = a_min * a_max + a_max + 2
        member = [False] * (cap + 1)
        member[0] = True
        run = 0
        conductor = None
        for n in range(1, cap + 1):
            member[n] = any(n >= a and member[n - a] for a in gens)
            run = run + 1 if member[n] else 0
            if run >= a_min:
                conductor = n - a_min + 1
                break
        if conductor is None:
            raise ComputationError("no conductor found below the Frobenius cap")
        while conductor > 0 and member[conductor - 1]:
            conductor -= 1
        self.conductor = conductor
        self.frobenius = conductor - 1  # -1 when S = N
        self._member = member

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return self._member[n]

    def elements_upto(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if self.contains(n)]

    def gaps(self) -> list[int]:
        return [n for n in range(self.conductor) if not self.contains(n)]

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"


class SemigroupIdeal:
    """E = union(g + S) for finitely many generators g in S, kept as the pair
    (elements below c, threshold c) with [c, infinity) inside E."""

    __slots__ = ("S", "gens", "prefix", "threshold")

    def __init__(self, S: NumericalSemigroup, gens):
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens:
            raise ValueError("a semigroup ideal needs at least one generator")
        if any(g < 0 for g in gens):
            raise ValueError("generators must be nonnegative valuations")
        if any(not S.contains(g) for g in gens):
            raise ValueError(f"generators {gens} do not all lie in the semigroup")
        self.S = S
        cap = min(gens) + S.conductor
        elements = {
            g + s for g in gens for s in S.elements_upto(max(cap - g, 0))
        }
        self._finish(elements, cap, gens)

    @classmethod
    def from_elements(cls, S: NumericalSemigroup, elements, cap: int) -> "SemigroupIdeal":
        """Build from an element set known to satisfy [cap, infinity) in E."""
        ideal = object.__new__(cls)
        ideal.S = S
        ideal._finish(set(elements), cap, None)
        return ideal

    def _finish(self, elements: set[int], cap: int, gens):
        c = cap
        while c > 0 and (c - 1) in elements:
            c -= 1
        self.threshold = c
        self.prefix = frozenset(e for e in elements if e < c)
        if gens is None:
            self.gens = tuple(self._minimal_generators())
        else:
            self.gens = tuple(sorted(self._minimalize(gens)))

    def _minimalize(self, gens) -> set[int]:
        return {
            g
            for g in gens
            if not any(h != g and self.S.contains(g - h) for h in gens if h <= g)
        }

    def _minimal_generators(self) -> list[int]:
        # E + S lies in E, so z = w + s with w in E and s != 0 in S iff
        # z - a lies in E for some generator a of S; no z from
        # threshold + min(S.gens) on is minimal
        candidates = sorted(self.prefix) + list(
            range(self.threshold, self.threshold + self.S.gens[0])
        )
        return [z for z in candidates if not any(self.contains(z - a) for a in self.S.gens)]

    # -- membership ------------------------------------------------------

    def contains(self, n: int) -> bool:
        return n >= self.threshold or n in self.prefix

    def elements_upto(self, bound: int) -> list[int]:
        out = [e for e in sorted(self.prefix) if e <= bound]
        out.extend(range(self.threshold, bound + 1))
        return out

    @property
    def min_element(self) -> int:
        return self.gens[0]

    def __eq__(self, other):
        return (
            isinstance(other, SemigroupIdeal)
            and self.S == other.S
            and self.prefix == other.prefix
            and self.threshold == other.threshold
        )

    def __hash__(self):
        return hash((self.S, self.prefix, self.threshold))

    def __repr__(self):
        return f"SemigroupIdeal(gens={self.gens})"


# -- operations -----------------------------------------------------------


def ideal_product_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    if a.S != b.S:
        raise ValueError("ideals over different semigroups")
    return SemigroupIdeal(a.S, {x + y for x in a.gens for y in b.gens})


@lru_cache(maxsize=512)
def ideal_power_sg(a: SemigroupIdeal, n: int) -> SemigroupIdeal:
    """E^n, built once from E^(n-1)."""
    if n < 0:
        raise ValueError("negative ideal power")
    if n == 0:
        return SemigroupIdeal(a.S, (0,))
    return ideal_product_sg(ideal_power_sg(a, n - 1), a)


def translate_sg(a: SemigroupIdeal, shift: int) -> SemigroupIdeal:
    """The set shift + E, i.e. the product with the principal ideal (shift)."""
    elements = {shift + e for e in a.elements_upto(a.threshold)}
    return SemigroupIdeal.from_elements(a.S, elements, a.threshold + shift)


def colon_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    """(I_A : I_B) = {z in S : z + g in A for every generator g of B}."""
    if a.S != b.S:
        raise ValueError("ideals over different semigroups")
    S = a.S
    cap = max(S.conductor, a.threshold - min(b.gens))
    elements = {
        z
        for z in S.elements_upto(cap)
        if all(a.contains(z + g) for g in b.gens)
    }
    return SemigroupIdeal.from_elements(S, elements, cap)


def intersection_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    if a.S != b.S:
        raise ValueError("ideals over different semigroups")
    cap = max(a.threshold, b.threshold)
    elements = {e for e in a.elements_upto(cap) if b.contains(e)}
    return SemigroupIdeal.from_elements(a.S, elements, cap)


def length_sg(a: SemigroupIdeal) -> int:
    """ell(R/I_E) = #(S \\ E), a finite gap count."""
    return sum(
        1 for s in a.S.elements_upto(a.threshold - 1) if s not in a.prefix
    ) if a.threshold > 0 else 0


def length_between_sg(larger: SemigroupIdeal, smaller: SemigroupIdeal) -> int:
    """ell(I_A / I_B) for B inside A."""
    return length_sg(smaller) - length_sg(larger)


def rr_sg(a: SemigroupIdeal, power: int = 1) -> SemigroupIdeal:
    """Ratliff-Rush closure of E^power: the union of the increasing chain
    (E^(power+n) : E^n).  From n = r = reduction_number_sg(E) on,
    E^(n+1) = j + E^n, so the chain is constant and its value at n = max(r, 1)
    is the closure; an earlier repeat can be a plateau that still grows."""
    n = max(reduction_number_sg(a)[0], 1)
    return colon_sg(ideal_power_sg(a, n + power), ideal_power_sg(a, n))


def multiplicity_sg(a: SemigroupIdeal) -> int:
    """e(I_E) = min E: the length of R modulo the principal reduction (t^min E),
    which is the Apery count of min E in S."""
    return a.min_element


@lru_cache(maxsize=256)
def reduction_number_sg(a: SemigroupIdeal) -> tuple[int, int]:
    """(r, a) for the principal reduction J = (t^a), a the minimal valuation:
    the least n with a + E^n = E^(n+1), computed once per ideal."""
    j = a.min_element
    bound = multiplicity_sg(a) + 2
    for n in range(bound + 1):
        if translate_sg(ideal_power_sg(a, n), j) == ideal_power_sg(a, n + 1):
            return n, j
    raise NotAReduction(f"principal candidate failed below n = {bound}")

