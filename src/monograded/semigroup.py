"""Numerical semigroup rings and their monomial ideals as integer bitsets.

An ideal of k[[t^a1, ..., t^ag]] generated by monomials is the set of
valuations E = union(g_i + S).  S and each E are kept as one Python int,
`bits`: bit n is set iff n lies in the set.  Every such set holds a tail
[threshold, infinity), which is the int's infinite run of sign bits, so `bits`
is negative and threshold = (~bits).bit_length().  Every operation is then
one int expression and terminates exactly:

- S: 1 closed under each generator a by shift-doubling (x |= x << a,
  x << 2a, ...) below a1*ag > Frobenius; conductor = (~S).bit_length();
- product E1 + E2: OR of E1 << g over the generators g of E2;
- translate s + E: E << s;
- colon (A : B): S AND the A >> g over the generators g of B;
- intersection: A & B;
- length ell(R/I_E) = #(S minus E): (S & ~E).bit_count();
- minimal generators: E & ~OR(E << a) over the generators a of S.

Ratliff-Rush closures and reduction numbers are built on these.  This is the
complete one-dimensional engine.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import NotAReduction


def _shifts(bits: int, shifts) -> int:
    """The union of the sets bits + g over g in `shifts`."""
    out = 0
    for g in shifts:
        out |= bits << g
    return out


def _ones(bits: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class _Bitset:
    __slots__ = ()

    def contains(self, n: int) -> bool:
        return n >= 0 and bool(self.bits >> n & 1)

    def elements_upto(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if self.bits >> n & 1]


class NumericalSemigroup(_Bitset):
    """The additive submonoid of N generated by coprime positive integers."""

    __slots__ = ("gens", "bits", "conductor", "frobenius")

    def __init__(self, gens):
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or any(g <= 0 for g in gens):
            raise ValueError("semigroup generators must be positive")
        g = gcd(*gens)
        if g != 1:
            raise ValueError(f"generators {gens} have gcd {g}; complement would be infinite")
        self.gens = gens
        cap = gens[0] * gens[-1]  # the Frobenius number is below a1*ag
        mask = (1 << cap) - 1
        bits = 1
        for a in gens:
            step = a
            while step < cap:
                bits |= (bits << step) & mask
                step <<= 1
        self.bits = bits | -(1 << cap)
        self.conductor = (~self.bits).bit_length()
        self.frobenius = self.conductor - 1  # -1 when S = N

    def gaps(self) -> list[int]:
        return _ones(~self.bits)

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"


class SemigroupIdeal(_Bitset):
    """E = union(g + S) for finitely many generators g in S, kept as the
    bitset of E with [threshold, infinity) inside E."""

    __slots__ = ("S", "bits", "gens")

    def __init__(self, S: NumericalSemigroup, gens):
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens:
            raise ValueError("a semigroup ideal needs at least one generator")
        if any(g < 0 for g in gens):
            raise ValueError("generators must be nonnegative valuations")
        if any(not S.contains(g) for g in gens):
            raise ValueError(f"generators {gens} do not all lie in the semigroup")
        self._set(S, _shifts(S.bits, gens))

    @classmethod
    def _of(cls, S: NumericalSemigroup, bits: int) -> "SemigroupIdeal":
        ideal = object.__new__(cls)
        ideal._set(S, bits)
        return ideal

    def _set(self, S: NumericalSemigroup, bits: int) -> None:
        # E + S lies in E, so z = w + s with w in E and s != 0 in S iff
        # z - a lies in E for some generator a of S
        self.S, self.bits = S, bits
        self.gens = tuple(_ones(bits & ~_shifts(bits, S.gens)))

    @property
    def threshold(self) -> int:
        return (~self.bits).bit_length()

    @property
    def min_element(self) -> int:
        return self.gens[0]

    def __eq__(self, other):
        return isinstance(other, SemigroupIdeal) and self.S == other.S and self.bits == other.bits

    def __hash__(self):
        return hash((self.S, self.bits))

    def __repr__(self):
        return f"SemigroupIdeal(gens={self.gens})"


# -- operations -----------------------------------------------------------


def _same_semigroup(a: SemigroupIdeal, b: SemigroupIdeal) -> None:
    if a.S != b.S:
        raise ValueError("ideals over different semigroups")


def ideal_product_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    _same_semigroup(a, b)
    return SemigroupIdeal._of(a.S, _shifts(a.bits, b.gens))


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
    return SemigroupIdeal._of(a.S, a.bits << shift)


def colon_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    """(I_A : I_B) = {z in S : z + g in A for every generator g of B}."""
    _same_semigroup(a, b)
    bits = a.S.bits
    for g in b.gens:
        bits &= a.bits >> g
    return SemigroupIdeal._of(a.S, bits)


def intersection_sg(a: SemigroupIdeal, b: SemigroupIdeal) -> SemigroupIdeal:
    _same_semigroup(a, b)
    return SemigroupIdeal._of(a.S, a.bits & b.bits)


def length_sg(a: SemigroupIdeal) -> int:
    """ell(R/I_E) = #(S \\ E), a finite gap count."""
    return (a.S.bits & ~a.bits).bit_count()


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
