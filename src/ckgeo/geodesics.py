"""Closed-form geodesic machinery: lengths, standard representatives,
continuation rules, dead-end probes, and length tables.

Everything in this module is formula-driven (no search).  The brute-force
counterparts live in :mod:`ckgeo.oracle`; the test suite certifies that the
two routes agree exactly on whole balls.

All closed forms are stated for *normalized* elements (m ≥ 0, n ≥ 0) and
extended to the other quadrants through the flip isometries, which preserve
word length letter-for-letter.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from .core import Element, evaluate, right_neighbors
from .words import LETTERS, Word


def _std_exponents(g: Element) -> tuple[int, int, int, int]:
    """Signed exponents (e₁, e₂, e₃, e₄) of the standard word of ``g`` as
    b^{e₁} · a^{e₂} · b^{e₃} · a^{e₄}, the one statement of its closed form.

    For normalized g = (k, m, n) the word is b^{k+m} · a · b^{k} · a^{n−1};
    pulled back through the flip letter maps it reads, in every quadrant,

        b^{k+m} · a^{s} · b^{k} · a^{n−s},  s = 1 if n > 0 or n = 0 <= m, else −1.

    At k = 0 the two a-runs join as a^{n}, so the exponents are (m, n, 0, 0):
    a zero exponent is an empty run, and no two nonempty runs of one base
    meet.
    """
    k, m, n = g
    if k == 0:
        return m, n, 0, 0
    s = 1 if n > 0 or (n == 0 and m >= 0) else -1
    return k + m, s, k, n - s


def _std_syllables(g: Element) -> list[tuple[str, int]]:
    """The runs of :func:`std_rep`'s word as :func:`ckgeo.words.syllables`
    reads them, at most four, without building the word."""
    return [(base, e) for base, e in zip("baba", _std_exponents(g)) if e]


def _run(letter: str, signed: int) -> str:
    """A run of ``signed`` copies of a generator (negative = inverse)."""
    if signed >= 0:
        return letter * signed
    return letter.upper() * (-signed)


def std_rep(g: Element) -> Word:
    """The standard geodesic representative of ``g``.

    For normalized g = (k, m, n) it is the freely reduced form of

        b^{k+m} · a · b^{k} · a^{n-1}

    i.e. all excess b-steps are taken in the first column, all centre-loading
    b-steps in the second, and the remaining a-steps close the word (an a⁻¹
    when n = 0).  The only cancellation is a·a⁻¹ at k = n = 0.  For other
    quadrants the word is pulled back through the flip letter maps, so
    ``evaluate(std_rep(g)) == g`` always.  The runs come from
    :func:`_std_exponents`, which states the pulled-back form.
    """
    b1, a1, b2, a2 = _std_exponents(g)
    return _run("b", b1) + _run("a", a1) + _run("b", b2) + _run("a", a2)


def length(g: Element) -> int:
    """Word length of ``g`` (closed form).

    Normalized coordinates: m + n when k = 0, else |k+m| + |k| + 1 + |n−1|.
    Normalizes inline, the full flip when m < 0, then the n-flip when n is
    still negative: the audits call this hundreds of thousands of times.
    """
    k, m, n = g
    if m < 0:
        k, m = -k, -m
    if n < 0:
        n = -n
    if k == 0:
        return m + n
    return abs(k + m) + abs(k) + 1 + abs(n - 1)


def is_geodesic(w: Word) -> bool:
    """True iff ``w`` spells its evaluation with no wasted letters."""
    return len(w) == length(evaluate(w))


def continuations(g: Element) -> str:
    """The letters that extend a geodesic to ``g`` by one: all s with
    length(g·s) = length(g) + 1, in canonical order.

    The four products g·s come from :func:`ckgeo.core.right_neighbors` as
    plain tuples; each one's length is still the closed form, so the
    dead-end audit cross-checks this function against the BFS per state.
    """
    up = length(g) + 1
    out = ""
    for s, h in zip(LETTERS, right_neighbors(g)):
        if length(h) == up:
            out += s
    return out


class RegionCase(enum.Enum):
    """Position of a normalized element relative to the sign of k and the
    balance between |k| and m; drives the continuation rule."""

    NEG_K_DOMINANT = "neg_k_dominant"  # k < 0 and |k| > m
    NEG_K_SMALL_EVEN = "neg_k_small_even"  # k < 0, |k| <= m, n even
    NEG_K_SMALL_ODD = "neg_k_small_odd"  # k < 0, |k| <= m, n odd
    POS_K = "pos_k"  # k > 0
    ZERO_K = "zero_k"  # k = 0


def classify_region(g: Element) -> RegionCase:
    """Classify after internal normalization.

    Normalizes inline; only k and m need it, as the n-flip keeps the parity
    of n.
    """
    k, m, n = g
    if m < 0:
        k, m = -k, -m
    if k == 0:
        return RegionCase.ZERO_K
    if k > 0:
        return RegionCase.POS_K
    if -k > m:
        return RegionCase.NEG_K_DOMINANT
    return RegionCase.NEG_K_SMALL_ODD if n & 1 else RegionCase.NEG_K_SMALL_EVEN


#: Letters the continuation rule names per region, for normalized elements.
#: The rule is exact for n >= 1; at n = 0 with k != 0 only the b-side letter
#: applies (the a direction shortens there, see the dead-end analysis in the
#: test suite).  ZERO_K names no letters.
RULE_LETTERS: dict[RegionCase, str] = {
    RegionCase.NEG_K_DOMINANT: "aB",
    RegionCase.NEG_K_SMALL_EVEN: "ab",
    RegionCase.NEG_K_SMALL_ODD: "aB",
    RegionCase.POS_K: "ab",
    RegionCase.ZERO_K: "",
}


def continuation_rule_letters(case: RegionCase) -> str:
    """The region rule's named letters in canonical order."""
    try:
        return RULE_LETTERS[case]
    except KeyError:
        raise ValueError(f"no continuation rule for {case!r}") from None


def is_dead_end(g: Element) -> bool:
    """True iff no single letter increases the length of ``g``, i.e.
    ``continuations(g) == ""``; returns at the first letter that does."""
    up = length(g) + 1
    for h in right_neighbors(g):
        if length(h) == up:
            return False
    return True


def _count_geodesics(g: Element, comb: Callable[[int, int], int]) -> int:
    """The closed-form geodesic count of ``g``, with binomials from ``comb``.

    Every geodesic of a normalized element has the same a-letter skeleton:
    n letters a, or the detour a^{±1} … a^{∓1} when n = 0 and k != 0.  Its
    b-runs fill the letters + 1 gaps of that skeleton; the even gaps split
    |k+m| and the odd gaps split |k|, independently (the odd gaps stay empty
    when k = 0).  So the count is one product over the skeleton, doubled for
    the detour's two mirror orientations.  Normalizes inline.
    """
    k, m, n = g
    if m < 0:
        k, m = -k, -m
    if n < 0:
        n = -n
    letters = 2 if (n == 0 and k != 0) else n
    even = letters // 2  # even gaps − 1
    count = comb(abs(k + m) + even, even)
    if k != 0:
        odd = (letters + 1) // 2
        count *= comb(abs(k) + odd - 1, odd - 1)
    return 2 * count if letters != n else count


def geodesic_count(g: Element) -> int:
    """Number of geodesic words spelling ``g`` (closed form, exact)."""
    return _count_geodesics(g, math.comb)


def closed_ball_elements(radius: int) -> list[Element]:
    """All elements with length <= radius, enumerated from the closed form.

    Walks the coordinate square |k|, |m| <= radius (each coordinate is
    bounded by the length) and solves the length bound for the range of
    |n| at each (k, m): with (k', m') the normalized pair, |n| <= radius − m'
    when k' = 0, else ||n| − 1| <= radius − (|k'+m'| + |k'| + 1).
    Independent of the oracle's BFS; sorted by construction.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    out = []
    for k in range(-radius, radius + 1):
        for m in range(-radius, radius + 1):
            kn, mn = (-k, -m) if m < 0 else (k, m)
            if kn == 0:
                low, high = 0, radius - mn
            else:
                slack = radius - abs(kn + mn) - abs(kn) - 1
                if slack < 0:
                    continue
                low, high = max(0, 1 - slack), 1 + slack
            # n = -high..-low, then low..high: ascending, with 0 at most once.
            out.extend(Element(k, m, n) for n in range(-high, -max(low, 1) + 1))
            out.extend(Element(k, m, n) for n in range(low, high + 1))
    return out


class LengthTable:
    """Map element -> closed-form length over a whole ball."""

    __slots__ = ("radius", "entries")

    def __init__(self, radius: int, entries: dict[Element, int]) -> None:
        self.radius = radius
        self.entries = entries

    @classmethod
    def build(cls, radius: int) -> "LengthTable":
        return cls(
            radius=radius,
            entries={g: length(g) for g in closed_ball_elements(radius)},
        )

    def __len__(self) -> int:
        return len(self.entries)
