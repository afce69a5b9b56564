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
from dataclasses import dataclass, field

from .core import Element, evaluate, right_neighbors
from .words import LETTERS, Word


#: Letter maps that pull a normalized word back, keyed by (full flip, n-flip):
#: the full flip inverts every letter, the n-flip swaps a with a⁻¹, and the
#: two together swap b with b⁻¹.
_PULL_BACK = {
    (True, False): str.maketrans("aAbB", "AaBb"),
    (False, True): str.maketrans("aA", "Aa"),
    (True, True): str.maketrans("bB", "Bb"),
}


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
    ``evaluate(std_rep(g)) == g`` always.  Normalizes inline, with the flips
    :func:`normalize_quadrant` chooses: the full flip when m < 0, then the
    n-flip when n is still negative.
    """
    k, m, n = g
    flip_all = m < 0
    if flip_all:
        k, m, n = -k, -m, -n
    flip_a = n < 0
    if flip_a:
        n = -n
    if k == 0 and n == 0:
        word = "b" * m
    else:
        word = _run("b", k + m) + "a" + _run("b", k) + _run("a", n - 1)
    if flip_all or flip_a:
        word = word.translate(_PULL_BACK[flip_all, flip_a])
    return word


def length(g: Element) -> int:
    """Word length of ``g`` (closed form).

    Normalized coordinates: m + n when k = 0, else |k+m| + |k| + 1 + |n−1|.
    Normalizes inline, as :func:`normalize_quadrant` does: the audits call
    this hundreds of thousands of times and need no flip record.
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
    """True iff no single letter increases the length of ``g``."""
    return continuations(g) == ""


def depth(g: Element) -> int:
    """Dead-end depth: 0, since every element has a continuation.

    The group has no dead ends (the dead-end audit certifies this on every
    ball it builds), so an element without one means the closed forms are
    wrong, and that raises RuntimeError.
    """
    if is_dead_end(g):
        raise RuntimeError(f"{g} has no continuation; the group has no dead ends")
    return 0


def geodesic_count(g: Element) -> int:
    """Number of geodesic words spelling ``g`` (closed form).

    A geodesic of a normalized element with k != 0 and n >= 1 distributes
    |k| over the odd columns and |k+m| over the even columns independently;
    with n = 0 it is a two-sided detour with |k+m|+1 splits and two mirror
    orientations; with k = 0 only the even columns carry weight.
    """
    k, m, n = g
    if m < 0:
        k, m = -k, -m
    if n < 0:
        n = -n
    if k == 0:
        half = n // 2
        return math.comb(m + half, half)
    if n == 0:
        return 2 * (abs(k + m) + 1)
    odd_slots = (n + 1) // 2
    even_slots = n // 2 + 1
    return math.comb(abs(k) + odd_slots - 1, odd_slots - 1) * math.comb(
        abs(k + m) + even_slots - 1, even_slots - 1
    )


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


@dataclass(frozen=True)
class LengthTable:
    """Frozen map element -> closed-form length over a whole ball."""

    radius: int
    entries: dict[Element, int] = field(repr=False)

    @classmethod
    def build(cls, radius: int) -> "LengthTable":
        return cls(
            radius=radius,
            entries={g: length(g) for g in closed_ball_elements(radius)},
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, g: Element) -> int:
        return self.entries[g]

    def __contains__(self, g: Element) -> bool:
        return g in self.entries
