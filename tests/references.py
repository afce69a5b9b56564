"""Reference helpers that several test modules share.

These were once part of ckgeo's API.  The closed forms now normalize inline
and the move engine checks reducedness on its skeleton, so no command reaches
them any more; the tests keep them as independent references: the flip
isometries and the letter maps that induce them, quadrant normalization with
its pull-back, the Klein projection, and three word helpers.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ckgeo.core import Element


class IsometryKind(enum.Enum):
    """Self-isometries of the group used to normalize into m ≥ 0, n ≥ 0.

    ``N_FLIP`` negates the a-coordinate: (k, m, n) ↦ (k, m, −n); it is induced
    by the letter map that swaps a ↔ a⁻¹.  ``FULL_FLIP`` is inversion-like
    negation of all coordinates: (k, m, n) ↦ (−k, −m, −n); it is induced by
    inverting every letter.  The two commute and are involutions.
    """

    N_FLIP = "n_flip"
    FULL_FLIP = "full_flip"


class LetterMapKind(enum.Enum):
    """Alphabet bijections that induce isometries of the group.

    ``FLIP_A`` swaps ``a`` with its inverse and fixes ``b``; ``FLIP_BOTH``
    inverts every letter (whole-word case swap).
    """

    FLIP_A = "flip_a"
    FLIP_BOTH = "flip_both"


_FLIP_A_TABLE = str.maketrans("aA", "Aa")


def apply_letter_map(kind: LetterMapKind, w: str) -> str:
    """Apply a letter map to every letter of ``w`` (length is preserved)."""
    if kind is LetterMapKind.FLIP_A:
        return w.translate(_FLIP_A_TABLE)
    if kind is LetterMapKind.FLIP_BOTH:
        return w.swapcase()
    raise ValueError(f"unknown letter map: {kind!r}")


def letter_map_for(kind: IsometryKind) -> LetterMapKind:
    """The alphabet bijection that induces a given isometry."""
    return {
        IsometryKind.N_FLIP: LetterMapKind.FLIP_A,
        IsometryKind.FULL_FLIP: LetterMapKind.FLIP_BOTH,
    }[kind]


def apply_isometry(kind: IsometryKind, g: Element) -> Element:
    if kind is IsometryKind.N_FLIP:
        return Element(g.k, g.m, -g.n)
    if kind is IsometryKind.FULL_FLIP:
        return Element(-g.k, -g.m, -g.n)
    raise ValueError(f"unknown isometry: {kind!r}")


class NormalizationRecord(NamedTuple):
    """Result of moving an element into the quadrant m ≥ 0, n ≥ 0.

    ``applied`` lists the isometries used, in application order.  Because the
    induced letter maps commute, applying them (in any order) to a word for
    ``normalized`` yields a word for ``original`` and vice versa.
    """

    original: Element
    normalized: Element
    applied: tuple[IsometryKind, ...]

    def pull_back_word(self, w: str) -> str:
        """Map a word for ``normalized`` to a word for ``original``."""
        for kind in self.applied:
            w = apply_letter_map(letter_map_for(kind), w)
        return w


def normalize_quadrant(g: Element) -> NormalizationRecord:
    """Normalize into m ≥ 0, n ≥ 0 using the fewest flips.

    Preference order when several choices work (i.e. on the axes):
    no flip, then N_FLIP alone, then FULL_FLIP alone, then both.
    """
    if g.m >= 0 and g.n >= 0:
        return NormalizationRecord(g, g, ())
    if g.m >= 0 and g.n < 0:
        return NormalizationRecord(g, Element(g.k, g.m, -g.n), (IsometryKind.N_FLIP,))
    if g.m < 0 and g.n <= 0:
        return NormalizationRecord(g, Element(-g.k, -g.m, -g.n), (IsometryKind.FULL_FLIP,))
    return NormalizationRecord(
        g,
        Element(-g.k, -g.m, g.n),
        (IsometryKind.FULL_FLIP, IsometryKind.N_FLIP),
    )


def project_to_klein(g: Element) -> tuple[int, int]:
    """Quotient by the centre ⟨t⟩: forget k, keep (m, n)."""
    return (g.m, g.n)


def is_reduced(w: str) -> bool:
    """True iff no adjacent pair of characters cancels (one is the other's
    case swap), by the pairwise loop."""
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def word_inverse(w: str) -> str:
    """Formal inverse: reverse the word and invert each letter."""
    return w[::-1].swapcase()


def cyclic_shifts(w: str) -> list[str]:
    """All rotations ``w[i:] + w[:i]`` in order of the split point ``i``.

    The length-0 word has the single rotation ``""``.  Rotations are returned
    with multiplicity (callers dedupe when they need the set).
    """
    if not w:
        return [""]
    return [w[i:] + w[:i] for i in range(len(w))]
