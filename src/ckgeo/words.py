"""Words over the two-generator alphabet.

A word is a plain ``str`` over the four letters ``a``, ``A``, ``b``, ``B``,
where the uppercase form of a letter is its inverse.  Words are *not*
implicitly reduced: ``free_reduce`` and ``is_reduced`` make reduction an
explicit, testable step.  The canonical letter order used for every
deterministic enumeration in the toolkit is ``a < A < b < B``.

Text syntax (accepted by :func:`parse_word`, produced by :func:`format_word`):
tokens separated by optional whitespace, each token a letter optionally
followed by ``^`` and a nonzero integer exponent, e.g. ``"b^-2 a b^-4 a^3"``.
Uppercase letters are accepted on input as inverse shorthand (``B == b^-1``).
The empty word formats as ``"e"`` and ``"e"`` parses back to it.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable

# Single letters and whole words are plain strings.
Letter = str
Word = str

LETTERS: str = "aAbB"
_RANK = {letter: index for index, letter in enumerate(LETTERS)}
_BASE = {"a": "a", "A": "a", "b": "b", "B": "b"}

#: Guard against accidentally materializing astronomically long words from a
#: single ``x^huge`` token.
EXPONENT_CAP: int = 10**6

_TOKEN = re.compile(r"([aAbB])(?:\^(-?\d+))?")


def is_letter(c: str) -> bool:
    """True iff ``c`` is one of the four alphabet letters."""
    return len(c) == 1 and c in _RANK


def inverse_letter(c: Letter) -> Letter:
    """Inverse of a single letter (case swap)."""
    if not is_letter(c):
        raise ValueError(f"not a letter: {c!r}")
    return c.swapcase()


def letter_base(c: Letter) -> str:
    """The generator axis of a letter: ``'a'`` or ``'b'``."""
    try:
        return _BASE[c]
    except KeyError:
        raise ValueError(f"not a letter: {c!r}") from None


#: Letters as digits that compare in canonical order, so a translated word
#: compares like its tuple of letter ranks.
_RANK_DIGITS = str.maketrans(LETTERS, "0123")


def word_sort_key(w: Word) -> tuple[int, str]:
    """Sort key: length first, then canonical letter order."""
    return (len(w), w.translate(_RANK_DIGITS))


def parse_word(text: str) -> Word:
    """Parse word text into a raw (unreduced) word.

    Raises :class:`ckgeo.errors.ParseError` with the offending character
    offset on malformed input.
    """
    from .errors import ParseError

    stripped = text.strip()
    if stripped in ("", "e"):
        return ""
    out: list[str] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        letter, exp_text = match.group(1), match.group(2)
        exponent = 1 if exp_text is None else int(exp_text)
        if exponent == 0:
            raise ParseError("zero exponent is not allowed", position=pos)
        if abs(exponent) > EXPONENT_CAP:
            raise ParseError(
                f"exponent magnitude exceeds cap {EXPONENT_CAP}", position=pos
            )
        if exponent < 0:
            letter = letter.swapcase()
            exponent = -exponent
        out.append(letter * exponent)
        pos = match.end()
    return "".join(out)


def syllables(w: Word) -> list[tuple[str, int]]:
    """Run-length view: maximal runs as ``(base, signed_exponent)`` pairs.

    ``"BBaBB"`` -> ``[("b", -2), ("a", 1), ("b", -2)]``.
    """
    out: list[tuple[str, int]] = []
    for c in w:
        base = letter_base(c)
        step = 1 if c.islower() else -1
        if out and out[-1][0] == base and (out[-1][1] > 0) == (step > 0):
            out[-1] = (base, out[-1][1] + step)
        else:
            out.append((base, step))
    return out


def from_syllables(parts: Iterable[tuple[str, int]]) -> Word:
    """Inverse of :func:`syllables` (adjacent same-sign runs may merge)."""
    out: list[str] = []
    for base, exponent in parts:
        if base not in ("a", "b"):
            raise ValueError(f"syllable base must be 'a' or 'b', got {base!r}")
        if exponent == 0:
            continue
        letter = base if exponent > 0 else base.upper()
        out.append(letter * abs(exponent))
    return "".join(out)


def format_word(w: Word) -> str:
    """Human-readable syllable form, e.g. ``"b^-2 a b^-4 a^3"``; ``"e"`` when empty."""
    if not w:
        return "e"
    parts = []
    for base, exponent in syllables(w):
        parts.append(base if exponent == 1 else f"{base}^{exponent}")
    return " ".join(parts)


_DELETE_LETTERS = str.maketrans("", "", LETTERS)
_CANCELLING_PAIR = re.compile("aA|Aa|bB|Bb")


def is_reduced(w: Word) -> bool:
    """True iff no adjacent pair of characters cancels (one is the other's
    case swap).  A word of letters only is answered by one regex scan."""
    if not w.translate(_DELETE_LETTERS):
        return _CANCELLING_PAIR.search(w) is None
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def free_reduce(w: Word) -> Word:
    """Delete adjacent inverse pairs until none remain (confluent)."""
    if not w.translate(_DELETE_LETTERS) and _CANCELLING_PAIR.search(w) is None:
        return w
    stack: list[str] = []
    for c in w:
        if not is_letter(c):
            raise ValueError(f"not a letter: {c!r}")
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def word_inverse(w: Word) -> Word:
    """Formal inverse: reverse the word and invert each letter."""
    return w[::-1].swapcase()


class LetterMapKind(enum.Enum):
    """Alphabet bijections that induce isometries of the group.

    ``FLIP_A`` swaps ``a`` with its inverse and fixes ``b``; ``FLIP_BOTH``
    inverts every letter (whole-word case swap).
    """

    FLIP_A = "flip_a"
    FLIP_BOTH = "flip_both"


_FLIP_A_TABLE = str.maketrans("aA", "Aa")


def apply_letter_map(kind: LetterMapKind, w: Word) -> Word:
    """Apply a letter map to every letter of ``w`` (length is preserved)."""
    if kind is LetterMapKind.FLIP_A:
        return w.translate(_FLIP_A_TABLE)
    if kind is LetterMapKind.FLIP_BOTH:
        return w.swapcase()
    raise ValueError(f"unknown letter map: {kind!r}")


def cyclic_shifts(w: Word) -> list[Word]:
    """All rotations ``w[i:] + w[:i]`` in order of the split point ``i``.

    The length-0 word has the single rotation ``""``.  Rotations are returned
    with multiplicity (callers dedupe when they need the set).
    """
    if not w:
        return [""]
    return [w[i:] + w[:i] for i in range(len(w))]
