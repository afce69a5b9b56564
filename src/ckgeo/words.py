"""Words over the two-generator alphabet.

A word is a plain ``str`` over the four letters ``a``, ``A``, ``b``, ``B``,
where the uppercase form of a letter is its inverse.  Words are *not*
implicitly reduced: ``free_reduce`` makes reduction an explicit, testable
step.  The canonical letter order used for every deterministic enumeration
in the toolkit is ``a < A < b < B``.

Text syntax (accepted by :func:`parse_word`, produced by :func:`format_word`):
tokens separated by optional whitespace, each token a letter optionally
followed by ``^`` and a nonzero integer exponent, e.g. ``"b^-2 a b^-4 a^3"``.
Uppercase letters are accepted on input as inverse shorthand (``B == b^-1``).
The empty word formats as ``"e"`` and ``"e"`` parses back to it.
"""

from __future__ import annotations

import re
from operator import methodcaller
from typing import Iterable

# Single letters and whole words are plain strings.
Letter = str
Word = str

LETTERS: str = "aAbB"
_RANK = {letter: index for index, letter in enumerate(LETTERS)}

#: Guard against accidentally materializing astronomically long words from a
#: single ``x^huge`` token.
EXPONENT_CAP: int = 10**6

_TOKEN = re.compile(r"([aAbB])(?:\^(-?\d+))?")


def is_letter(c: str) -> bool:
    """True iff ``c`` is one of the four alphabet letters."""
    return len(c) == 1 and c in _RANK


#: Letters as digits that compare in canonical order, so a translated word
#: compares like its tuple of letter ranks.
_RANK_DIGITS = str.maketrans(LETTERS, "0123")


def word_sort_key(w: Word) -> tuple[int, str]:
    """Sort key: length first, then canonical letter order."""
    return (len(w), w.translate(_RANK_DIGITS))


def sort_words(words: Iterable[Word]) -> list[Word]:
    """``sorted(words, key=word_sort_key)``, with C-level keys: sort by the
    translated word, then stably by length."""
    out = sorted(words, key=methodcaller("translate", _RANK_DIGITS))
    out.sort(key=len)
    return out


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


_RUN = re.compile("a+|A+|b+|B+")


def _runs(w: Word) -> list[str]:
    """The maximal runs of one letter that make up ``w``, in order.

    Raises ValueError naming the first character that is not a letter.
    """
    runs = _RUN.findall(w)
    if sum(map(len, runs)) != len(w):
        raise ValueError(f"not a letter: {next(c for c in w if c not in _RANK)!r}")
    return runs


#: Each letter's base and the sign it gives the exponent of its run.
_SIGNED_BASE = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}


def syllables(w: Word) -> list[tuple[str, int]]:
    """Run-length view: maximal runs as ``(base, signed_exponent)`` pairs.

    ``"BBaBB"`` -> ``[("b", -2), ("a", 1), ("b", -2)]``.
    """
    out = []
    for run in _runs(w):
        base, sign = _SIGNED_BASE[run[0]]
        out.append((base, sign * len(run)))
    return out


def _format_syllables(runs: Iterable[tuple[str, int]]) -> str:
    """Text of ``(base, signed_exponent)`` runs, e.g. ``"b^-2 a b^-4 a^3"``;
    ``"e"`` when there are none.  Consecutive runs must have different
    bases for the text to parse back to the same word."""
    return " ".join([base if e == 1 else f"{base}^{e}" for base, e in runs]) or "e"


def format_word(w: Word) -> str:
    """Human-readable syllable form, e.g. ``"b^-2 a b^-4 a^3"``; ``"e"`` when empty."""
    return _format_syllables(syllables(w))


_DELETE_LETTERS = str.maketrans("", "", LETTERS)
_CANCELLING_PAIR = re.compile("aA|Aa|bB|Bb")


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
