"""Normal-form arithmetic for the group ⟨a, b | [aba⁻¹b, a] = [b, aba⁻¹b] = 1⟩.

The word t = aba⁻¹b is central, and every element factors uniquely as
t^k · b^m · a^n.  Elements are therefore integer triples (k, m, n):

* ``n`` — the a-coordinate (exponent sum of a),
* ``m`` — the b-coordinate, twisted by the parity of n,
* ``k`` — the central coordinate, the signed area accumulated by a word's
  lattice path (see :func:`lattice_path`).

Generators: a = (0, 0, 1), b = (0, 1, 0), t = (1, 0, 0).  Multiplication
twists the incoming b-coordinate by (−1)^n and feeds b-steps taken at odd
a-position into the centre:

    (k₁, m₁, n₁) · (k₂, m₂, n₂) = (k₁ + k₂ + m₂·par(n₁),
                                   m₁ + m₂·(−1)^{n₁},
                                   n₁ + n₂)

where par(n) ∈ {0, 1} is the parity of n.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError
from .words import Letter, Word


class Element(NamedTuple):
    """Group element in normal form t^k b^m a^n."""

    k: int
    m: int
    n: int

    def format(self) -> str:
        return f"({self.k},{self.m},{self.n})"

    @classmethod
    def parse(cls, text: str) -> "Element":
        """Parse ``"(k,m,n)"``: both parentheses or neither, whitespace optional."""
        match = re.fullmatch(
            r"\s*(\()?\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*(?(1)\))\s*", text
        )
        if match is None:
            raise ParseError(f"expected an element like (k,m,n), got {text!r}")
        return cls(int(match.group(2)), int(match.group(3)), int(match.group(4)))

    def to_dict(self) -> dict[str, int]:
        return {"k": self.k, "m": self.m, "n": self.n}


IDENTITY = Element(0, 0, 0)

#: The central word t = a b a⁻¹ b and its normal form.
CENTRAL_WORD: Word = "abAb"
CENTRAL_ELEMENT = Element(1, 0, 0)

GENERATORS: dict[Letter, Element] = {
    "a": Element(0, 0, 1),
    "A": Element(0, 0, -1),
    "b": Element(0, 1, 0),
    "B": Element(0, -1, 0),
}


def multiply(g: Element, h: Element) -> Element:
    """Group product g · h in normal-form coordinates."""
    p = g.n & 1
    return Element(
        g.k + h.k + (h.m if p else 0),
        g.m + (-h.m if p else h.m),
        g.n + h.n,
    )


def right_neighbors(
    g: tuple[int, int, int],
) -> tuple[tuple[int, int, int], ...]:
    """Keys of g·a, g·A, g·b, g·B (the order of ``LETTERS``) for a (k, m, n)
    tuple, by plain tuple arithmetic.

    The same twist as :func:`multiply`: a/A move n by ±1; b/B move m by ±1
    when n is even and give (k±1, m∓1) when n is odd.  The per-state audit
    checks call this instead of building an :class:`Element` per product.
    """
    k, m, n = g
    if n & 1:
        return (k, m, n + 1), (k, m, n - 1), (k + 1, m - 1, n), (k - 1, m + 1, n)
    return (k, m, n + 1), (k, m, n - 1), (k, m + 1, n), (k, m - 1, n)


def inverse(g: Element) -> Element:
    """Group inverse: multiply(g, inverse(g)) == IDENTITY."""
    p = g.n & 1
    m_inv = g.m if p else -g.m
    return Element(-g.k - (m_inv if p else 0), m_inv, -g.n)


def evaluate(w: Word) -> Element:
    """Fold a word through normal-form multiplication, left to right."""
    k = m = n = 0
    for c in w:
        if c == "a":
            n += 1
        elif c == "A":
            n -= 1
        elif c == "b":
            if n & 1:
                k += 1
                m -= 1
            else:
                m += 1
        elif c == "B":
            if n & 1:
                k -= 1
                m += 1
            else:
                m -= 1
        else:
            raise ValueError(f"not a letter: {c!r}")
    return Element(k, m, n)


class PathPoint(NamedTuple):
    """A lattice-path vertex with the signed area swept so far."""

    x: int
    y: int
    area: int


def lattice_path(w: Word) -> list[PathPoint]:
    """Trace a word as a walk on the integer lattice, letter by letter.

    ``a``/``A`` move one unit along x; ``b``/``B`` move one unit along y,
    with the drawn direction flipped in odd columns.  A vertical step taken
    in an odd column additionally sweeps one signed unit of area.  This fold
    never calls :func:`multiply`; it is the independent cross-check for
    :func:`evaluate`: the final point of ``lattice_path(w)`` is
    ``(x, y, area) == (n, m, k)`` of ``evaluate(w)``.
    """
    x = y = area = 0
    points = [PathPoint(0, 0, 0)]
    for c in w:
        if c == "a":
            x += 1
        elif c == "A":
            x -= 1
        elif c == "b" or c == "B":
            s = 1 if c == "b" else -1
            if x & 1:
                y -= s
                area += s
            else:
                y += s
        else:
            raise ValueError(f"not a letter: {c!r}")
        points.append(PathPoint(x, y, area))
    return points


def is_normalized(g: Element) -> bool:
    """True iff g lies in the preferred quadrant m ≥ 0, n ≥ 0."""
    return g.m >= 0 and g.n >= 0
