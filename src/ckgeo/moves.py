"""Length- and element-preserving rewriting moves on geodesic words.

A freely reduced word is its *skeleton* ``(gaps, axes)``: ``axes[i]`` is the
±1 of its i-th a-letter, and ``gaps[i]`` is the signed b-run before that
letter, with ``gaps[-1]`` the tail run.  The word has ``len(axes) +
Σ|gaps|`` letters, and it is freely reduced iff no zero gap sits between two
opposite a-letters.  Gap i lies in a column of parity i, so the element is
``(Σ odd gaps, Σ even gaps − Σ odd gaps, Σ axes)``, read off in O(len(axes)).
A skeleton cannot spell an unreduced word, so every function here that takes
a word raises ``ValueError("word is not freely reduced")`` on one.

The three families rewrite the source's skeleton; a candidate becomes a
:class:`MoveEdge` only if :func:`_validated` finds that it differs from the
source, spells a word of the same length, is freely reduced and has the same
element (geodesity is inherited through the length); it returns the
target's memo entry, and the family builds the edge.  The validator is the
single point of truth; generation only skips candidates that provably fail
it.  Detowering works out the element shift of each a-letter shift from the
gap parity alone and builds just the pairs whose shifts cancel and whose
b-runs keep the length; clipping pairs only transpositions with cancelling
area shifts.

* EVEN_CASTLING — slide one b-letter across a doubled a-letter (x x y ↔ y x x
  for x ∈ {a, a⁻¹}, y ∈ {b, b⁻¹}): one b-step moves from gap j to gap j + 2;
* DETOWERING — pick two distinct a-letters and shift each across one
  adjacent b-step, rebalancing the b-runs around them;
* CLIPPING — compose two disjoint a/b transpositions whose unit area shifts
  cancel (each adds the same ±1 to the two gaps around its a-letter), or
  reflect a detour (a^ε b^q a^{−ε} ↔ a^{−ε} b^q a^ε: two axes swap); both
  relocate boundary cells without changing the enclosed element.

Sites name string offsets (castling and clipping windows) or a-letter
indices (detowering, reflections).  All moves are involutive up to the
family (the reverse rewrite is generated from the target), so the induced
orbit relation is symmetric.

A ``memo`` maps each skeleton, and each word built from one, to a single
entry: the word, its :func:`word_sort_key` and its element.  An entry is a
pure function of the skeleton, so one dict may serve any number of sources;
:func:`orbit` shares one across its walk, where every orbit word is the
target of many edges but is built, keyed and evaluated once, and every edge
into it holds the same string.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple

from .core import Element, evaluate, is_normalized
from .errors import GEODESIC_CAP, ORBIT_CAP, GeodesicCapError, OrbitCapError
from .geodesics import _count_geodesics, length, std_rep
from .words import Word, format_word, sort_words, syllables, word_sort_key


class MoveKind(enum.Enum):
    EVEN_CASTLING = "even_castling"
    DETOWERING = "detowering"
    CLIPPING = "clipping"


class MoveEdge(NamedTuple):
    """One validated rewrite: ``source`` -> ``target`` by ``kind`` at ``site``."""

    source: Word
    target: Word
    kind: MoveKind
    site: str

    def to_dict(self) -> dict:
        return self._dict(format_word)

    def _dict(self, spell: Callable[[Word], str]) -> dict:
        return {
            "source": spell(self.source),
            "target": spell(self.target),
            "kind": self.kind.value,
            "site": self.site,
        }


class _Entry(NamedTuple):
    """A freely reduced word with its sort key, element and skeleton."""

    word: Word
    key: tuple[int, str]
    element: Element
    gaps: tuple[int, ...]
    axes: tuple[int, ...]


def _skeleton(w: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``(gaps, axes)`` of a freely reduced word (see the module
    docstring), folded from its syllables: a word is freely reduced iff no
    two neighbouring syllables share a base.  Raises ValueError when ``w``
    is unreduced or not a word."""
    gaps = [0]
    axes: list[int] = []
    previous = None
    for base, exponent in syllables(w):
        if base == previous:
            raise ValueError("word is not freely reduced")
        previous = base
        if base == "b":
            gaps[-1] = exponent
        else:
            axes += [1 if exponent > 0 else -1] * abs(exponent)
            gaps += [0] * abs(exponent)
    return tuple(gaps), tuple(axes)


def _skeleton_element(gaps: tuple[int, ...], axes: tuple[int, ...]) -> Element:
    """``evaluate(_build(gaps, axes))`` in closed form: gap i lies in a
    column of parity i, and a b-step in an odd column moves (k, m) by
    (+1, −1) where one in an even column moves m by +1."""
    odd = sum(gaps[1::2])
    return Element(odd, sum(gaps[0::2]) - odd, sum(axes))


def _build(gaps, axes) -> Word:
    """The word a skeleton spells (unreduced when a zero gap sits between
    opposite a-letters)."""
    runs = ["b" * gap if gap >= 0 else "B" * -gap for gap in gaps]
    return runs[0] + "".join(
        ("a" if axis > 0 else "A") + run for axis, run in zip(axes, runs[1:])
    )


def _remember(
    word: Word, gaps: tuple, axes: tuple, element: Element, memo: dict
) -> _Entry:
    entry = _Entry(word, word_sort_key(word), element, gaps, axes)
    memo[word] = memo[gaps, axes] = entry
    return entry


def _entry(w: Word, memo: dict) -> _Entry:
    """The memo entry of a source word, made on first sight."""
    entry = memo.get(w)
    if entry is None:
        gaps, axes = _skeleton(w)
        entry = _remember(w, gaps, axes, _skeleton_element(gaps, axes), memo)
    return entry


def _validated(
    source: _Entry, gaps: tuple[int, ...], axes: tuple[int, ...], memo: dict
) -> _Entry | None:
    """The memo entry of a candidate skeleton, if it is admitted: it is not
    the source's, spells a word of the source's length, spells a freely
    reduced word and has the source's element.  Otherwise None.

    A skeleton already in ``memo`` passed the reducedness check when it was
    entered, so only its length and element are compared; a new one is
    checked in full, and its word is built and entered only once admitted.
    """
    target = memo.get((gaps, axes))
    if target is None:
        if len(axes) + sum(map(abs, gaps)) != len(source.word):
            return None
        for i in range(1, len(axes)):
            if not gaps[i] and axes[i - 1] != axes[i]:
                return None
        element = _skeleton_element(gaps, axes)
        if element != source.element:
            return None
        return _remember(_build(gaps, axes), gaps, axes, element, memo)
    if (
        target is source
        or len(target.word) != len(source.word)
        or target.element != source.element
    ):
        return None
    return target


# _new(MoveEdge, fields) skips the NamedTuple's Python-level __new__.
_new = tuple.__new__


def _a_offsets(gaps: tuple[int, ...]) -> list[int]:
    """The string offset of each a-letter of the word ``gaps`` frames."""
    offsets = []
    at = -1
    for gap in gaps[:-1]:
        at += abs(gap) + 1
        offsets.append(at)
    return offsets


def castling_neighbors(w: Word, *, memo: dict | None = None) -> list[MoveEdge]:
    """Slide a b-letter across a doubled a-letter: x x y ↔ y x x.

    A doubled a-letter is a pair j, j + 1 of equal axes with an empty gap
    j + 1 between them.  The slide moves one b-step of the run before the
    pair (gap j) to the run after it (gap j + 2), or back; its site is the
    offset of the three-letter window.  Candidates come in window order.
    """
    if memo is None:
        memo = {}
    source = _entry(w, memo)
    gaps, axes = source.gaps, source.axes
    offsets = _a_offsets(gaps)
    edges = []
    kind = MoveKind.EVEN_CASTLING
    for j in range(len(axes) - 1):
        if gaps[j + 1] or axes[j] != axes[j + 1]:
            continue
        # (window offset, b-step moved from gap j to gap j + 2)
        slides = []
        if gaps[j]:
            slides.append((offsets[j] - 1, 1 if gaps[j] > 0 else -1))
        if gaps[j + 2]:
            slides.append((offsets[j], -1 if gaps[j + 2] > 0 else 1))
        for at, step in slides:
            new = list(gaps)
            new[j] -= step
            new[j + 2] += step
            target = _validated(source, tuple(new), axes, memo)
            if target is not None:
                edges.append(_new(MoveEdge, (w, target.word, kind, f"@{at}")))
    return edges


def detowering_neighbors(w: Word, *, memo: dict | None = None) -> list[MoveEdge]:
    """Shift two distinct a-letters across one adjacent b-step each.

    Shifting a-letter i by d moves d signed b-steps from the run after it to
    the run before it.  Gap i lies in a column of parity i, so with
    σ_i = (−1)^i that changes (k, m) by exactly d·σ_i·(−1, +2), and a pair
    of shifts (d_i, d_j) keeps the element iff d_i·σ_i + d_j·σ_j = 0:
    d_i = ±1 and d_j = −d_i·σ_i·σ_j.  A lone shift never keeps it.  A
    candidate spells len(axes) + Σ|gaps| letters, so a pair that changes
    that sum is dropped from the ≤ 4 gaps it touches.  Candidates come in
    the order (i, j, d_i), i < j, d_i = −1 first.

    Partners are found without scanning every pair.  Adjacent letters have
    opposite σ, so j = i + 1 always has d_j = d_i: the shared gap i + 1
    keeps its run, and the pair moves a b-step from gap i + 2 to gap i.
    Shifts of letters further apart touch disjoint gaps, so their length
    changes add: the partners of (i, d_i) are the j ≥ i + 2 with
    d_j·σ_j = −d_i·σ_i whose own change cancels that of (i, d_i).  Every
    shift is put in one of six slots by (d_j·σ_j, its change ∈ {−2, 0, 2}),
    so each (i, d_i) finds its partners in one slot.
    """
    if memo is None:
        memo = {}
    source = _entry(w, memo)
    gaps, axes = source.gaps, source.axes
    p = len(axes)
    if p < 2:
        return []
    # Adding ±1 to a gap g changes |g| by +1 iff ±g ≥ 0 (up, down), else by
    # −1.  A shift's slot is its length change + 2, plus 1 when d_j·σ_j > 0,
    # so the partners of slot s are in slot 5 − s.  Each lists (j, d_j) by j.
    up = [gap >= 0 for gap in gaps]
    down = [gap <= 0 for gap in gaps]
    slots = [[], [], [], [], [], []]
    for j in range(p):
        odd = j & 1
        slots[2 * (down[j] + up[j + 1]) + odd].append((j, -1))
        slots[2 * (up[j] + down[j + 1]) + 1 - odd].append((j, 1))
    edges = []
    for i in range(p - 1):
        odd = i & 1
        # (j, d_i, d_j) of every pair that keeps the length.
        pairs = []
        if down[i] != up[i + 2]:
            pairs.append((i + 1, -1, -1))
        partners = slots[5 - 2 * (down[i] + up[i + 1]) - odd]
        if partners:
            first = bisect_right(partners, (i + 1, 1))
            pairs.extend((j, -1, dj) for j, dj in partners[first:])
        if up[i] != down[i + 2]:
            pairs.append((i + 1, 1, 1))
        partners = slots[4 - 2 * (up[i] + down[i + 1]) + odd]
        if partners:
            first = bisect_right(partners, (i + 1, 1))
            pairs.extend((j, 1, dj) for j, dj in partners[first:])
        pairs.sort()
        for j, di, dj in pairs:
            new = list(gaps)
            new[i] += di
            new[i + 1] -= di
            new[j] += dj
            new[j + 1] -= dj
            target = _validated(source, tuple(new), axes, memo)
            if target is not None:
                site = f"a{i}{'+' if di > 0 else '-'}|a{j}{'+' if dj > 0 else '-'}"
                edges.append(_new(MoveEdge, (w, target.word, MoveKind.DETOWERING, site)))
    return edges


def clipping_neighbors(w: Word, *, memo: dict | None = None) -> list[MoveEdge]:
    """Relocate boundary cells: cancelling transposition pairs + reflections.

    A transposition swaps an a-letter with the b-letter beside it and
    inverts the b-letter; either way both gaps around a-letter j gain −s
    for a b-letter of sign s, which shifts the element by −s units of the
    central coordinate.  So only pairs of non-overlapping windows with
    opposite shifts are built, in window order.  A reflection swaps two
    adjacent opposite axes.
    """
    if memo is None:
        memo = {}
    source = _entry(w, memo)
    gaps, axes = source.gaps, source.axes
    # Transposition windows in string order: (offset, a-letter, shift).
    windows = []
    for j, at in enumerate(_a_offsets(gaps)):
        if gaps[j]:  # b-letter, a-letter
            windows.append((at - 1, j, -1 if gaps[j] > 0 else 1))
        if gaps[j + 1]:  # a-letter, b-letter
            windows.append((at, j, -1 if gaps[j + 1] > 0 else 1))
    by_shift = {s: [(at, j) for at, j, shift in windows if shift == s] for s in (-1, 1)}
    edges = []
    kind = MoveKind.CLIPPING
    for at1, j1, shift in windows:
        partners = by_shift[-shift]
        # Windows overlap unless the second starts two letters on.
        for at2, j2 in partners[bisect_left(partners, (at1 + 2,)) :]:
            new = list(gaps)
            new[j1] += shift
            new[j1 + 1] += shift
            new[j2] -= shift
            new[j2 + 1] -= shift
            target = _validated(source, tuple(new), axes, memo)
            if target is not None:
                edges.append(_new(MoveEdge, (w, target.word, kind, f"@{at1}+@{at2}")))
    for j in range(len(axes) - 1):
        if axes[j] != axes[j + 1]:
            reflected = axes[:j] + (axes[j + 1], axes[j]) + axes[j + 2 :]
            target = _validated(source, gaps, reflected, memo)
            if target is not None:
                edges.append(_new(MoveEdge, (w, target.word, kind, f"reflect@a{j}")))
    return edges


def neighbors(w: Word, *, memo: dict | None = None) -> list[MoveEdge]:
    """All validated moves from ``w``, canonically ordered.

    Edges are sorted by (target, kind, site).  No two edges share that key:
    a family never repeats a site (castling names one window, detowering one
    pair of shifts, clipping one pair of windows or one reflection), and the
    families have different kinds.  So the order is total, no edge needs to
    be dropped as a duplicate, and the sort never compares two edges.
    ``memo`` is passed on to the families, and the targets' sort keys are
    read from it.
    """
    if memo is None:
        memo = {}
    decorated = [
        (memo[edge.target].key, edge.kind._value_, edge.site, edge)
        for family in (castling_neighbors, detowering_neighbors, clipping_neighbors)
        for edge in family(w, memo=memo)
    ]
    decorated.sort()
    return [item[-1] for item in decorated]


def orbit(
    w: Word, *, cap: int = ORBIT_CAP, edges: list[MoveEdge] | None = None
) -> list[Word]:
    """The move-closure of ``w``, sorted lexicographically by formatted word.

    Every move preserves the evaluated element and the word length, so the
    orbit is a set of equal-length representatives of one element.  Raises
    ValueError when ``w`` is not freely reduced, and :class:`OrbitCapError`
    past ``cap`` words, the start word included; a geodesic ``w`` whose
    element has more than ``cap`` geodesics raises before the walk starts.
    The walk runs :func:`neighbors` once on every orbit word; when ``edges``
    is a list, every edge it validates is appended to it, in walk order, so
    a completed walk leaves there each orbit word's full neighbor list
    exactly once.

    One memo (see the module docstring) serves the whole walk: an orbit
    word's string, sort key and element are made when it is first met as a
    candidate, and every later edge into it, and its own turn as a source,
    reuse them.
    """
    memo: dict = {}
    start = _entry(w, memo).element
    seen = {w}
    # A geodesic's orbit is every geodesic of its element (Theorem 2), so a
    # closed-form count past the cap decides the walk's outcome up front.
    if len(seen) > cap or (
        len(w) == length(start) and _capped_geodesic_count(start, cap) > cap
    ):
        raise OrbitCapError(f"orbit of {format_word(w)} exceeded cap={cap}")
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            found = neighbors(u, memo=memo)
            if edges is not None:
                edges.extend(found)
            for edge in found:
                if edge.target not in seen:
                    seen.add(edge.target)
                    nxt.append(edge.target)
                    if len(seen) > cap:
                        raise OrbitCapError(
                            f"orbit of {format_word(w)} exceeded cap={cap}"
                        )
        frontier = sorted(nxt, key=lambda u: memo[u].key)
    return sorted(seen, key=format_word)


class ConnectivityReport(NamedTuple):
    """Comparison of a move orbit against the exhaustive geodesic set."""

    element: Element
    length: int
    geodesic_count: int
    orbit_size: int
    connected: bool
    missing: tuple[Word, ...]
    extra: tuple[Word, ...]
    edges: tuple[MoveEdge, ...]

    def to_dict(self) -> dict:
        # Every orbit word is the source and target of many edges: spell
        # each one once.
        words = {e.source for e in self.edges} | {e.target for e in self.edges}
        spell = {u: format_word(u) for u in words}.__getitem__
        return {
            "element": self.element.format(),
            "length": self.length,
            "geodesic_count": self.geodesic_count,
            "orbit_size": self.orbit_size,
            "connected": self.connected,
            "missing": [format_word(u) for u in self.missing],
            "extra": [format_word(u) for u in self.extra],
            "edges": [e._dict(spell) for e in self.edges],
        }


def _capped_binomial(n: int, k: int, cap: int) -> int:
    """min(comb(n, k), cap + 1) for cap >= 0, in integers no larger than cap·n.

    The running product c = comb(n − k + i, i) grows with i, so it stops as
    soon as c passes ``cap``.
    """
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > cap:
            return cap + 1
    return c


def _capped_geodesic_count(g: Element, cap: int) -> int:
    """min(geodesic_count(g), cap + 1), without the exact count.

    The same closed form as :func:`geodesic_count`, with each binomial built
    as a capped running product: a huge element decides ``count > cap`` in
    microseconds instead of in ``math.comb`` on million-sized arguments.
    Each capped factor is at least 1, so a negative ``cap`` gives cap + 1.
    """
    bound = max(cap, 0)
    count = _count_geodesics(g, lambda n, k: _capped_binomial(n, k, bound))
    return min(count, cap + 1)


def check_theorem2(
    g: Element,
    *,
    ball=None,
    geodesic_cap: int = GEODESIC_CAP,
    orbit_cap: int = ORBIT_CAP,
) -> ConnectivityReport:
    """Does the move orbit of std_rep(g) reach every geodesic of g?

    Raises :class:`GeodesicCapError` before any walk or ball when the
    closed-form :func:`geodesic_count` exceeds ``geodesic_cap``; the count is
    capped at ``geodesic_cap + 1``, so the check stays cheap for huge
    elements.  The orbit is walked first.  With no ``ball`` supplied, an
    orbit as large as the closed-form count is every geodesic: the walk
    admits only distinct words of length length(g) that spell g (see
    :func:`_validated`), so no ball is built and nothing is enumerated.
    Otherwise the geodesics are enumerated exhaustively with the brute-force
    oracle, on ``ball`` or on a ball of radius length(g) built on demand.
    The report lists unreached geodesics, orbit words that are not geodesic
    (impossible by the validator; reported for honesty), and every validated
    edge among the orbit words, as collected by the orbit walk itself.
    """
    from .oracle import build_ball, enumerate_geodesics

    count = _capped_geodesic_count(g, geodesic_cap)
    if count > geodesic_cap:
        raise GeodesicCapError(
            f"{g.format()} has more geodesics than geodesic_cap={geodesic_cap}"
        )
    total = length(g)
    flat: list[MoveEdge] = []
    orb = orbit(std_rep(g), cap=orbit_cap, edges=flat)
    if ball is None and len(orb) == count:
        missing = extra = ()
    else:
        if ball is None:
            ball = build_ball("ck", total)
        geos = enumerate_geodesics(ball, g, cap=geodesic_cap)
        count = len(geos)
        geo_set = set(geos)
        orb_set = set(orb)
        missing = tuple(sort_words(geo_set - orb_set))
        extra = tuple(sort_words(orb_set - geo_set))
    # The walk leaves each source's edges together, sorted by (target, kind,
    # site), so joining the groups in word_sort_key order of their sources
    # orders edges by (source, target, kind, site).  A word with no edges
    # (a singleton orbit) has no group.
    by_source = {u: list(group) for u, group in groupby(flat, key=itemgetter(0))}
    edges = [e for u in sort_words(orb) for e in by_source.get(u, ())]
    return ConnectivityReport(
        element=g,
        length=total,
        geodesic_count=count,
        orbit_size=len(orb),
        connected=not missing and not extra,
        missing=missing,
        extra=extra,
        edges=tuple(edges),
    )


class YoungDecomposition(NamedTuple):
    """Geodesic word of a normalized element, as rectangle + two diagrams.

    The lattice path of any geodesic stays inside a rectangle determined by
    the element alone; per column-parity side, the path's b-run profile
    deviates from the standard (front-loaded) profile by a weakly decreasing
    sequence — a Young-diagram partition.  ``even_side`` collects the
    deviations of the even columns (which carry the endpoint coordinate),
    ``odd_side`` those of the odd columns (which carry the centre), and
    ``detour_sign`` distinguishes the two mirror families that exist exactly
    when n = 0 and k ≠ 0 (otherwise 0).  The standard representative is the
    unique geodesic with both diagrams empty.
    """

    element: Element
    rectangle: tuple[tuple[int, int], ...]
    even_side: tuple[int, ...]
    odd_side: tuple[int, ...]
    detour_sign: int

    def to_dict(self) -> dict:
        return {
            "element": self.element.format(),
            "rectangle": [list(c) for c in self.rectangle],
            "even_side": list(self.even_side),
            "odd_side": list(self.odd_side),
            "detour_sign": self.detour_sign,
        }


def young_rectangle(g: Element) -> tuple[tuple[int, int], ...]:
    """Corner points (x, y) of the bounding rectangle shared by every
    geodesic lattice path of a normalized element, in the fixed order
    ((n, y1), (0, y1), (0, y2), (n, y2)) with y1 = k+m and y2 = −k when
    k != 0, else y1 = 0 and y2 = m.  The sign cases take precedence: the
    k = 0 row applies only when k is exactly zero."""
    if not is_normalized(g):
        raise ValueError(f"element {g.format()} is not normalized (need m >= 0, n >= 0)")
    k, m, n = g
    if k == 0:
        return ((n, 0), (0, 0), (0, m), (n, m))
    return ((n, k + m), (0, k + m), (0, -k), (n, -k))


def _deviation_partition(comp: list[int]) -> tuple[int, ...]:
    """Deviation of a composition from its front-loaded extreme.

    Entry i is (total − sum of the first i+1 parts); the sequence is weakly
    decreasing with trailing zeros trimmed, i.e. a partition.  The
    front-loaded composition (everything in the first slot) maps to ().
    """
    total = sum(comp)
    running = 0
    out = []
    for part in comp[:-1]:
        running += part
        out.append(total - running)
    return tuple(v for v in out if v > 0)


def _composition_from_partition(
    partition: tuple[int, ...], total: int, slots: int
) -> list[int]:
    """Inverse of :func:`_deviation_partition` for a given slot count."""
    if slots == 0:
        if partition or total:
            raise ValueError("nonempty diagram with no columns to carry it")
        return []
    if len(partition) > slots - 1:
        raise ValueError(f"diagram has {len(partition)} rows, at most {slots - 1} fit")
    if any(v <= 0 for v in partition):
        raise ValueError("diagram rows must be positive")
    if any(partition[i] < partition[i + 1] for i in range(len(partition) - 1)):
        raise ValueError("diagram rows must be weakly decreasing")
    if partition and partition[0] > total:
        raise ValueError(f"diagram row {partition[0]} exceeds side total {total}")
    padded = list(partition) + [0] * (slots - 1 - len(partition))
    comp = []
    previous = 0
    for v in padded:
        comp.append(total - v - previous)
        previous = total - v
    comp.append(total - previous)
    return comp


def young_decomposition(w: Word) -> YoungDecomposition:
    """Decompose a geodesic word of a normalized element.

    Raises ValueError when the word is not geodesic or its element leaves
    the quadrant m >= 0, n >= 0 (apply the flip letter maps first).
    """
    gaps, axes = _skeleton(w)
    g = _skeleton_element(gaps, axes)
    if g.m < 0 or g.n < 0:
        raise ValueError(
            f"element {g.format()} is not normalized (need m >= 0, n >= 0)"
        )
    if len(w) != length(g):
        raise ValueError(f"word {format_word(w)!r} is not geodesic")
    k, m, n = g
    # The skeleton: n letters a, or the detour a^c … a^{-c} (two mirror
    # families, c = ±1) when n = 0 and k != 0.
    detour = n == 0 and k != 0
    if detour:
        if len(axes) != 2 or axes[0] != -axes[1]:
            raise ValueError("unexpected shape for a detour geodesic")
    elif axes != (1,) * n:
        raise ValueError("unexpected shape for an x-monotone geodesic")
    return YoungDecomposition(
        element=g,
        rectangle=young_rectangle(g),
        even_side=_deviation_partition([abs(v) for v in gaps[0::2]]),
        odd_side=_deviation_partition([abs(v) for v in gaps[1::2]]),
        detour_sign=axes[0] if detour else 0,
    )


def young_recompose(dec: YoungDecomposition) -> Word:
    """Rebuild the unique geodesic word of a decomposition.

    Validates the diagram shapes and re-evaluates the result; raises
    ValueError on any inconsistency.
    """
    k, m, n = dec.element
    if m < 0 or n < 0:
        raise ValueError("element is not normalized")
    if n == 0 and k != 0:
        if dec.detour_sign not in (-1, 1):
            raise ValueError("detour_sign must be ±1 for n = 0, k != 0")
        axes = [dec.detour_sign, -dec.detour_sign]
    else:
        if dec.detour_sign != 0:
            raise ValueError("detour_sign must be 0 unless n = 0 and k != 0")
        axes = [1] * n
    # The even gaps split |k+m| with the sign of k+m, the odd gaps |k| with
    # the sign of k.
    gaps = [0] * (len(axes) + 1)
    even_comp = _composition_from_partition(dec.even_side, abs(k + m), len(gaps[0::2]))
    odd_comp = _composition_from_partition(dec.odd_side, abs(k), len(gaps[1::2]))
    gaps[0::2] = [v if k + m >= 0 else -v for v in even_comp]
    gaps[1::2] = [v if k >= 0 else -v for v in odd_comp]
    word = _build(gaps, axes)
    if evaluate(word) != dec.element:
        raise ValueError("decomposition does not evaluate to its element")
    if dec.rectangle != young_rectangle(dec.element):
        raise ValueError("rectangle does not match the element")
    return word
