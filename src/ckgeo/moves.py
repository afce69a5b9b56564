"""Length- and element-preserving rewriting moves on geodesic words.

Three candidate families are generated syntactically and then validated
semantically; a candidate becomes a :class:`MoveEdge` only if it has the same
length, is freely reduced, and evaluates to the same element as the source
(geodesity is inherited through the length).  The validator is the single
point of truth; generation only skips candidates that provably fail it.
Detowering works out the element shift of each a-letter shift from the
column parity alone and builds just the pairs whose shifts cancel and whose
b-run lengths add up to the source length; clipping pairs only
transpositions with cancelling area shifts.

Elements are looked up in a ``memo`` that maps a word to ``evaluate(word)``.
The memo is a pure function of the word, so one dict may serve any number of
sources and elements; :func:`orbit` shares one across its walk, where every
orbit word is the target of many edges but is evaluated once.

* EVEN_CASTLING — slide one b-letter across a doubled a-letter (x x y ↔ y x x
  for x ∈ {a, a⁻¹}, y ∈ {b, b⁻¹});
* DETOWERING — pick two distinct a-letters and shift each across one
  adjacent b-step, rebalancing the b-runs around them;
* CLIPPING — compose two disjoint a/b transpositions whose unit area shifts
  cancel, or reflect a detour (a^ε b^q a^{−ε} ↔ a^{−ε} b^q a^ε); both
  relocate boundary cells without changing the enclosed element.

All moves are involutive up to the family (the reverse rewrite is generated
from the target), so the induced orbit relation is symmetric.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

from .core import Element, evaluate, is_normalized
from .errors import GEODESIC_CAP, ORBIT_CAP, GeodesicCapError, OrbitCapError
from .geodesics import _count_geodesics, length, std_rep
from .words import Word, format_word, free_reduce, is_reduced, word_sort_key


class MoveKind(enum.Enum):
    EVEN_CASTLING = "even_castling"
    DETOWERING = "detowering"
    CLIPPING = "clipping"


@dataclass(frozen=True)
class MoveEdge:
    """One validated rewrite: ``source`` -> ``target`` by ``kind`` at ``site``."""

    source: Word
    target: Word
    kind: MoveKind
    site: str

    def to_dict(self) -> dict:
        return {
            "source": format_word(self.source),
            "target": format_word(self.target),
            "kind": self.kind.value,
            "site": self.site,
        }


def _element(w: Word, memo: dict[Word, Element]) -> Element:
    """``evaluate(w)``, computed at most once per memo."""
    g = memo.get(w)
    if g is None:
        g = memo[w] = evaluate(w)
    return g


def _validated(
    w: Word,
    cand: Word,
    kind: MoveKind,
    site: str,
    g: Element,
    memo: dict[Word, Element],
) -> MoveEdge | None:
    """Admit a candidate only if it preserves length, reducedness, and the
    element ``g == evaluate(w)``; a candidate's element comes from ``memo``."""
    if cand == w or len(cand) != len(w):
        return None
    if not is_reduced(cand):
        return None
    if _element(cand, memo) != g:
        return None
    return MoveEdge(source=w, target=cand, kind=kind, site=site)


def _gaps_axes(w: Word) -> tuple[list[int], list[int]]:
    """Split a word into signed b-runs around its a-letters.

    Returns (gaps, axes): ``axes[i]`` is ±1 per a-letter in order, and
    ``gaps[i]`` is the signed b-exponent before the i-th a-letter, with
    ``gaps[-1]`` the tail run (so ``len(gaps) == len(axes) + 1``).
    """
    gaps = [0]
    axes: list[int] = []
    for c in w:
        if c == "a" or c == "A":
            axes.append(1 if c == "a" else -1)
            gaps.append(0)
        elif c == "b":
            gaps[-1] += 1
        elif c == "B":
            gaps[-1] -= 1
        else:
            raise ValueError(f"not a letter: {c!r}")
    return gaps, axes


def _build(gaps: list[int], axes: list[int]) -> Word:
    """Inverse of :func:`_gaps_axes`; the result may be unreduced."""
    parts = []
    for i, axis in enumerate(axes):
        parts.append(_b_run(gaps[i]))
        parts.append("a" if axis > 0 else "A")
    parts.append(_b_run(gaps[-1]))
    return "".join(parts)


def _b_run(signed: int) -> str:
    return "b" * signed if signed >= 0 else "B" * (-signed)


def castling_neighbors(
    w: Word, *, memo: dict[Word, Element] | None = None
) -> list[MoveEdge]:
    """Slide a b-letter across a doubled a-letter: x x y ↔ y x x."""
    if memo is None:
        memo = {}
    g = _element(w, memo)
    edges = []
    for i in range(len(w) - 2):
        x1, x2, x3 = w[i], w[i + 1], w[i + 2]
        cand = None
        if x1 == x2 and x1 in "aA" and x3 in "bB":
            cand = w[:i] + x3 + x1 + x2 + w[i + 3 :]
        elif x2 == x3 and x2 in "aA" and x1 in "bB":
            cand = w[:i] + x2 + x3 + x1 + w[i + 3 :]
        if cand is not None:
            edge = _validated(w, cand, MoveKind.EVEN_CASTLING, f"@{i}", g, memo)
            if edge is not None:
                edges.append(edge)
    return edges


def detowering_neighbors(
    w: Word, *, memo: dict[Word, Element] | None = None
) -> list[MoveEdge]:
    """Shift two distinct a-letters across one adjacent b-step each.

    Shifting a-letter i by d moves d signed b-steps from the run after it to
    the run before it.  With x_i = sum(axes[:i]) the column before the letter
    and σ_i = (−1)^{x_i}, that changes (k, m) by exactly d·σ_i·(−1, +2), so a
    pair of shifts (d_i, d_j) keeps the element iff d_i·σ_i + d_j·σ_j = 0:
    d_i = ±1 and d_j = −d_i·σ_i·σ_j.  A lone shift never keeps it.  A built
    candidate has len(axes) + Σ|gaps| letters, so a pair that changes the
    length is dropped from the ≤ 4 gaps it touches, before any string is
    built.  Candidates come in the order (i, j, d_i), i < j, d_i = −1 first.

    Partners are found without scanning every pair.  Adjacent letters sit in
    columns of opposite parity, so j = i + 1 always has d_j = d_i: the
    shared gap i + 1 keeps its run, and the pair moves a b-step from gap
    i + 2 to gap i.  Shifts of letters further apart touch disjoint gaps, so
    their length changes add: the partners of (i, d_i) are the j ≥ i + 2
    with d_j·σ_j = −d_i·σ_i whose own change makes up the rest of the
    slack.  Every shift is bucketed by (d_j·σ_j, grow_j(d_j)), so each
    (i, d_i) finds its partners in one bucket.
    """
    gaps, axes = _gaps_axes(w)
    p = len(axes)
    if p < 2:
        return []
    if memo is None:
        memo = {}
    g = _element(w, memo)
    # The length change a surviving pair must make.
    slack = len(w) - p - sum(map(abs, gaps))
    sigma = []
    x = 0
    for axis in axes:
        sigma.append(-1 if x & 1 else 1)
        x += axis
    # grow[i][d]: length change of shifting a-letter i alone by d = ±1.
    grow = [
        {
            d: abs(gaps[i] + d) - abs(gaps[i]) + abs(gaps[i + 1] - d) - abs(gaps[i + 1])
            for d in (-1, 1)
        }
        for i in range(p)
    ]
    # (d_j·σ_j, grow[j][d_j]) -> every such (j, d_j), ascending.
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j in range(p):
        for d in (-1, 1):
            buckets.setdefault((d * sigma[j], grow[j][d]), []).append((j, d))
    edges = []
    for i in range(p - 1):
        # (j, d_i, d_j) of every pair whose length change is the slack.
        pairs = []
        before, after = gaps[i], gaps[i + 2]
        for di in (-1, 1):
            if abs(before + di) - abs(before) + abs(after - di) - abs(after) == slack:
                pairs.append((i + 1, di, di))
            partners = buckets.get((-di * sigma[i], slack - grow[i][di]))
            if partners:
                first = bisect_right(partners, (i + 1, 1))
                pairs.extend((j, di, dj) for j, dj in partners[first:])
        pairs.sort()
        for j, di, dj in pairs:
            new_gaps = list(gaps)
            new_gaps[i] += di
            new_gaps[i + 1] -= di
            new_gaps[j] += dj
            new_gaps[j + 1] -= dj
            edge = _validated(
                w,
                _build(new_gaps, axes),
                MoveKind.DETOWERING,
                f"a{i}{'+' if di > 0 else '-'}|a{j}{'+' if dj > 0 else '-'}",
                g,
                memo,
            )
            if edge is not None:
                edges.append(edge)
    return edges


def _transposition_sites(w: Word) -> list[tuple[int, int, Word]]:
    """Single a/b transpositions with their unit area shift.

    A window holding one a-letter and one b-letter is rewritten by swapping
    the two and inverting the b-letter; the element changes by exactly one
    unit of the central coordinate (−1 when the b-letter is b, +1 when it is
    b⁻¹), so only cancelling pairs of these can ever validate.
    """
    sites = []
    for i in range(len(w) - 1):
        u, v = w[i], w[i + 1]
        if u in "aA" and v in "bB":
            window = v.swapcase() + u
            shift = -1 if v == "b" else 1
        elif u in "bB" and v in "aA":
            window = v + u.swapcase()
            shift = -1 if u == "b" else 1
        else:
            continue
        sites.append((i, shift, window))
    return sites


def clipping_neighbors(
    w: Word, *, memo: dict[Word, Element] | None = None
) -> list[MoveEdge]:
    """Relocate boundary cells: cancelling transposition pairs + reflections."""
    if memo is None:
        memo = {}
    g = _element(w, memo)
    edges = []
    sites = _transposition_sites(w)
    for s1 in range(len(sites)):
        i1, shift1, window1 = sites[s1]
        for s2 in range(s1 + 1, len(sites)):
            i2, shift2, window2 = sites[s2]
            if i2 < i1 + 2:
                continue  # overlapping windows interfere
            if shift1 + shift2 != 0:
                continue
            cand = (
                w[:i1] + window1 + w[i1 + 2 : i2] + window2 + w[i2 + 2 :]
            )
            edge = _validated(w, cand, MoveKind.CLIPPING, f"@{i1}+@{i2}", g, memo)
            if edge is not None:
                edges.append(edge)
    gaps, axes = _gaps_axes(w)
    for i in range(len(axes) - 1):
        if axes[i] == -axes[i + 1]:
            new_axes = list(axes)
            new_axes[i], new_axes[i + 1] = new_axes[i + 1], new_axes[i]
            cand = _build(gaps, new_axes)
            edge = _validated(w, cand, MoveKind.CLIPPING, f"reflect@a{i}", g, memo)
            if edge is not None:
                edges.append(edge)
    return edges


def neighbors(w: Word, *, memo: dict[Word, Element] | None = None) -> list[MoveEdge]:
    """All validated moves from ``w``, canonically ordered.

    Edges are sorted by (target, kind, site).  No two edges share that key:
    a family never repeats a site (castling names one window, detowering one
    pair of shifts, clipping one pair of windows or one reflection), and the
    families have different kinds.  So the order is total and no edge needs
    to be dropped as a duplicate.  ``memo`` is passed on to the families.
    """
    if memo is None:
        memo = {}
    out = (
        castling_neighbors(w, memo=memo)
        + detowering_neighbors(w, memo=memo)
        + clipping_neighbors(w, memo=memo)
    )
    out.sort(key=lambda e: (word_sort_key(e.target), e.kind.value, e.site))
    return out


def orbit(
    w: Word, *, cap: int = ORBIT_CAP, edges: list[MoveEdge] | None = None
) -> list[Word]:
    """The move-closure of ``w``, sorted lexicographically by formatted word.

    Every move preserves the evaluated element and the word length, so the
    orbit is a set of equal-length representatives of one element.  Raises
    :class:`OrbitCapError` past ``cap`` words, the start word included.  The
    walk runs :func:`neighbors` once on every orbit word; when ``edges`` is a
    list, every edge it validates is appended to it, in walk order, so a
    completed walk leaves there each orbit word's full neighbor list exactly
    once.

    One memo of ``evaluate`` (see the module docstring) serves the whole
    walk: an orbit word is evaluated when it is first met as a candidate,
    and every later edge into it, and its own turn as a source, reuse that.
    """
    memo: dict[Word, Element] = {}
    seen = {w}
    if len(seen) > cap:
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
        frontier = sorted(nxt, key=word_sort_key)
    return sorted(seen, key=format_word)


@dataclass(frozen=True)
class ConnectivityReport:
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
        return {
            "element": self.element.format(),
            "length": self.length,
            "geodesic_count": self.geodesic_count,
            "orbit_size": self.orbit_size,
            "connected": self.connected,
            "missing": [format_word(u) for u in self.missing],
            "extra": [format_word(u) for u in self.extra],
            "edges": [e.to_dict() for e in self.edges],
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

    Geodesics are enumerated exhaustively with the brute-force oracle (a
    ball of radius length(g) is built on demand when none is supplied).
    Raises :class:`GeodesicCapError` before any ball is built when the
    closed-form :func:`geodesic_count` exceeds ``geodesic_cap``; the count is
    capped at ``geodesic_cap + 1``, so the check stays cheap for huge
    elements.  The report lists unreached geodesics, orbit words that are not
    geodesic (impossible by the validator; reported for honesty), and every
    validated edge among the orbit words, as collected by the orbit walk
    itself.
    """
    from .oracle import build_ball, enumerate_geodesics

    if _capped_geodesic_count(g, geodesic_cap) > geodesic_cap:
        raise GeodesicCapError(
            f"{g.format()} has more geodesics than geodesic_cap={geodesic_cap}"
        )
    total = length(g)
    if ball is None:
        ball = build_ball("ck", total)
    geos = enumerate_geodesics(ball, g, cap=geodesic_cap)
    edges: list[MoveEdge] = []
    orb = orbit(std_rep(g), cap=orbit_cap, edges=edges)
    geo_set = set(geos)
    orb_set = set(orb)
    missing = tuple(sorted(geo_set - orb_set, key=word_sort_key))
    extra = tuple(sorted(orb_set - geo_set, key=word_sort_key))
    # The walk leaves each source's edges together, sorted by (target, kind,
    # site), and every target is an orbit word, so a stable sort by the
    # source's word_sort_key rank orders edges by (source, target, kind,
    # site).
    rank = {u: i for i, u in enumerate(sorted(orb, key=word_sort_key))}
    edges.sort(key=lambda e: rank[e.source])
    return ConnectivityReport(
        element=g,
        length=total,
        geodesic_count=len(geos),
        orbit_size=len(orb),
        connected=not missing and not extra,
        missing=missing,
        extra=extra,
        edges=tuple(edges),
    )


@dataclass(frozen=True)
class YoungDecomposition:
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
    if free_reduce(w) != w:
        raise ValueError("word is not freely reduced")
    g = evaluate(w)
    if g.m < 0 or g.n < 0:
        raise ValueError(
            f"element {g.format()} is not normalized (need m >= 0, n >= 0)"
        )
    if len(w) != length(g):
        raise ValueError(f"word {format_word(w)!r} is not geodesic")
    k, m, n = g
    gaps, axes = _gaps_axes(w)
    # The skeleton: n letters a, or the detour a^c … a^{-c} (two mirror
    # families, c = ±1) when n = 0 and k != 0.
    detour = n == 0 and k != 0
    if detour:
        if len(axes) != 2 or axes[0] != -axes[1]:
            raise ValueError("unexpected shape for a detour geodesic")
    elif axes != [1] * n:
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
