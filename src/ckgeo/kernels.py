"""Ball construction and geodesic enumeration: the hot loops of the
brute-force oracle, in pure Python.

The balls are breadth-first searches, and :func:`ball_size` gives their
sizes in closed form, so a state budget can be decided before any search.
:func:`ck_geodesics` enumerates level by level over the geodesic interval of
its target (walk down while counting paths, then spell each word once from a
half-length prefix and a half-length suffix), so its cost follows the number
of interval states and words rather than the number of prefixes a
depth-first walk visits.

State keys in the returned distance maps are plain tuples: ``(k, m, n)`` for
the central extension, ``(m, n)`` for the two rank-2 quotient/control groups.
Level sizes are reported with ``levels[d]`` = number of states at distance d
(so ``levels[0] == 1``).
"""

from __future__ import annotations

import sys
from types import ModuleType

from .errors import GEODESIC_CAP, MAX_STATES, BallBudgetError, GeodesicCapError

BACKEND = "pure"


def load_backend(name: str) -> ModuleType:
    """Return this module for ``"pure"``; raise ImportError for any other name.

    There is one backend.  This stays only because the ``kernels`` workload of
    ``perfbench/workloads.py`` probes for a second one by name and treats
    ImportError as "none available".
    """
    if name != BACKEND:
        raise ImportError(f"no kernel backend {name!r}; only {BACKEND!r} exists")
    return sys.modules[__name__]

_State = tuple[int, int, int]


def _over_budget(max_states: int, states: int, d: int) -> BallBudgetError:
    """The error for ``states`` states at radius ``d`` (0: the identity alone)."""
    return BallBudgetError(
        f"ball construction exceeded max_states={max_states} at radius {d}",
        states=states,
        levels_completed=max(d - 1, 0),
    )


def ball_size(model: str, r: int) -> int:
    """Number of states of ``model``'s ball of radius ``r``, in closed form.

    The ck sphere of radius d has 4d² − 6 states for d ≥ 3, and 1, 4 and 12
    for d = 0, 1 and 2; the klein and z2 spheres have 4d for d ≥ 1.  Each
    kernel's ``levels`` are these sphere sizes, and ``len(dist)`` after
    level d is ``ball_size(model, d)``.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if model == "ck":
        if r < 2:
            return (1, 5)[r]
        return 2 * r * (r + 1) * (2 * r + 1) // 3 - 6 * r + 9
    if model in ("klein", "z2"):
        return 2 * r * r + 2 * r + 1
    raise ValueError(f"no ball size for model {model!r}")


def ck_ball(
    radius: int, max_states: int = MAX_STATES
) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """Breadth-first ball of the central extension up to ``radius``.

    Right-multiplication steps on normal-form triples (k, m, n):
    a/A move n; b/B move m, with the direction flipped and one unit of k
    gained/lost in odd columns.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_states < 1:
        raise _over_budget(max_states, 1, 0)
    dist: dict[tuple[int, int, int], int] = {(0, 0, 0): 0}
    frontier: list[tuple[int, int, int]] = [(0, 0, 0)]
    levels = [1]
    for d in range(1, radius + 1):
        nxt: list[tuple[int, int, int]] = []
        for k, m, n in frontier:
            if n & 1:
                steps = (
                    (k, m, n + 1),
                    (k, m, n - 1),
                    (k + 1, m - 1, n),
                    (k - 1, m + 1, n),
                )
            else:
                steps = (
                    (k, m, n + 1),
                    (k, m, n - 1),
                    (k, m + 1, n),
                    (k, m - 1, n),
                )
            for state in steps:
                if state not in dist:
                    dist[state] = d
                    nxt.append(state)
        if len(dist) > max_states:
            raise _over_budget(max_states, len(dist), d)
        frontier = nxt
        levels.append(len(nxt))
    return dist, levels


def _rank2_ball(
    radius: int, max_states: int, twisted: bool
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Shared BFS for the two rank-2 models on states (m, n)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_states < 1:
        raise _over_budget(max_states, 1, 0)
    dist: dict[tuple[int, int], int] = {(0, 0): 0}
    frontier: list[tuple[int, int]] = [(0, 0)]
    levels = [1]
    for d in range(1, radius + 1):
        nxt: list[tuple[int, int]] = []
        for m, n in frontier:
            s = -1 if (twisted and n & 1) else 1
            steps = ((m, n + 1), (m, n - 1), (m + s, n), (m - s, n))
            for state in steps:
                if state not in dist:
                    dist[state] = d
                    nxt.append(state)
        if len(dist) > max_states:
            raise _over_budget(max_states, len(dist), d)
        frontier = nxt
        levels.append(len(nxt))
    return dist, levels


def klein_ball(
    radius: int, max_states: int = MAX_STATES
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Ball of the Klein bottle group (centre quotient), states (m, n)."""
    return _rank2_ball(radius, max_states, twisted=True)


def z2_ball(
    radius: int, max_states: int = MAX_STATES
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Ball of the free abelian control, states (m, n)."""
    return _rank2_ball(radius, max_states, twisted=False)


def ck_geodesics(
    dist: dict[_State, int], target: _State, cap: int = GEODESIC_CAP
) -> list[str]:
    """All geodesic words for ``target``, in canonical lexicographic order.

    ``dist`` must be a ball covering ``target`` (e.g. from :func:`ck_ball`).
    A word s·u is geodesic for g iff u is geodesic for s⁻¹·g, so the words
    live on the geodesic interval: the states the left-peel reaches from
    ``target``, one distance level per letter.  The interval is walked down
    level by level, recording each state's descending children in canonical
    letter order and counting the descending paths from ``target`` to each
    state; at the bottom level those counts add up to the number of words,
    so the cap is checked before any word is built.

    The words are then built once each, meeting in the middle at half the
    length.  The prefixes are extended top-down as one flat list of
    (prefix, state) pairs; all have one length and children come in letter
    order, so the list stays sorted.  The suffixes of the middle states are
    built bottom-up as ``s + u`` over each state's children.  A word is its
    prefix followed by each of its middle state's sorted suffixes, so the
    result is sorted too.
    """
    try:
        total = dist[target]
    except KeyError:
        raise ValueError(f"target {target} not covered by the ball") from None
    get = dist.get
    # levels[i] maps each interval state at distance total − i to its
    # children (letter, s⁻¹·g) in canonical order.
    levels: list[dict[_State, list[tuple[str, _State]]]] = []
    paths: dict[_State, int] = {target: 1}
    for below in range(total - 1, -1, -1):
        level = {}
        paths_below: dict[_State, int] = {}
        for g, count in paths.items():
            k, m, n = g
            # Left-divide by each generator: candidates are gen(s)⁻¹ · g.
            children = []
            for letter, h in (
                ("a", (k + m, -m, n - 1)),
                ("A", (k + m, -m, n + 1)),
                ("b", (k, m - 1, n)),
                ("B", (k, m + 1, n)),
            ):
                if get(h) == below:
                    children.append((letter, h))
                    paths_below[h] = paths_below.get(h, 0) + count
            level[g] = children
        levels.append(level)
        paths = paths_below
    if sum(paths.values()) > cap:
        raise GeodesicCapError(
            f"geodesic enumeration for {target} exceeded cap={cap}"
        )

    half = total // 2
    front = [("", target)]
    for level in levels[:half]:
        front = [(p + s, h) for p, g in front for s, h in level[g]]
    suffixes = {g: [""] for g in paths}
    for level in reversed(levels[half:]):
        suffixes = {
            g: [s + u for s, h in children for u in suffixes[h]]
            for g, children in level.items()
        }
    return [p + u for p, g in front for u in suffixes[g]]
