"""Ball construction and geodesic enumeration: the hot loops of the
brute-force oracle, in pure Python.

The balls are breadth-first searches.  :func:`ck_geodesics` enumerates
level by level over the geodesic interval of its target (walk down while
counting paths, then build the words bottom-up), so its cost follows the
number of interval states and words rather than the number of prefixes a
depth-first walk visits.

State keys in the returned distance maps are plain tuples: ``(k, m, n)`` for
the central extension, ``(m, n)`` for the two rank-2 quotient/control groups.
Level sizes are reported with ``levels[d]`` = number of states at distance d
(so ``levels[0] == 1``).
"""

from __future__ import annotations

import sys
from types import ModuleType

from .errors import BallBudgetError, GeodesicCapError

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


def ck_ball(
    radius: int, max_states: int = 2_000_000
) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """Breadth-first ball of the central extension up to ``radius``.

    Right-multiplication steps on normal-form triples (k, m, n):
    a/A move n; b/B move m, with the direction flipped and one unit of k
    gained/lost in odd columns.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
            raise BallBudgetError(
                f"ball construction exceeded max_states={max_states}"
                f" at radius {d}",
                states=len(dist),
                levels_completed=d - 1,
            )
        frontier = nxt
        levels.append(len(nxt))
    return dist, levels


def _rank2_ball(
    radius: int, max_states: int, twisted: bool
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Shared BFS for the two rank-2 models on states (m, n)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
            raise BallBudgetError(
                f"ball construction exceeded max_states={max_states}"
                f" at radius {d}",
                states=len(dist),
                levels_completed=d - 1,
            )
        frontier = nxt
        levels.append(len(nxt))
    return dist, levels


def klein_ball(
    radius: int, max_states: int = 2_000_000
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Ball of the Klein bottle group (centre quotient), states (m, n)."""
    return _rank2_ball(radius, max_states, twisted=True)


def z2_ball(
    radius: int, max_states: int = 2_000_000
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Ball of the free abelian control, states (m, n)."""
    return _rank2_ball(radius, max_states, twisted=False)


def ck_geodesics(
    dist: dict[_State, int], target: _State, cap: int = 100_000
) -> list[str]:
    """All geodesic words for ``target``, in canonical lexicographic order.

    ``dist`` must be a ball covering ``target`` (e.g. from :func:`ck_ball`).
    A word s·u is geodesic for g iff u is geodesic for s⁻¹·g, so the words
    live on the geodesic interval: the states the left-peel reaches from
    ``target``, one distance level per letter.  The interval is walked down
    level by level, recording each state's descending children in canonical
    letter order and counting the descending paths from ``target`` to each
    state; at the bottom level those counts add up to the number of words,
    so the cap is checked before any word is built.  Each state's words are
    then built bottom-up as ``s + u`` over its children.  Every child's list
    is sorted and all its words have one length, so concatenating the lists
    in letter order keeps the result sorted.  Only two levels of word lists
    are alive at a time.
    """
    try:
        total = dist[target]
    except KeyError:
        raise ValueError(f"target {target} not covered by the ball") from None
    get = dist.get
    # levels[i] lists each interval state at distance total − i with its
    # children (letter, s⁻¹·g) in canonical order.
    levels: list[list[tuple[_State, list[tuple[str, _State]]]]] = []
    paths: dict[_State, int] = {target: 1}
    for below in range(total - 1, -1, -1):
        level = []
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
            level.append((g, children))
        levels.append(level)
        paths = paths_below
    if sum(paths.values()) > cap:
        raise GeodesicCapError(
            f"geodesic enumeration for {target} exceeded cap={cap}"
        )

    words = {g: [""] for g in paths}
    for level in reversed(levels):
        words = {
            g: [s + u for s, h in children for u in words[h]]
            for g, children in level
        }
    return words[target]
