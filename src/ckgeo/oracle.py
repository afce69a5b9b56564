"""Brute-force oracle: BFS balls, exhaustive geodesic enumeration, audits.

Everything here is search-based and makes no use of the closed forms in
:mod:`ckgeo.geodesics` except where a check deliberately compares the two
routes.  The oracle is the ground truth the formulas are certified against.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import partial
from operator import itemgetter, methodcaller
from typing import IO, Hashable, Iterable, Mapping, NamedTuple

from . import kernels
from .core import Element, right_neighbors
from .errors import GEODESIC_CAP, MAX_STATES
from .geodesics import (
    _std_syllables,
    closed_ball_elements,
    length,
    local_class,
    local_table,
    std_rep,
)
from .models import GroupModel, get_model
from .words import (
    _DELETE_LETTERS,
    _RANK,
    _RANK_DIGITS,
    Word,
    _format_syllables,
    format_word,
    free_reduce,
    LETTERS,
    sort_words,
)


class BallIndex:
    """BFS ball: state -> distance, plus per-level counts.

    ``distances`` is keyed by the model's canonical state keys (coordinate
    tuples).  ``frontier_sizes[d]`` is the number of states at distance
    exactly d, so ``frontier_sizes[0] == 1`` and the sizes sum to
    ``len(distances)``.
    """

    __slots__ = ("model", "radius", "distances", "frontier_sizes")

    def __init__(
        self,
        model: str,
        radius: int,
        distances: Mapping[Hashable, int],
        frontier_sizes: tuple[int, ...],
    ) -> None:
        self.model = model
        self.radius = radius
        self.distances = distances
        self.frontier_sizes = frontier_sizes

    def __len__(self) -> int:
        return len(self.distances)

    def states_sorted(self) -> list[tuple[Hashable, int]]:
        """(state, distance) pairs ordered by distance, then coordinates."""
        return sorted(self.distances.items(), key=itemgetter(1, 0))

    def export_csv(self, fh: IO[str]) -> None:
        """Write one row per state, sorted, with a coordinate header."""
        fields = get_model(self.model).state_fields
        fh.write(",".join(fields) + ",distance\n")
        for state, d in self.states_sorted():
            fh.write(",".join(str(v) for v in state) + f",{d}\n")

    def export_jsonl(self, fh: IO[str]) -> None:
        """Write one JSON object per state, sorted, fixed key order."""
        fields = get_model(self.model).state_fields
        for state, d in self.states_sorted():
            row = dict(zip(fields, state))
            row["distance"] = d
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


_KERNEL_BUILDERS = {
    "ck": kernels.ck_ball,
    "klein": kernels.klein_ball,
    "z2": kernels.z2_ball,
}


def build_ball(
    model: GroupModel | str, radius: int, *, max_states: int = MAX_STATES
) -> BallIndex:
    """Build the radius-``radius`` ball of a registered model by its kernel.

    ``model`` is a name or a model of :data:`ckgeo.models.MODELS`; any other
    name raises ``ValueError``.  A ball over ``max_states`` raises
    :class:`ckgeo.errors.BallBudgetError` before any search, from the closed
    form :func:`ckgeo.kernels.ball_size`.  A kernel checks its budget once per
    completed level, so the first radius whose ball is over budget gives the
    error it would raise.
    """
    model = get_model(model if isinstance(model, str) else model.name)
    size = partial(kernels.ball_size, model.name)
    if size(radius) > max_states:
        d = bisect_right(range(radius + 1), max_states, key=size)
        raise kernels._over_budget(max_states, size(d), d)
    distances, levels = _KERNEL_BUILDERS[model.name](radius, max_states)
    return BallIndex(
        model=model.name,
        radius=radius,
        distances=distances,
        frontier_sizes=tuple(levels),
    )


def enumerate_geodesics(
    ball: BallIndex, g: Hashable, *, cap: int = GEODESIC_CAP
) -> list[Word]:
    """All geodesic words for a covered element of cK, canonically sorted.

    The kernel enumerates level by level over the geodesic interval (see
    :func:`ckgeo.kernels.ck_geodesics`).  Raises ``ValueError`` on a ball of
    another model or a state the ball does not cover, and
    :class:`ckgeo.errors.GeodesicCapError` when more than ``cap`` words exist.
    """
    if ball.model != "ck":
        raise ValueError("geodesic enumeration is specific to the ck model")
    return kernels.ck_geodesics(ball.distances, tuple(g), cap)


class AuditReport(NamedTuple):
    """Outcome of a bulk audit.

    ``standard_words_checked`` counts the items certified (language words
    for the language audit, ball states for the dead-end audit).  The
    verdict is ``"pass"`` exactly when all three failure lists are empty;
    ``notes`` carries non-failing observations (counts, carve-outs).
    """

    model: str
    radius: int
    standard_words_checked: int
    geodesic_failures: tuple[str, ...]
    prefix_failures: tuple[str, ...]
    dead_end_candidates: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        ok = (
            not self.geodesic_failures
            and not self.prefix_failures
            and not self.dead_end_candidates
        )
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "radius": self.radius,
            "standard_words_checked": self.standard_words_checked,
            "geodesic_failures": list(self.geodesic_failures),
            "prefix_failures": list(self.prefix_failures),
            "dead_end_candidates": list(self.dead_end_candidates),
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


def in_ball_order(failures: list[tuple[int, Hashable, str]]) -> tuple[str, ...]:
    """The messages of ``(distance, state, message)`` failures, ordered by
    distance, then state.

    The per-state suites read a ball's states in whatever order its dict
    holds and sort only their failures here, so their reports do not depend
    on that order.  The sort is stable: a state with several failures keeps
    them in the order they were found.
    """
    failures.sort(key=itemgetter(0, 1))
    return tuple(message for _, _, message in failures)


def audit_dead_ends(ball: BallIndex) -> AuditReport:
    """Scan a ball for dead-end candidates.

    A state at distance d < radius is a candidate when no generator step
    reaches distance d + 1 (interior states always have all four neighbours
    covered, so the conclusion is exact, not sampled); the four neighbour
    keys come from the model's ``neighbors``.  For the central extension the
    closed-form :func:`ckgeo.geodesics.is_dead_end` verdict is cross-checked
    on every certified state; any disagreement between the two routes is
    reported as a candidate.  Candidates come in (distance, state) order
    whatever the order of the ball's dict.
    """
    from .geodesics import is_dead_end

    neighbors = get_model(ball.model).neighbors
    ck = ball.model == "ck"
    get = ball.distances.get
    horizon = ball.radius - 1
    candidates: list[tuple[int, Hashable, str]] = []
    checked = 0
    for state, d in ball.distances.items():
        if d > horizon:
            continue
        checked += 1
        up = d + 1
        for child_key in neighbors(state):
            if get(child_key, -1) == up:
                break
        else:
            candidates.append((d, state, str(state)))
            continue
        if ck and is_dead_end(state):
            candidates.append((d, state, f"{state} (closed form disagrees)"))
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=checked,
        geodesic_failures=(),
        prefix_failures=(),
        dead_end_candidates=in_ball_order(candidates),
        notes=(f"states certified: {checked} (distance <= {horizon})",),
    )


def standard_words(model: str, max_length: int) -> list[Word]:
    """The standard language of ``model``: one word per element of length
    <= max_length.

    For ``ck`` these are the standard representatives of the closed-form
    ball; for ``z2`` the b-run then a-run normal forms.  ``klein`` has no
    standard language here, and any model but ``ck`` or ``z2`` raises
    ``ValueError``.
    """
    if model == "ck":
        return [std_rep(g) for g in closed_ball_elements(max_length)]
    if model != "z2":
        raise ValueError(f"model {model!r} has no standard language: ck or z2")
    return [
        ("b" if m >= 0 else "B") * abs(m) + ("a" if n >= 0 else "A") * abs(n)
        for m in range(-max_length, max_length + 1)
        for n in range(-(max_length - abs(m)), max_length - abs(m) + 1)
    ]


def check_standard_language(
    name: str, words: Iterable[Word], ball: BallIndex
) -> AuditReport:
    """Audit a normal-form language, given by its words, against a ball.

    ``name`` labels the language in the report's notes.  Checks, for the
    horizon R = ball.radius:

    * every language word is freely reduced and geodesic (BFS distance
      equals its length) — failures land in ``geodesic_failures``;
    * the words biject onto the ball states (no duplicates, no missing
      states) — defects land in ``geodesic_failures`` tagged ``coverage:``;
    * every language word of length < R is a proper prefix of some longer
      language word — failures land in ``prefix_failures``.

    Word failures come in :func:`ckgeo.words.word_sort_key` order, then the
    states with no word in the order of the ball's dict.  A word is
    evaluated by one step from the state of its prefix when that prefix is a
    freely reduced word of the language one letter shorter, and from scratch
    otherwise; only the states of two lengths are kept.  When the joined
    words hold only letters and no cancelling pair, every word is freely
    reduced and none is tested alone; otherwise each word is.  A word with a
    non-letter raises ``ValueError``.
    """
    model = get_model(ball.model)
    neighbors = model.neighbors
    distances = ball.distances
    get = distances.get
    radius = ball.radius
    geodesic_failures: list[str] = []
    prefix_failures: list[str] = []
    seen: dict[Hashable, Word] = {}
    # One sort by letter rank: the words that start with w form one run
    # right after w in any lexicographic order, and a stable sort by length
    # then gives word_sort_key order.
    words = sorted(set(words), key=methodcaller("translate", _RANK_DIGITS))
    joined = "\n".join(words)
    # Every word is freely reduced when the joined words hold no cancelling
    # pair and no non-letter but the len(words) − 1 separators; a word that
    # holds a separator adds to their count.
    letters_only = len(joined.translate(_DELETE_LETTERS)) == max(len(words) - 1, 0)
    reduced = letters_only and not (
        "aA" in joined or "Aa" in joined or "bB" in joined or "Bb" in joined
    )
    del joined
    # A word with a non-letter raises below, where it is reduced or, past the
    # horizon, formatted, so its rank order need not be lexicographic.
    terminal = [
        w
        for w, successor in zip(words, words[1:] + [None])
        if len(w) < radius and not (successor and successor.startswith(w))
    ]
    words.sort(key=len)
    # States of the reduced words of the previous length and of this one.
    shorter: dict[Word, Hashable] = {}
    level: dict[Word, Hashable] = {}
    level_length = 0
    # Set when a word's state is not in the ball, which a true ball of
    # radius R never misses for a word of length <= R.
    stray = False
    for w in words:
        size = len(w)
        if size > radius:
            geodesic_failures.append(f"coverage: {format_word(w)} exceeds horizon")
            continue
        if not reduced and free_reduce(w) != w:
            geodesic_failures.append(f"{format_word(w)} is not freely reduced")
            continue
        if size != level_length:
            shorter, level, level_length = level, {}, size
        prefix_state = shorter.get(w[:-1])
        if prefix_state is None:
            state_key = model.evaluate(w)
        else:
            state_key = neighbors(prefix_state)[_RANK[w[-1]]]
        level[w] = state_key
        if get(state_key, -1) != size:
            geodesic_failures.append(f"{format_word(w)} is not geodesic")
            stray = stray or state_key not in distances
        if state_key in seen:
            geodesic_failures.append(
                f"coverage: {format_word(w)} duplicates {format_word(seen[state_key])}"
            )
        else:
            seen[state_key] = w
    # With no stray state, the seen states are the ball's exactly when there
    # are as many.
    if stray or len(seen) != len(distances):
        for state in distances:
            if state not in seen:
                geodesic_failures.append(f"coverage: no word for state {state}")
    for w in sort_words(terminal):
        prefix_failures.append(format_word(w))
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=len(words),
        geodesic_failures=tuple(geodesic_failures),
        prefix_failures=tuple(prefix_failures),
        dead_end_candidates=(),
        notes=(f"language: {name}",),
    )


class CheckReport(NamedTuple):
    """Small report for pointwise equivalence checks."""

    name: str
    checked: int
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


def expected_terminal_words(max_length: int) -> frozenset[str]:
    """Formatted standard words that are terminal in the prefix order.

    Exactly the standard representatives of elements with n = 0 and k != 0
    (in any quadrant) of length <= max_length: their words end in an
    a-direction letter that no longer standard word retains, so they are
    never proper prefixes of other standard words.  The language audit's
    prefix failures on a radius-R ball are expected to equal this set at
    max_length = R − 1; anything else is a real defect.  Walks the axis
    square |k|, |m| <= max_length directly (each coordinate is bounded by the
    length), so a negative max_length (the radius-0 audit) has no such words.
    """
    span = range(-max_length, max_length + 1)
    axis = (Element(k, m, 0) for k in span if k for m in span)
    return frozenset(
        _format_syllables(_std_syllables(g)) for g in axis if length(g) <= max_length
    )


def check_continuation_rules(ball: BallIndex) -> CheckReport:
    """Certify the region continuation rule against BFS distances.

    For every normalized element g with distance <= radius − 1: when the
    a-coordinate is positive, each letter named by g's region rule must be a
    geodesic continuation (distance goes up by one); when it is zero, this
    is required of the named b-direction letter only, because the a
    direction genuinely shortens there (both a and a⁻¹ step toward the
    interior when n = 0 and k != 0).  The excluded (element, letter) pairs
    are counted in ``notes`` so the carve-out stays visible.  Each state's
    neighbours come from :func:`ckgeo.core.right_neighbors`, once per state.
    Failures come in (distance, state) order, a state's in letter order,
    whatever the order of the ball's dict.
    """
    if ball.model != "ck":
        raise ValueError("the continuation rule is specific to the ck model")
    from .geodesics import RegionCase, classify_region, continuation_rule_letters

    failures: list[tuple[int, Hashable, str]] = []
    checked = 0
    carved_out = 0
    horizon = ball.radius - 1
    get = ball.distances.get
    for state, d in ball.distances.items():
        if d > horizon:
            continue
        _, m, n = state
        if m < 0 or n < 0:
            continue
        case = classify_region(state)
        if case is RegionCase.ZERO_K:
            continue
        checked += 1
        children = right_neighbors(state)
        for s in continuation_rule_letters(case):
            if n == 0 and s in "aA":
                carved_out += 1
                continue
            if get(children[LETTERS.index(s)], -1) != d + 1:
                failures.append(
                    (d, state, f"{Element(*state).format()} [{case.value}]: letter {s!r}")
                )
    return CheckReport(
        name="continuation-rules",
        checked=checked,
        failures=in_ball_order(failures),
        notes=(
            f"normalized elements with distance <= {horizon}",
            f"a-direction pairs excluded at n = 0: {carved_out}",
        ),
    )


def check_last_letter(ball: BallIndex) -> CheckReport:
    """Certify the last-letter rule on a central-extension ball.

    For every element g with 1 <= distance <= radius − 1, the set of
    letters that end some geodesic of g is computed twice: from BFS
    distances (s ends a geodesic iff dist(g·s⁻¹) = dist(g) − 1) and from the
    closed-form length, read from :func:`ckgeo.geodesics.local_table` by
    g's class.  The two sets must be equal and nonempty.  g·s⁻¹ is read off
    :func:`ckgeo.core.right_neighbors` as the neighbour by s⁻¹.  Failures
    come in (distance, state) order whatever the order of the ball's dict.
    """
    if ball.model != "ck":
        raise ValueError("the last-letter rule is specific to the ck model")
    horizon = ball.radius - 1
    failures: list[tuple[int, Hashable, str]] = []
    checked = 0
    get = ball.distances.get
    table = local_table()
    for state, d in ball.distances.items():
        if d == 0 or d > horizon:
            continue
        checked += 1
        down = d - 1
        oracle_set = ""
        # g·s⁻¹ is the neighbour by s⁻¹: g·A, g·a, g·B, g·b for s = a, A, b, B.
        by_a, by_A, by_b, by_B = right_neighbors(state)
        for s, h in (("a", by_A), ("A", by_a), ("b", by_B), ("B", by_b)):
            if get(h, -1) == down:
                oracle_set += s
        closed_set = table[local_class(state)][2]
        if oracle_set != closed_set or not oracle_set:
            failures.append(
                (
                    d,
                    state,
                    f"{Element(*state).format()}: oracle last letters"
                    f" {oracle_set!r}, closed form {closed_set!r}",
                )
            )
    return CheckReport(
        name="last-letter",
        checked=checked,
        failures=in_ball_order(failures),
        notes=(f"elements with 1 <= distance <= {horizon}",),
    )
