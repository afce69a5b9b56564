"""Brute-force oracle: BFS balls, exhaustive geodesic enumeration, audits.

Everything here is search-based and makes no use of the closed forms in
:mod:`ckgeo.geodesics` except where a check deliberately compares the two
routes.  The oracle is the ground truth the formulas are certified against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Hashable, Iterator, Mapping

from . import kernels
from .core import Element, right_neighbors
from .errors import BallBudgetError, GeodesicCapError
from .geodesics import closed_ball_elements, length, std_rep
from .models import GroupModel, get_model
from .words import (
    Word,
    format_word,
    free_reduce,
    inverse_letter,
    LETTERS,
    word_sort_key,
)

DEFAULT_MAX_STATES = 2_000_000
DEFAULT_GEODESIC_CAP = 100_000


@dataclass(frozen=True)
class BallIndex:
    """Frozen BFS ball: state -> distance, plus per-level counts.

    ``distances`` is keyed by the model's canonical state keys (coordinate
    tuples).  ``frontier_sizes[d]`` is the number of states at distance
    exactly d, so ``frontier_sizes[0] == 1`` and the sizes sum to
    ``len(distances)``.  ``backend`` records which BFS built the index
    (``pure`` for the specialized kernel, ``generic`` for the model-agnostic
    BFS).
    """

    model: str
    radius: int
    distances: Mapping[Hashable, int] = field(repr=False)
    frontier_sizes: tuple[int, ...]
    backend: str

    def __len__(self) -> int:
        return len(self.distances)

    def __contains__(self, state: Hashable) -> bool:
        return state in self.distances

    def distance(self, state: Hashable) -> int:
        try:
            return self.distances[state]
        except KeyError:
            raise ValueError(
                f"state {state!r} is not covered by the radius-{self.radius}"
                f" ball of {self.model}; rebuild with a larger radius"
            ) from None

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


def _generic_ball(
    model: GroupModel, radius: int, max_states: int
) -> tuple[dict[Hashable, int], list[int]]:
    """Model-agnostic level-synchronous BFS via ``model.step``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    start = model.key(model.identity)
    dist: dict[Hashable, int] = {start: 0}
    frontier = [model.identity]
    levels = [1]
    for d in range(1, radius + 1):
        nxt = []
        for state in frontier:
            for letter in LETTERS:
                child = model.step(state, letter)
                child_key = model.key(child)
                if child_key not in dist:
                    dist[child_key] = d
                    nxt.append(child)
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


def build_ball(
    model: GroupModel | str,
    radius: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    force_generic: bool = False,
) -> BallIndex:
    """Build the radius-``radius`` ball of a model.

    Uses the specialized kernel for the built-in models unless
    ``force_generic`` asks for the model-agnostic BFS.
    """
    if isinstance(model, str):
        model = get_model(model)
    builder = None if force_generic else _KERNEL_BUILDERS.get(model.name)
    if builder is not None:
        distances, levels = builder(radius, max_states)
        backend = kernels.BACKEND
    else:
        distances, levels = _generic_ball(model, radius, max_states)
        backend = "generic"
    return BallIndex(
        model=model.name,
        radius=radius,
        distances=distances,
        frontier_sizes=tuple(levels),
        backend=backend,
    )


def _as_state_key(ball: BallIndex, g: Hashable) -> Hashable:
    """Normalize user input (Element or plain tuple) to a distance key."""
    if isinstance(g, Element):
        return (g.k, g.m, g.n)
    return tuple(g)


def exact_length(ball: BallIndex, g: Hashable) -> int:
    """BFS distance of a state; raises if the ball does not cover it."""
    return ball.distance(_as_state_key(ball, g))


def enumerate_geodesics(
    ball: BallIndex, g: Hashable, *, cap: int = DEFAULT_GEODESIC_CAP
) -> list[Word]:
    """All geodesic words for a covered state, canonically sorted.

    For the central extension the kernel enumerates level by level over the
    geodesic interval; other models use a generic right-peeling walk.
    Raises :class:`GeodesicCapError` when more than ``cap`` words exist.
    """
    state = _as_state_key(ball, g)
    if ball.model == "ck":
        return kernels.ck_geodesics(ball.distances, state, cap)
    model = get_model(ball.model)
    total = ball.distance(state)
    out: list[Word] = []
    suffix: list[str] = []

    def peel(s: Hashable, remaining: int) -> None:
        if remaining == 0:
            if len(out) >= cap:
                raise GeodesicCapError(
                    f"geodesic enumeration for {state} exceeded cap={cap}"
                )
            out.append("".join(reversed(suffix)))
            return
        for letter in LETTERS:
            h = model.step(s, inverse_letter(letter))
            if ball.distances.get(model.key(h), -1) == remaining - 1:
                suffix.append(letter)
                peel(h, remaining - 1)
                suffix.pop()

    peel(model.from_key(state), total)
    out.sort(key=word_sort_key)
    return out


@dataclass(frozen=True)
class AuditReport:
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


def audit_dead_ends(ball: BallIndex, *, deep: bool = False) -> AuditReport:
    """Scan a ball for dead-end candidates.

    A state at distance d < radius is a candidate when no generator step
    reaches distance d + 1 (interior states always have all four neighbours
    covered, so the conclusion is exact, not sampled).  For the central
    extension the four neighbour keys come from
    :func:`ckgeo.core.right_neighbors` by tuple arithmetic, and the
    closed-form :func:`ckgeo.geodesics.is_dead_end` verdict is cross-checked
    on every certified state; any disagreement between the two routes is
    reported as a candidate.  Other models step through ``model.step``.
    ``deep`` also records, per level, how many states have exactly one
    ascending neighbour (in ``notes``).
    """
    from .geodesics import is_dead_end

    model = get_model(ball.model)
    ck = ball.model == "ck"
    get = ball.distances.get
    horizon = ball.radius - 1
    candidates: list[str] = []
    checked = 0
    narrow_by_level = [0] * (horizon + 1) if deep else None
    for state, d in ball.states_sorted():
        if d > horizon:
            continue
        checked += 1
        if ck:
            children = right_neighbors(state)
        else:
            state_obj = model.from_key(state)
            children = [model.key(model.step(state_obj, s)) for s in LETTERS]
        ascending = 0
        for child_key in children:
            if get(child_key, -1) == d + 1:
                ascending += 1
        if ascending == 0:
            candidates.append(str(state))
        elif ck and is_dead_end(state):
            candidates.append(f"{state} (closed form disagrees)")
        if narrow_by_level is not None and ascending == 1:
            narrow_by_level[d] += 1
    notes = [f"states certified: {checked} (distance <= {horizon})"]
    if narrow_by_level is not None:
        notes.append(f"states with a unique ascent, by level: {narrow_by_level}")
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=checked,
        geodesic_failures=(),
        prefix_failures=(),
        dead_end_candidates=tuple(candidates),
        notes=tuple(notes),
    )


class StandardLanguage:
    """A deterministic normal-form language for one of the models.

    ``words(max_length)`` must yield each language word at most once, all of
    length <= max_length.  The audit checks that the words are geodesic,
    that they biject onto the ball states, and that every word shorter than
    the horizon is a proper prefix of another language word.
    """

    name: str = "abstract"
    model: str = "ck"

    def words(self, max_length: int) -> Iterator[Word]:
        raise NotImplementedError


class CkStandardWords(StandardLanguage):
    """The standard representatives of every element within a length bound."""

    name = "ck-standard"
    model = "ck"

    def words(self, max_length: int) -> Iterator[Word]:
        for g in closed_ball_elements(max_length):
            yield std_rep(g)


class Z2StandardWords(StandardLanguage):
    """b-run then a-run normal forms for the free abelian control."""

    name = "z2-standard"
    model = "z2"

    def words(self, max_length: int) -> Iterator[Word]:
        for m in range(-max_length, max_length + 1):
            for n in range(-(max_length - abs(m)), max_length - abs(m) + 1):
                b_run = ("b" if m >= 0 else "B") * abs(m)
                a_run = ("a" if n >= 0 else "A") * abs(n)
                yield b_run + a_run


class TruncatedLanguage(StandardLanguage):
    """Deliberately broken control: clips a language at a hard length cap.

    Words at the cap then have no longer language words extending them, so
    the prefix audit must fail whenever the horizon exceeds the cap.
    """

    def __init__(self, inner: StandardLanguage, cap: int) -> None:
        self.inner = inner
        self.cap = cap
        self.name = f"{inner.name}-truncated@{cap}"
        self.model = inner.model

    def words(self, max_length: int) -> Iterator[Word]:
        return self.inner.words(min(max_length, self.cap))


def check_standard_language(
    language: StandardLanguage, ball: BallIndex
) -> AuditReport:
    """Audit a normal-form language against a ball.

    Checks, for the horizon R = ball.radius:

    * every language word is freely reduced and geodesic (BFS distance
      equals its length) — failures land in ``geodesic_failures``;
    * the words biject onto the ball states (no duplicates, no missing
      states) — defects land in ``geodesic_failures`` tagged ``coverage:``;
    * every language word of length < R is a proper prefix of some longer
      language word — failures land in ``prefix_failures``.
    """
    if language.model != ball.model:
        raise ValueError(
            f"language {language.name!r} targets model {language.model!r},"
            f" ball holds {ball.model!r}"
        )
    model = get_model(ball.model)
    geodesic_failures: list[str] = []
    prefix_failures: list[str] = []
    seen: dict[Hashable, Word] = {}
    words = sorted(set(language.words(ball.radius)), key=word_sort_key)
    for w in words:
        if len(w) > ball.radius:
            geodesic_failures.append(f"coverage: {format_word(w)} exceeds horizon")
            continue
        if free_reduce(w) != w:
            geodesic_failures.append(f"{format_word(w)} is not freely reduced")
            continue
        state_key = model.key(model.evaluate(w))
        if ball.distances.get(state_key, -1) != len(w):
            geodesic_failures.append(f"{format_word(w)} is not geodesic")
        if state_key in seen:
            geodesic_failures.append(
                f"coverage: {format_word(w)} duplicates {format_word(seen[state_key])}"
            )
        else:
            seen[state_key] = w
    for state in ball.distances:
        if state not in seen:
            geodesic_failures.append(f"coverage: no word for state {state}")
    # The words that start with w form one run right after w in plain str
    # order, so w is a proper prefix of a language word iff its successor
    # there starts with it.
    by_text = sorted(words)
    terminal = [
        w
        for w, successor in zip(by_text, by_text[1:] + [None])
        if len(w) < ball.radius and not (successor and successor.startswith(w))
    ]
    for w in sorted(terminal, key=word_sort_key):
        prefix_failures.append(format_word(w))
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=len(words),
        geodesic_failures=tuple(geodesic_failures),
        prefix_failures=tuple(prefix_failures),
        dead_end_candidates=(),
        notes=(f"language: {language.name}",),
    )


@dataclass(frozen=True)
class CheckReport:
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
    max_length = R − 1; anything else is a real defect.  A negative
    max_length (the radius-0 audit) has no such words.
    """
    if max_length < 0:
        return frozenset()
    return frozenset(
        format_word(std_rep(g))
        for g in closed_ball_elements(max_length)
        if g.n == 0 and g.k != 0
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
    """
    if ball.model != "ck":
        raise ValueError("the continuation rule is specific to the ck model")
    from .geodesics import RegionCase, classify_region, continuation_rule_letters

    failures: list[str] = []
    checked = 0
    carved_out = 0
    horizon = ball.radius - 1
    get = ball.distances.get
    for state, d in ball.states_sorted():
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
                    f"{Element(*state).format()} [{case.value}]: letter {s!r}"
                )
    return CheckReport(
        name="continuation-rules",
        checked=checked,
        failures=tuple(failures),
        notes=(
            f"normalized elements with distance <= {horizon}",
            f"a-direction pairs excluded at n = 0: {carved_out}",
        ),
    )


def check_last_letter(ball: BallIndex, *, max_distance: int | None = None) -> CheckReport:
    """Certify the last-letter rule on a central-extension ball.

    For every element g with 1 <= distance <= max_distance, the set of
    letters that end some geodesic of g is computed twice: from BFS
    distances (s ends a geodesic iff dist(g·s⁻¹) = dist(g) − 1) and from the
    closed-form length.  The two sets must be equal and nonempty.  g·s⁻¹ is
    read off :func:`ckgeo.core.right_neighbors` as the neighbour by s⁻¹, and
    ``length`` runs once per state and once per neighbour.
    """
    if ball.model != "ck":
        raise ValueError("the last-letter rule is specific to the ck model")
    if max_distance is not None and max_distance < 1:
        raise ValueError(f"max_distance must be >= 1, got {max_distance}")
    horizon = ball.radius - 1 if max_distance is None else max_distance
    if horizon > ball.radius - 1:
        raise ValueError(
            f"max_distance {horizon} needs ball radius >= {horizon + 1}"
        )
    failures: list[str] = []
    checked = 0
    get = ball.distances.get
    for state, d in ball.states_sorted():
        if d == 0 or d > horizon:
            continue
        checked += 1
        closed_shorter = length(state) - 1
        oracle_set = ""
        closed_set = ""
        # g·s⁻¹ is the neighbour by s⁻¹: g·A, g·a, g·B, g·b for s = a, A, b, B.
        by_a, by_A, by_b, by_B = right_neighbors(state)
        for s, h in (("a", by_A), ("A", by_a), ("b", by_B), ("B", by_b)):
            if get(h, -1) == d - 1:
                oracle_set += s
            if length(h) == closed_shorter:
                closed_set += s
        if oracle_set != closed_set or not oracle_set:
            failures.append(
                f"{Element(*state).format()}: oracle last letters {oracle_set!r},"
                f" closed form {closed_set!r}"
            )
    return CheckReport(
        name="last-letter",
        checked=checked,
        failures=tuple(failures),
        notes=(f"elements with 1 <= distance <= {horizon}",),
    )
