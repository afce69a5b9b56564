"""The four workloads: seeded inputs, the calls to time, and their checks.

A workload turns a seed into a list of ops.  An op is one call into ckgeo's
public API or ``ckgeo.cli.main``, with a check of its output that runs
outside the timed section.  Ops look their callee up on its module at call
time, so the tracer's wrappers see every call; the checks use the names
bound below, before any wrapper exists, so they record no spans.

Samples are drawn over isometry classes.  The two flips (k, m, n) ->
(k, m, -n) and (k, m, n) -> (-k, -m, -n) relabel letters, so they preserve
length, geodesic count and the work every layer does; a class is an
element's up to four images.  A workload sorts its candidate classes by a
cost proxy and takes an evenly spaced, fixed set of them, and the seed picks
the image of each.  Seeds thus give different inputs with one cost profile.
When the seed picked the classes too (one per stratum), theorem2-sweep's
op_p50_ms differed by 30% between seeds, because its per-element cost is
heavy-tailed (p50 3 ms, max 0.6 s) and the proxy orders it loosely.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ckgeo import cli, kernels, moves, oracle
from ckgeo.core import Element, evaluate
from ckgeo.geodesics import closed_ball_elements, geodesic_count, length, std_rep

# Canonical letter order a < A < b < B as characters that sort the same way.
_RANK_DIGITS = str.maketrans("aAbB", "0123")


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One timed call, the check of its output, and a digest of the output.

    ``check`` returns the number of items the output certifies and raises
    :class:`CheckFailed` when the output is wrong.  ``digest`` reduces the
    output to a hashable value, so repeated passes can be compared with the
    first one without keeping whole outputs alive.
    """

    call: Callable[[], Any]
    check: Callable[[Any], int]
    digest: Callable[[Any], Hashable] = hash


@dataclass
class Prepared:
    """A workload's ops, and the elements its inputs are about."""

    ops: list[Op]
    elements: Callable[[], list[Element]]


def _images(g: Element) -> list[Element]:
    """The isometry class of ``g``, sorted."""
    k, m, n = g
    return sorted({g, Element(k, m, -n), Element(-k, -m, -n), Element(-k, -m, n)})


def _sample(
    candidates: list[Element], key: Callable, count: int, rng: random.Random
) -> list[Element]:
    """``count`` classes evenly spaced in ``key`` order, each as a
    seed-chosen image that is among ``candidates``."""
    pool = set(candidates)
    classes = sorted({_images(g)[0] for g in pool}, key=key)
    count = min(count, len(classes))
    step = len(classes) / count
    return [
        rng.choice([h for h in _images(classes[int((i + 0.5) * step)]) if h in pool])
        for i in range(count)
    ]


def _a_letters(w: str) -> int:
    return w.count("a") + w.count("A")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# Report keys that hold failures; a passing audit has all of them empty.  The
# language suite's raw ``prefix_failures`` are the documented terminal words,
# which ``unexpected_prefix_failures`` and ``missing_expected_terminals``
# compare against the prediction.
_AUDIT_FAILURE_KEYS = (
    "failures",
    "geodesic_failures",
    "dead_end_candidates",
    "unexpected_prefix_failures",
    "missing_expected_terminals",
)


def audit_ck(seed: int, radius: int = 24) -> Prepared:
    """One op: the whole ck audit through the CLI, stdout captured."""
    argv = ["audit", "--model", "ck", "--radius", str(radius), "--seed", str(seed)]

    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result: tuple[int, str]) -> int:
        code, text = result
        _require(code == 0, f"audit exited {code}")
        report = json.loads(text)
        _require(report["verdict"] == "pass", "audit verdict is not pass")
        for name, suite in report["suites"].items():
            for key in _AUDIT_FAILURE_KEYS:
                _require(not suite.get(key), f"audit suite {name}: {key} is not empty")
        size = report["suites"]["length_closed_form"]["checked"]
        expected = len(closed_ball_elements(radius))
        _require(size == expected, f"audit ball has {size} states, closed form {expected}")
        return size

    return Prepared([Op(call, check)], lambda: closed_ball_elements(radius))


def _theorem2_op(g: Element, ball: oracle.BallIndex) -> Op:
    def check(report: moves.ConnectivityReport) -> int:
        count = geodesic_count(g)
        _require(report.connected, f"{g.format()}: orbit is not the geodesic set")
        _require(
            report.orbit_size == report.geodesic_count == count,
            f"{g.format()}: orbit {report.orbit_size}, enumerated"
            f" {report.geodesic_count}, closed form {count}",
        )
        return count

    return Op(lambda: moves.check_theorem2(g, ball=ball), check)


def theorem2_sweep(seed: int, radius: int = 12, sample: int = 150) -> Prepared:
    """check_theorem2 on a sample of the radius-``radius`` ball.

    The cost proxy is geodesic count times squared a-letter count: the move
    engine runs once per orbit word, and detowering tries every pair of
    a-letters.  All calls share one prebuilt ball.
    """
    rng = random.Random(seed)
    ball = oracle.build_ball("ck", radius)

    def cost(g: Element) -> tuple:
        return (geodesic_count(g) * _a_letters(std_rep(g)) ** 2, g)

    chosen = _sample(closed_ball_elements(radius), cost, sample, rng)
    return Prepared([_theorem2_op(g, ball) for g in chosen], lambda: chosen)


def _orbit_op(g: Element, word: str) -> Op:
    def check(words: list[str]) -> int:
        count = geodesic_count(g)
        _require(len(words) == count, f"{g.format()}: orbit {len(words)}, geodesics {count}")
        size = length(g)
        for w in words:
            _require(
                len(w) == size and evaluate(w) == g,
                f"{g.format()}: orbit word {w} does not spell it in {size} letters",
            )
        return count

    return Op(lambda: moves.orbit(word), check, digest=lambda words: hash(tuple(words)))


def orbit_long(
    seed: int,
    min_a: int = 24,
    max_a: int = 48,
    max_geodesics: int = 16,
    words: int = 20,
) -> Prepared:
    """orbit(std_rep(g)) for long words with many a-letters and tiny orbits.

    Candidates have |k|, |m| <= 2, min_a <= |n| <= max_a and at most
    ``max_geodesics`` geodesics.  Classes are ordered by shape (a pure
    a-power, k = 0, k != 0), then |n|: one neighbors call costs about |n|^3,
    and shapes with equal counts differ in cost.
    """
    rng = random.Random(seed)
    columns = [*range(-max_a, -min_a + 1), *range(min_a, max_a + 1)]
    candidates = [
        g
        for k in range(-2, 3)
        for m in range(-2, 3)
        for n in columns
        if geodesic_count(g := Element(k, m, n)) <= max_geodesics
    ]
    chosen = _sample(
        candidates, lambda g: (g.k != 0, g.m != 0, abs(g.n), g), words, rng
    )
    return Prepared([_orbit_op(g, std_rep(g)) for g in chosen], lambda: chosen)


def _other_backend():
    """The kernel backend not in use, when it imports; its outputs must agree."""
    other = "pure" if kernels.BACKEND == "compiled" else "compiled"
    try:
        return kernels.load_backend(other)
    except ImportError:
        return None


def _ball_digest(ball: oracle.BallIndex) -> Hashable:
    # An order-free sum of item hashes: it builds no copy of the ball, so the
    # check adds nothing to the run's peak memory.
    return (
        ball.model,
        ball.radius,
        ball.frontier_sizes,
        sum(map(hash, ball.distances.items())) & (2**64 - 1),
    )


def _ball_op(model: str, radius: int, other) -> Op:
    def check(ball: oracle.BallIndex) -> int:
        _require(
            sum(ball.frontier_sizes) == len(ball),
            f"{model} ball: level sizes do not sum to its size",
        )
        if model == "ck":
            for state, d in ball.distances.items():
                _require(length(Element(*state)) == d, f"ck ball: {state} at distance {d}")
        else:
            expected = 2 * radius * radius + 2 * radius + 1
            _require(
                len(ball) == expected,
                f"{model} ball: {len(ball)} states, expected {expected}",
            )
        if other is not None:
            distances, levels = getattr(other, f"{model}_ball")(radius)
            _require(
                distances == dict(ball.distances) and tuple(levels) == ball.frontier_sizes,
                f"{model} ball: backends disagree",
            )
        return len(ball)

    return Op(lambda: oracle.build_ball(model, radius), check, _ball_digest)


def _enumeration_op(ball: oracle.BallIndex, target: tuple, cap: int, other) -> Op:
    g = Element(*target)

    def check(words: list[str]) -> int:
        count = geodesic_count(g)
        _require(len(words) == count, f"{g.format()}: {len(words)} words, closed form {count}")
        ranked = [w.translate(_RANK_DIGITS) for w in words]
        _require(
            all(u < v for u, v in zip(ranked, ranked[1:])),
            f"{g.format()}: words are not strictly sorted",
        )
        size = ball.distances[target]
        for w in words:
            _require(len(w) == size and evaluate(w) == g, f"{g.format()}: {w} is not a geodesic")
        if other is not None:
            _require(
                other.ck_geodesics(ball.distances, target, cap) == words,
                f"{g.format()}: backends disagree",
            )
        return count

    return Op(
        lambda: oracle.enumerate_geodesics(ball, target, cap=cap),
        check,
        digest=lambda words: hash(tuple(words)),
    )


def kernel_suite(
    seed: int,
    ck_radius: int = 60,
    rank2_radius: int = 400,
    geodesic_radius: int = 40,
    targets: int = 100,
    cap: int = 20_000,
) -> Prepared:
    """The BFS and DFS kernels: three balls, then geodesic enumerations.

    Enumeration targets are states of a ck ball with at most ``cap``
    geodesics, classes ordered by geodesic count.
    """
    rng = random.Random(seed)
    ball = oracle.build_ball("ck", geodesic_radius)
    counts = {state: geodesic_count(Element(*state)) for state in ball.distances}
    eligible = [Element(*state) for state, count in counts.items() if count <= cap]
    chosen = [tuple(g) for g in _sample(eligible, lambda g: (counts[g], g), targets, rng)]
    other = _other_backend()
    ops = [
        _ball_op("ck", ck_radius, other),
        _ball_op("klein", rank2_radius, other),
        _ball_op("z2", rank2_radius, other),
    ]
    ops += [_enumeration_op(ball, target, cap, other) for target in chosen]
    return Prepared(ops, lambda: [Element(*t) for t in chosen])


WORKLOADS: dict[str, Callable[..., Prepared]] = {
    "audit-ck": audit_ck,
    "theorem2-sweep": theorem2_sweep,
    "orbit-long": orbit_long,
    "kernels": kernel_suite,
}


def input_stats(elements: list[Element]) -> dict:
    """Element count, total geodesics, and the spread of word lengths and
    a-letter counts of the standard representatives."""
    words = [std_rep(g) for g in elements]

    def spread(values: list[int]) -> dict:
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    return {
        "elements": len(elements),
        "geodesics": sum(geodesic_count(g) for g in elements),
        "word_length": spread([len(w) for w in words]),
        "a_letters": spread([_a_letters(w) for w in words]),
    }
