"""Spans and counters recorded around ckgeo's public functions, from outside.

``installed(tracer)`` replaces functions at the places where their callers
look them up -- a module's globals (``ckgeo.moves.neighbors`` for ``orbit``,
``ckgeo.cli.build_ball`` for ``main``), ``ckgeo.oracle._KERNEL_BUILDERS`` for
``build_ball``, and the ``LengthTable.build`` class attribute -- and puts the
originals back on exit.  Nothing inside the package is edited, so an
untraced run executes ckgeo's own code unchanged.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in ``Tracer.spans``, or -1.  The part of a span's name before
the first dot is its layer, named after the ckgeo module the span wraps.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

LAYERS = ("kernels", "geodesics", "oracle", "moves", "cli")

#: Every per-layer metric the traced run reports, with its unit.  Times and
#: counts are per pass over the workload's ops, so runs of different length
#: compare directly.
PER_LAYER_UNITS: dict[str, str] = {
    "kernels.ball_s": "s/pass",
    "kernels.ball_states": "count/pass",
    "kernels.geodesics_s": "s/pass",
    "kernels.geodesic_words": "count/pass",
    "geodesics.closed_ball_s": "s/pass",
    "geodesics.length_table_s": "s/pass",
    "geodesics.closed_ball_calls": "count/pass",
    # Elements over (2r+1)^3 box points, computed from the calls' radius
    # arguments and result sizes, not measured.
    "geodesics.closed_ball_yield": "computed_ratio",
    "oracle.dead_ends_s": "s/pass",
    "oracle.language_s": "s/pass",
    "oracle.last_letter_s": "s/pass",
    "oracle.continuation_s": "s/pass",
    "oracle.items_checked": "count/pass",
    "moves.orbit_s": "s/pass",
    "moves.castling_s": "s/pass",
    "moves.detowering_s": "s/pass",
    "moves.clipping_s": "s/pass",
    "moves.edge_pass_s": "s/pass",
    "moves.neighbors_calls_per_orbit_word": "ratio",
    "moves.evaluations_per_edge": "ratio",
    "moves.edges.castling": "count/pass",
    "moves.edges.detowering": "count/pass",
    "moves.edges.clipping": "count/pass",
    "cli.self_s": "s/pass",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead": "ratio",
}

Span = tuple[str, float, float, int]


class Tracer:
    """Spans in call order, plus named integer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._open = [-1]

    def span(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``count(counters, args,
        result)`` runs after a call that returns."""
        spans, open_spans, counters = self.spans, self._open, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds one to counter ``name``; no span."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


def _ball_states(counters, args, result) -> None:
    distances, _levels = result
    counters["kernels.ball_states"] += len(distances)


def _geodesic_words(counters, args, words) -> None:
    counters["kernels.geodesic_words"] += len(words)


def _closed_ball(counters, args, elements) -> None:
    counters["geodesics.closed_ball_elements"] += len(elements)
    counters["geodesics.closed_ball_box"] += (2 * args[0] + 1) ** 3


def _audit_items(counters, args, report) -> None:
    counters["oracle.items_checked"] += report.standard_words_checked


def _check_items(counters, args, report) -> None:
    counters["oracle.items_checked"] += report.checked


def _orbit_words(counters, args, words) -> None:
    counters["moves.orbit_words"] += len(words)


def _edges(family: str) -> Callable:
    def count(counters, args, edges) -> None:
        counters[f"moves.edges.{family}"] += len(edges)

    return count


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, key, replacement) triples; an owner is a dict or a class."""
    from ckgeo import cli, geodesics, kernels, moves, oracle
    from ckgeo.geodesics import LengthTable

    # (namespace, key, span name, counter callback)
    spanned = [
        *(
            (oracle._KERNEL_BUILDERS, model, "kernels.ball", _ball_states)
            for model in oracle._KERNEL_BUILDERS
        ),
        (vars(kernels), "ck_geodesics", "kernels.geodesics", _geodesic_words),
        (vars(geodesics), "closed_ball_elements", "geodesics.closed_ball", _closed_ball),
        (vars(oracle), "closed_ball_elements", "geodesics.closed_ball", _closed_ball),
        (vars(oracle), "build_ball", "oracle.build_ball", None),
        (vars(oracle), "enumerate_geodesics", "oracle.enumerate_geodesics", None),
        (vars(cli), "build_ball", "oracle.build_ball", None),
        (vars(cli), "audit_dead_ends", "oracle.dead_ends", _audit_items),
        (vars(cli), "check_standard_language", "oracle.language", _audit_items),
        (vars(cli), "check_continuation_rules", "oracle.continuation", _check_items),
        (vars(cli), "check_last_letter", "oracle.last_letter", _check_items),
        (vars(cli), "expected_terminal_words", "oracle.expected_terminals", None),
        (vars(cli), "main", "cli.main", None),
        (vars(moves), "check_theorem2", "moves.check_theorem2", None),
        (vars(moves), "orbit", "moves.orbit", _orbit_words),
        (vars(moves), "neighbors", "moves.neighbors", None),
        (vars(moves), "castling_neighbors", "moves.castling", _edges("castling")),
        (vars(moves), "detowering_neighbors", "moves.detowering", _edges("detowering")),
        (vars(moves), "clipping_neighbors", "moves.clipping", _edges("clipping")),
    ]
    patches: list[tuple[object, str, object]] = [
        (owner, key, tracer.span(name, owner[key], count))
        for owner, key, name, count in spanned
    ]
    length_table = tracer.span("geodesics.length_table", LengthTable.build)
    patches.append((LengthTable, "build", staticmethod(length_table)))
    patches.append(
        (vars(moves), "evaluate", tracer.counting("moves.evaluate_calls", moves.evaluate))
    )
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Record into ``tracer`` for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, key, replacement in _patches(tracer):
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = replacement
            else:
                saved.append((owner, key, vars(owner)[key]))
                setattr(owner, key, replacement)
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: span time not covered by child spans."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _parent), children in zip(spans, covered):
        out[name] += end - start - children
    return dict(out)


def layer_metrics(tracer: Tracer, passes: int, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` passes that took
    ``traced_s`` seconds of wall time; all but ``trace.overhead``.

    A ``_s`` metric is the inclusive time of its spans; ``<layer>.self_share``
    is the self time of the layer's spans over ``traced_s``; ``cli.self_s``
    is ``main``'s self time.
    """
    spans = tracer.spans
    inclusive: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    edge_pass = 0.0
    for name, start, end, parent in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if (
            name == "moves.neighbors"
            and parent >= 0
            and spans[parent][0] == "moves.check_theorem2"
        ):
            edge_pass += end - start
    self_time: defaultdict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        self_time[name.split(".", 1)[0]] += seconds
    counters = tracer.counters
    edges = sum(counters[f"moves.edges.{f}"] for f in ("castling", "detowering", "clipping"))
    metrics = {
        "kernels.ball_s": inclusive["kernels.ball"] / passes,
        "kernels.ball_states": counters["kernels.ball_states"] / passes,
        "kernels.geodesics_s": inclusive["kernels.geodesics"] / passes,
        "kernels.geodesic_words": counters["kernels.geodesic_words"] / passes,
        "geodesics.closed_ball_s": inclusive["geodesics.closed_ball"] / passes,
        "geodesics.length_table_s": inclusive["geodesics.length_table"] / passes,
        "geodesics.closed_ball_calls": calls["geodesics.closed_ball"] / passes,
        "geodesics.closed_ball_yield": _ratio(
            counters["geodesics.closed_ball_elements"],
            counters["geodesics.closed_ball_box"],
        ),
        "oracle.dead_ends_s": inclusive["oracle.dead_ends"] / passes,
        "oracle.language_s": inclusive["oracle.language"] / passes,
        "oracle.last_letter_s": inclusive["oracle.last_letter"] / passes,
        "oracle.continuation_s": inclusive["oracle.continuation"] / passes,
        "oracle.items_checked": counters["oracle.items_checked"] / passes,
        "moves.orbit_s": inclusive["moves.orbit"] / passes,
        "moves.castling_s": inclusive["moves.castling"] / passes,
        "moves.detowering_s": inclusive["moves.detowering"] / passes,
        "moves.clipping_s": inclusive["moves.clipping"] / passes,
        "moves.edge_pass_s": edge_pass / passes,
        "moves.neighbors_calls_per_orbit_word": _ratio(
            calls["moves.neighbors"], counters["moves.orbit_words"]
        ),
        "moves.evaluations_per_edge": _ratio(counters["moves.evaluate_calls"], edges),
        "moves.edges.castling": counters["moves.edges.castling"] / passes,
        "moves.edges.detowering": counters["moves.edges.detowering"] / passes,
        "moves.edges.clipping": counters["moves.edges.clipping"] / passes,
        "cli.self_s": self_time["cli"] / passes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(self_time[layer], traced_s)
    return metrics
