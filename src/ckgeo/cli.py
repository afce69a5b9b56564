"""Command-line interface.

Exit codes: 0 success, 2 malformed arguments or input text, 3 resource
budget exceeded, 4 I/O failure, 5 audit or verification failure.

All output is deterministic for a fixed command line (fixed default seed,
canonical orderings, stable JSON key order), so repeated runs byte-match.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from typing import Sequence

from . import kernels
from .core import Element, IDENTITY, evaluate, inverse, multiply
from .errors import (
    GEODESIC_CAP,
    MAX_STATES,
    ORBIT_CAP,
    BallBudgetError,
    ParseError,
    ResourceError,
)
from .geodesics import (
    LengthTable,
    _std_syllables,
    continuations,
    is_geodesic,
    length,
    std_rep,
)
from .moves import check_theorem2, orbit
from .oracle import (
    BallIndex,
    CheckReport,
    audit_dead_ends,
    build_ball,
    check_continuation_rules,
    check_last_letter,
    check_standard_language,
    expected_terminal_words,
    in_ball_order,
    standard_words,
)
from .render import RenderSpec, render_svg, write_svg
from .words import _format_syllables, format_word, parse_word

DEFAULT_SEED = 2024

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4
EXIT_AUDIT = 5


def _cmd_eval(args: argparse.Namespace) -> int:
    print(evaluate(parse_word(args.word)).format())
    return EXIT_OK


def _cmd_len(args: argparse.Namespace) -> int:
    print(length(Element.parse(args.element)))
    return EXIT_OK


def _cmd_std(args: argparse.Namespace) -> int:
    print(_format_syllables(_std_syllables(Element.parse(args.element))))
    return EXIT_OK


def _cmd_continuations(args: argparse.Namespace) -> int:
    letters = continuations(Element.parse(args.element))
    print(" ".join(format_word(s) for s in letters))
    return EXIT_OK


def _cmd_is_geodesic(args: argparse.Namespace) -> int:
    print("true" if is_geodesic(parse_word(args.word)) else "false")
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    words = orbit(w, cap=args.cap)
    if args.json:
        print(
            json.dumps(
                {
                    "word": format_word(w),
                    "element": evaluate(w).format(),
                    "size": len(words),
                    "words": [format_word(u) for u in words],
                },
                indent=2,
            )
        )
    else:
        for u in words:
            print(format_word(u))
    return EXIT_OK


def _cmd_check_theorem2(args: argparse.Namespace) -> int:
    g = Element.parse(args.element)
    report = check_theorem2(
        g, geodesic_cap=args.geodesic_cap, orbit_cap=args.orbit_cap
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"element={g.format()} length={report.length}"
            f" geodesics={report.geodesic_count} orbit={report.orbit_size}"
            f" connected={'true' if report.connected else 'false'}"
        )
    return EXIT_OK if report.connected else EXIT_AUDIT


def _cmd_ball(args: argparse.Namespace) -> int:
    if args.out is not None and args.export is None:
        raise ValueError("--out needs --export csv or --export jsonl")
    ball = build_ball(args.model, args.radius, max_states=args.max_states)
    if args.export is None:
        levels = ",".join(str(v) for v in ball.frontier_sizes)
        print(
            f"model={ball.model} radius={ball.radius} states={len(ball)}"
            f" levels={levels} backend={kernels.BACKEND}"
        )
        return EXIT_OK
    export = ball.export_csv if args.export == "csv" else ball.export_jsonl
    with (
        open(args.out, "w", encoding="utf-8")
        if args.out is not None
        else contextlib.nullcontext(sys.stdout)
    ) as target:
        export(target)
    return EXIT_OK


def _algebra_suite(seed: int, trials: int = 500) -> CheckReport:
    """Seeded random consistency of word evaluation with the group algebra."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        u = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 12)))
        v = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 12)))
        gu, gv = evaluate(u), evaluate(v)
        if evaluate(u + v) != multiply(gu, gv):
            failures.append(f"homomorphism: {u!r} * {v!r}")
        if multiply(gu, inverse(gu)) != IDENTITY:
            failures.append(f"inverse: {u!r}")
    return CheckReport(
        name="algebra",
        checked=trials,
        failures=tuple(failures),
        notes=(f"seed {seed}",),
    )


def _length_suite(ball: BallIndex, table: LengthTable) -> CheckReport:
    """Closed-form lengths against BFS distances, both key sets compared.

    The ball's states that fail come first, in (distance, state) order
    whatever the order of its dict, then the table's extra elements in
    table order.
    """
    mismatches = []
    # Element is a NamedTuple: it hashes and compares equal to the plain
    # (k, m, n) key, so the table is looked up by the ball's keys directly.
    entries = table.entries
    for state, d in ball.distances.items():
        closed = entries.get(state)
        if closed is None:
            message = f"{Element(*state).format()}: missing from closed-form ball"
            mismatches.append((d, state, message))
        elif closed != d:
            message = f"{Element(*state).format()}: closed form {closed}, oracle {d}"
            mismatches.append((d, state, message))
    failures = list(in_ball_order(mismatches))
    for g in entries:
        if g not in ball.distances:
            failures.append(f"{g.format()}: closed-form extra state")
    return CheckReport(
        name="length-closed-form",
        checked=len(ball),
        failures=tuple(failures),
        notes=(f"closed-form ball size {len(table)}",),
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.negative_control and args.model == "klein":
        raise ValueError(
            "--negative-control needs a model with a standard language: ck or z2"
        )
    if args.negative_control and args.radius < 1:
        raise ValueError(
            "--negative-control needs --radius >= 1: a radius-0 ball leaves"
            " nothing to clip"
        )
    ball = build_ball(args.model, args.radius, max_states=args.max_states)
    report: dict = {
        "model": args.model,
        "radius": args.radius,
        "seed": args.seed,
        "backend": kernels.BACKEND,
        "suites": {},
    }
    suite_verdicts: list[str] = []

    if args.negative_control:
        # The standard words clipped below the horizon: those at the cap
        # extend to no longer language word, so the prefix audit must fail.
        cap = max(0, args.radius - 2)
        lang_report = check_standard_language(
            f"{args.model}-standard-truncated@{cap}",
            standard_words(args.model, cap),
            ball,
        )
        report["suites"]["standard_language"] = lang_report.to_dict()
        report["verdict"] = lang_report.verdict
        print(json.dumps(report, indent=2))
        return EXIT_OK if lang_report.verdict == "pass" else EXIT_AUDIT

    dead = audit_dead_ends(ball)
    report["suites"]["dead_ends"] = dead.to_dict()
    suite_verdicts.append(dead.verdict)

    if args.model == "ck":
        algebra = _algebra_suite(args.seed)
        report["suites"]["algebra"] = algebra.to_dict()
        suite_verdicts.append(algebra.verdict)

        # One closed-form ball serves the length suite and the language:
        # the language words are its standard representatives.  The table
        # is dropped once they are built, before the later suites run.
        table = LengthTable.build(args.radius)
        lengths = _length_suite(ball, table)
        report["suites"]["length_closed_form"] = lengths.to_dict()
        suite_verdicts.append(lengths.verdict)
        words = [std_rep(g) for g in table.entries]
        del table

        rules = check_continuation_rules(ball)
        report["suites"]["continuation_rules"] = rules.to_dict()
        suite_verdicts.append(rules.verdict)

        last = check_last_letter(ball)
        report["suites"]["last_letter"] = last.to_dict()
        suite_verdicts.append(last.verdict)

        lang_report = check_standard_language("ck-standard", words, ball)
        expected = expected_terminal_words(args.radius - 1)
        unexpected = sorted(set(lang_report.prefix_failures) - expected)
        missing_expected = sorted(expected - set(lang_report.prefix_failures))
        lang_dict = lang_report.to_dict()
        lang_dict["unexpected_prefix_failures"] = unexpected
        lang_dict["missing_expected_terminals"] = missing_expected
        lang_ok = (
            not lang_report.geodesic_failures
            and not unexpected
            and not missing_expected
        )
        # The raw verdict counts the documented terminal words as prefix
        # failures; the certified verdict requires them to be exactly the
        # predicted set and nothing else.
        lang_dict["certified_verdict"] = "pass" if lang_ok else "fail"
        report["suites"]["standard_language"] = lang_dict
        suite_verdicts.append("pass" if lang_ok else "fail")
        report["known_deviations"] = {
            "terminal_standard_words": sorted(expected),
            "count": len(expected),
            "note": (
                "standard words of elements with n = 0 and k != 0 end in an"
                " a-direction letter that no longer standard word retains;"
                " they are terminal in the prefix order, and the a direction"
                " is excluded from the continuation rule there"
            ),
        }
    elif args.model == "z2":
        lang_report = check_standard_language(
            "z2-standard", standard_words("z2", args.radius), ball
        )
        report["suites"]["standard_language"] = lang_report.to_dict()
        suite_verdicts.append(lang_report.verdict)

    verdict = "pass" if all(v == "pass" for v in suite_verdicts) else "fail"
    report["verdict"] = verdict
    print(json.dumps(report, indent=2))
    return EXIT_OK if verdict == "pass" else EXIT_AUDIT


def _cmd_render(args: argparse.Namespace) -> int:
    spec = RenderSpec(
        word=parse_word(args.word),
        cell_size=args.cell_size,
        show_cells=args.cells,
        show_young=args.young,
    )
    if args.out is None:
        sys.stdout.write(render_svg(spec))
    else:
        write_svg(spec, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgeo",
        description=(
            "Geodesics, rewriting moves, and brute-force oracles for the"
            " central extension of the Klein bottle group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a word to its normal form")
    p.add_argument("word")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("len", help="closed-form word length of an element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_len)

    p = sub.add_parser("std", help="standard geodesic representative")
    p.add_argument("element")
    p.set_defaults(func=_cmd_std)

    p = sub.add_parser("continuations", help="letters that extend geodesics")
    p.add_argument("element")
    p.set_defaults(func=_cmd_continuations)

    p = sub.add_parser("is-geodesic", help="is the word a geodesic spelling?")
    p.add_argument("word")
    p.set_defaults(func=_cmd_is_geodesic)

    p = sub.add_parser("orbit", help="move-closure of a word")
    p.add_argument("word")
    p.add_argument("--cap", type=int, default=ORBIT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser(
        "check-theorem2",
        help="compare the move orbit of std with all geodesics (exit 5 if short)",
    )
    p.add_argument("element")
    p.add_argument("--geodesic-cap", type=int, default=GEODESIC_CAP)
    p.add_argument("--orbit-cap", type=int, default=ORBIT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_theorem2)

    p = sub.add_parser("ball", help="breadth-first ball of a model")
    p.add_argument("radius", type=int)
    p.add_argument("--model", choices=("ck", "klein", "z2"), default="ck")
    p.add_argument("--max-states", type=int, default=MAX_STATES)
    p.add_argument("--export", choices=("csv", "jsonl"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("audit", help="run the audit suites (exit 5 on failure)")
    p.add_argument("--model", choices=("ck", "klein", "z2"), default="ck")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-states", type=int, default=MAX_STATES)
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="audit a deliberately clipped language instead (must fail)",
    )
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("render", help="draw a word's lattice path as SVG")
    p.add_argument("word")
    p.add_argument("--out")
    p.add_argument("--cell-size", type=int, default=24)
    p.add_argument("--cells", action="store_true", help="orientation glyphs")
    p.add_argument(
        "--young", action="store_true", help="rectangle and deviation shading"
    )
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BallBudgetError as exc:
        print(
            f"error: {exc} (reached {exc.states} states,"
            f" {exc.levels_completed} levels completed)",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
