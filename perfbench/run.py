"""ckgeo benchmark: time one workload for a fixed wall-clock budget.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports ckgeo from the checkout's ``src`` (the pure-Python install needs
no build), makes the workload's inputs from the seed, and runs passes over
the workload's ops in this one process and thread: a closed loop with a
single caller.  Every op's output is checked outside the timed section.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of the untraced passes;
* ``--trace 1``: untraced passes for half the budget, then traced passes for
  the other half, and the per-layer metrics of the traced ones.  Both halves
  must produce the same outputs.

A summary goes to stderr, and ``.perfbench-out/`` receives the run's details
(machine, input statistics, op counts, fail ratio, failures, metrics) and,
for traced runs, every span.  ``ok_ratio`` is one minus the fail ratio:
metrics are reported so that none is zero on a healthy run.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up runs this many times per run, and setup_s adds the medians: cold
#: imports of ckgeo, each in a fresh interpreter, then input generations.
#: Both are timed on the CPU clock, for the reason given in
#: :func:`end_to_end_metrics`.
IMPORT_REPEATS = 15
SETUP_REPEATS = 3

#: Run by a fresh interpreter: prints the CPU time of ``import ckgeo``, which
#: loads every module ckgeo needs that the interpreter did not load at start.
_COLD_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import ckgeo
print(time.process_time() - start, ckgeo.__file__)
"""


def cold_import_s() -> float:
    """Median CPU time of ``IMPORT_REPEATS`` imports of ckgeo from this
    checkout's ``src``, each in a new interpreter that has ended on return.

    Raises ImportError when the import fails or finds ckgeo elsewhere.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if child.returncode != 0:
            lines = child.stderr.strip().splitlines() or [f"exit code {child.returncode}"]
            raise ImportError(lines[-1])
        seconds, path = child.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "ckgeo":
            raise ImportError(f"ckgeo imported from {path.strip()}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def load_ckgeo() -> float:
    """Import ckgeo from this checkout's ``src``; returns :func:`cold_import_s`.

    Call it once, before :func:`benchmark`.  Raises ImportError when the
    checkout holds no ckgeo sources, including when another ckgeo is
    importable.
    """
    import_s = cold_import_s()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("ckgeo")
    return import_s


@dataclass
class Pass:
    """One pass over every op: per-op wall and CPU durations, certified
    items, failures."""

    durations: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.durations)


class Runner:
    """Runs passes over a fixed op list and checks every output.

    An output is checked in full the first time; a later pass must give an
    output with the same digest, so traced passes are held to the untraced
    ones' outputs.
    """

    def __init__(self, ops: list) -> None:
        from workloads import CheckFailed

        self.ops = ops
        self._check_failed = CheckFailed
        self._verified: list[tuple | None] = [None] * len(ops)
        self.failures: list[str] = []

    def run_pass(self) -> Pass:
        result = Pass()
        clock, cpu_clock = time.perf_counter, time.process_time
        for index, op in enumerate(self.ops):
            # Drop the last op's output, so it is not alive while this op runs.
            output = None
            start, cpu_start = clock(), cpu_clock()
            try:
                output = op.call()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            result.durations.append(clock() - start)
            result.cpu.append(cpu_clock() - cpu_start)
            if error is not None:
                self._fail(index, f"raised {error!r}", result)
                continue
            try:
                result.items += self._certify(index, op, output)
            except self._check_failed as exc:
                self._fail(index, str(exc), result)
        return result

    def _certify(self, index: int, op, output) -> int:
        digest = op.digest(output)
        known = self._verified[index]
        if known is not None:
            if known[0] != digest:
                raise self._check_failed("output differs from an earlier pass")
            return known[1]
        items = op.check(output)
        self._verified[index] = (digest, items)
        return items

    def _fail(self, index: int, message: str, result: Pass) -> None:
        result.failed += 1
        self.failures.append(f"op {index}: {message}")

    def run_for(self, budget: float) -> list[Pass]:
        """Whole passes until the next one would end past ``budget`` seconds
        (checks included); at least one pass."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(self.run_pass())
            now = time.perf_counter()
            if now - start + (now - pass_start) > budget:
                return passes


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical_pass(passes: list[Pass], clock: str = "cpu") -> list[float]:
    """Each op's median duration over the passes, on the ``"cpu"`` or the
    wall (``"durations"``) clock."""
    return [statistics.median(d) for d in zip(*(getattr(p, clock) for p in passes))]


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict[str, float]:
    """Metrics of one typical pass: each op at its median over the passes.

    ``wall_s`` is on the wall clock.  ``setup_s``, ``cpu_s``, ``items_per_s``
    and the op percentiles are on this process's CPU clock.  The ops are
    single-threaded and CPU-bound, so on an idle machine the two clocks
    agree.  On a shared virtual machine the wall clock also counts the time
    the host runs other guests: on a 2-vCPU Xeon guest that was about 10% of
    the wall clock, and it varied between runs by as much.
    """
    per_op = typical_pass(passes)
    cpu = sum(per_op)
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical_pass(passes, "durations")),
        "cpu_s": cpu,
        "items_per_s": sum(p.items for p in passes) / len(passes) / cpu,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": _percentile(per_op, 90) * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def machine_info() -> dict:
    from ckgeo import kernels

    return {
        "backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }


def benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    sizes: dict | None = None,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Run one workload; returns the result object that run.py prints.

    ``import_s`` is the time :func:`load_ckgeo` took; call it first.
    """
    import tracing
    import workloads

    prepare = workloads.WORKLOADS[workload]
    setup_times = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        # Free the last repeat's inputs first: two sets alive at once would
        # set the run's peak memory.
        prepared = None
        gc.collect()
        start = time.process_time()
        prepared = prepare(seed, **(sizes or {}))
        setup_times.append(time.process_time() - start)
    setup_s = import_s + statistics.median(setup_times)

    runner = Runner(prepared.ops)
    spans = None
    if trace:
        untraced = runner.run_for(seconds / 2)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = runner.run_for(seconds / 2)
        values = tracing.layer_metrics(tracer, len(traced), sum(p.wall for p in traced))
        values["trace.overhead"] = (
            sum(typical_pass(traced, "durations"))
            / sum(typical_pass(untraced, "durations"))
            - 1
        )
        units = tracing.PER_LAYER_UNITS
        passes = untraced + traced
        spans = tracer.spans
        self_s = {
            name: total / len(traced)
            for name, total in sorted(tracing.self_times(spans).items())
        }
    else:
        passes = runner.run_for(seconds)
        values = end_to_end_metrics(passes, setup_s)
        units = END_TO_END_UNITS

    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes or {},
        "machine": machine_info(),
        "inputs": workloads.input_stats(prepared.elements()),
        "ops_per_pass": len(prepared.ops),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [sum(p.cpu) for p in passes],
        "fail_ratio": failed / attempted,
        "failures": runner.failures[:20],
        "result": result,
    }
    if trace:
        details["self_s_per_pass"] = self_s
    _write(out_dir, f"{workload}-seed{seed}-trace{int(trace)}", details, spans)
    print(
        f"{workload} seed={seed} trace={int(trace)} passes={len(passes)}"
        f" ops={attempted} failed={failed} backend={details['machine']['backend']}"
        f" inputs={json.dumps(details['inputs'])}",
        file=sys.stderr,
    )
    for message in runner.failures[:5]:
        print(f"failure: {message}", file=sys.stderr)
    return result


def _write(out_dir: Path, stem: str, details: dict, spans) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if spans is None:
        return
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    table = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in spans],
    }
    with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("audit-ck", "theorem2-sweep", "orbit-long", "kernels"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_s = load_ckgeo()
    except ImportError as exc:
        print(f"error: cannot import ckgeo from this checkout: {exc}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
