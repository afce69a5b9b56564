"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "audit-ck": {"radius": 6},
    "theorem2-sweep": {"radius": 5, "sample": 12},
    "orbit-long": {"min_a": 6, "max_a": 10, "words": 4},
    "kernels": {
        "ck_radius": 10,
        "rank2_radius": 30,
        "geodesic_radius": 8,
        "targets": 10,
        "cap": 200,
    },
}


@pytest.fixture(scope="module")
def import_s() -> float:
    return run.load_ckgeo()


def _patched_names():
    """The objects the tracer replaces, in a few representative places."""
    from ckgeo import cli, geodesics, kernels, moves, oracle

    return (
        cli.main,
        cli.build_ball,
        kernels.ck_geodesics,
        moves.neighbors,
        moves.evaluate,
        oracle.closed_ball_elements,
        tuple(oracle._KERNEL_BUILDERS.values()),
        vars(geodesics.LengthTable)["build"],
    )


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, import_s, tmp_path):
    before = _patched_names()
    result = run.benchmark(
        workload, 7, 0.01, trace, import_s, sizes=TINY[workload], out_dir=tmp_path
    )
    assert _patched_names() == before
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    details = json.loads((tmp_path / f"{workload}-seed7-trace{int(trace)}.json").read_text())
    assert details["fail_ratio"] == 0
    assert details["inputs"]["elements"] >= 1
    assert (tmp_path / f"{workload}-seed7-trace1.spans.json.gz").exists() == trace


@pytest.mark.parametrize("workload", ["theorem2-sweep", "kernels"])
def test_dropping_one_geodesic_raises_fail_ratio(workload, import_s, tmp_path, monkeypatch):
    from ckgeo import kernels

    enumerate_all = kernels.ck_geodesics

    def drop_one(*args, **kwargs):
        return enumerate_all(*args, **kwargs)[:-1]

    monkeypatch.setattr(kernels, "ck_geodesics", drop_one)
    result = run.benchmark(
        workload, 7, 0.01, False, import_s, sizes=TINY[workload], out_dir=tmp_path
    )
    details = json.loads((tmp_path / f"{workload}-seed7-trace0.json").read_text())
    assert details["fail_ratio"] > 0
    assert result["failed"] > 0 and result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] < 1
