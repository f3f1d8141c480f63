"""Tests of the benchmark itself, at a tiny size.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import perfbench  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.2  # iteration counts scaled down; mc horizons stay long enough


def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_and_units_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(perfbench.WORKLOADS)
    assert _declared("end_to_end") == perfbench.END_TO_END_UNITS
    assert _declared("per_layer") == perfbench.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(perfbench.WORKLOADS))
def test_workload_reports_every_metric_and_tracing_is_transparent(workload):
    report = perfbench.measure(workload, seed=3, seconds=0, trace=True, iters_scale=TINY)
    assert report.failed == 0, report.failures
    assert report.attempted == 2 * len(perfbench.WORKLOADS[workload])
    assert set(report.end_to_end) == set(perfbench.END_TO_END_UNITS)
    assert set(report.per_layer) == set(perfbench.PER_LAYER_UNITS)
    for value in {**report.end_to_end, **report.per_layer}.values():
        assert isinstance(value, float) and math.isfinite(value)
    assert report.end_to_end["iters_per_s"] > 0.0 and report.end_to_end["setup_s"] > 0.0
    # the wrapped problem, controller and stream leave every run bit-identical
    assert report.traced_digest == report.trace_digest

    other = perfbench.measure(workload, seed=4, seconds=0, trace=False, iters_scale=TINY)
    assert other.failed == 0, other.failures
    assert other.trace_digest != report.trace_digest


def test_exact_counts_repeat():
    def counts(seed):
        layers = perfbench.measure("stream_coupled", seed, 0, True, TINY).per_layer
        return layers["numkit.words_per_iter"], layers["problems.oracle_calls_per_iter"]

    assert counts(5) == counts(5)


def test_coupling_identity_check_catches_a_wrong_series():
    problem = perfbench.problems.make_problem("quadratic", 5, 0, 1)
    controller = perfbench.controllers.make_controller(perfbench._STATIC, problem)
    cfg = perfbench.engine.EngineConfig(n_iters=200, trace_stride=1)
    trace = perfbench.engine.run(problem, controller, cfg, perfbench.numkit.RngStream(7, 0))
    assert perfbench._coupling_identity_error(problem, controller, 7, 0, trace) < 1e-12
    # a D_0 drawn from another stream must not pass
    assert perfbench._coupling_identity_error(problem, controller, 7, 1, trace) > 1e-3
