"""Run one csgd benchmark workload and print its metrics.

    python3 bench/run.py --workload stream_coupled --seed 0 --seconds 20 --trace 0

Run it from a source checkout; it imports the package from ``src/`` next to
this directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it start with ``#`` and give the
environment, the trace digest, ``fail_frac`` and every figure by name with
its unit.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(numpy_version: str) -> dict:
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": src_lines,
    }


def print_report(report, units: dict) -> None:
    print(f"# workload {report.workload} seed {report.seed}: {report.passes} passes, "
          f"{report.traced_passes} traced")
    digest = f"# trace_digest {report.trace_digest}"
    if report.traced_digest is not None:
        digest += f" (traced {report.traced_digest})"
    print(digest)
    for name, value in {**report.end_to_end, **report.per_layer}.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(f"# fail_frac {report.fail_frac:.6g} ({report.failed} of {report.attempted} runs)")
    for name, value in report.detail.items():
        print(f"# {name} {'n/a' if value is None else f'{value:.6g}'}")
    for reason in report.failures:
        print(f"# FAILED {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # pin BLAS to one thread; read when numpy loads
    src = ROOT / "src"
    if not (src / "csgd" / "__init__.py").is_file():
        print(f"error: no csgd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy

    import perfbench

    names = list(perfbench.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in perfbench.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; one of "
                     f"{', '.join(perfbench.WORKLOADS)} or all")

    print(f"# env {json.dumps(environment(numpy.__version__), sort_keys=True)}")
    units = {**perfbench.END_TO_END_UNITS, **perfbench.PER_LAYER_UNITS}
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        report = perfbench.measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(report, units)
        attempted += report.attempted
        failed += report.failed
        chosen = report.per_layer if args.trace else report.end_to_end
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: {"value": value, "unit": units[metric]}
                        for metric, value in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
