"""Serving benchmark: the shipped ``repro-serve`` process, driven over HTTP.

Run from the root of a checkout::

    python3 servebench/run.py --workload hot_single --seed 1 --seconds 15 --trace 0

It builds (once per checkout, cached under ``.servebench/``) a registry
holding the 5-fold static model, draws the workload's inputs from
``--seed``, labels them with an independent reference, starts the server
several times (``setup_s`` is the median start-up), warms it, measures for
``--seconds``, and checks every answer.  Standard output ends with one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the ``--seconds`` are split between an untraced window and a second,
traced window on a fresh server (so a traced run takes about as long as
an untraced one), and the run reports the per-layer ledger
(:mod:`servebench.ledger`) instead.  The line before it
is a JSON report with the environment, the input statistics and the
context of every metric.  A wrong label or a failed request makes
``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("graphs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("max_rps_under_slo", "1/s"),
    ("cpu_ms_per_graph", "ms"),
    ("rss_mb", "MiB"),
)

BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_repro(checkout: str) -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(checkout, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"servebench: no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"servebench: imported repro from {repro.__file__}, not {src}")


def environment(checkout: str, seed: int, source_digest: str) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "git_commit": commit,
        "source_digest": source_digest,
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="servebench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "small"),
        default="full",
        help="'small' serves a quickly trained stand-in model on small pools "
        "(the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the benchmark; on every way out, stop each process it started."""
    args = parse_args(argv)
    _import_repro(CHECKOUT)
    sys.path.insert(0, CHECKOUT)
    from servebench import reaper

    reaper.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args)
    finally:
        reaper.reap_all()


def _run(args: argparse.Namespace) -> int:
    from servebench import artifacts, ledger, workloads
    from servebench.reference import Reference

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    small = args.scale == "small"
    training = artifacts.SMALL_TRAINING if small else artifacts.TRAINING
    registry_root = artifacts.ensure_registry(CHECKOUT, training)
    workdir = os.path.join(CHECKOUT, ".servebench", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    window_s = args.seconds / 2 if args.trace else args.seconds
    try:
        prepare_started = time.perf_counter()
        reference = Reference(registry_root, artifacts.ENSEMBLE)
        prepared = workloads.prepare(
            workload, args.seed, window_s, reference, scale=0.1 if small else 1.0
        )
        prepare_s = time.perf_counter() - prepare_started
        result = workloads.run(
            prepared, window_s, CHECKOUT, registry_root, artifacts.ENSEMBLE,
            workdir, traced_window=bool(args.trace),
        )
        untraced = result.windows[0]
        verdicts = [
            workloads.check(prepared, w.samples, w.abandoned) for w in result.windows
        ]
        warmups = [workloads.check(prepared, w.warmup) for w in result.windows]
        e2e, context = workloads.end_to_end(prepared, result.setups, untraced, verdicts[0])
        report = {
            "benchmark": "servebench",
            "workload": workload.name,
            "environment": environment(
                CHECKOUT, args.seed, artifacts.source_digest(CHECKOUT)
            ),
            "inputs": _input_stats(prepared, untraced),
            "prepare_s": prepare_s,
            "context": context,
            "mismatches": [m for v in verdicts + warmups for m in v.mismatches],
        }
        metrics = e2e
        units = dict(END_TO_END)
        if args.trace:
            traced = result.windows[1]
            traced_e2e, _ = workloads.end_to_end(prepared, result.setups, traced, verdicts[1])
            book = ledger.Ledger(prepared, reference, registry_root, artifacts.ENSEMBLE, workdir)
            metrics = book.measure(
                untraced, traced, e2e, traced_e2e, verdicts[1].results, warmups[1].results
            )
            units = dict(ledger.PER_LAYER)
            report["end_to_end"] = e2e
            report["ledger_context"] = book.context
        correct = all(v.correct for v in verdicts + warmups)
        attempted = sum(v.attempted for v in verdicts)
        failed = sum(v.failed for v in verdicts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True, default=float))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def _input_stats(prepared, window) -> dict:
    from servebench import inputs

    sent = [s.index for s in window.samples]
    graphs = [i for body in sent for i in prepared.members[body]]
    seen, repeats = set(), 0
    for i in graphs:
        fingerprint = prepared.items[i].fingerprint
        repeats += fingerprint in seen
        seen.add(fingerprint)
    stats = inputs.describe(prepared.items, prepared.bodies, sent)
    stats["graphs_sent"] = len(graphs)
    stats["distinct_graphs_sent"] = len(seen)
    stats["repeat_share"] = repeats / len(graphs) if graphs else 0.0
    return stats


if __name__ == "__main__":
    sys.exit(main())
