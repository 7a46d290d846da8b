"""Host-time benchmark of the match-making simulator.

Usage, from the root of the repository::

    python3 hostbench/run.py --workload locate --seed 1985 --seconds 30 --trace 0
    python3 hostbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` measures the per-layer metrics from spans recorded around each layer's
public entry points.  The metric names and units come from BENCHMARK.json.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output matched its check.  ``--workload
all`` runs the four workloads in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("locate", "timed-burst", "churn", "sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the measured passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process, one after the other; the
    exit code is the worst of theirs."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.obs import host_metadata

    import scenario
    import sweep
    from workloads import DEFAULT_SEED, SWEEP_WORKERS, WORKLOADS, pinned_digest

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    spec = WORKLOADS[args.workload](seed)
    pinned = pinned_digest(args.workload, seed)
    OUT.mkdir(exist_ok=True)

    host = host_metadata(workers=SWEEP_WORKERS if args.workload == "sweep" else None)
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    print(f"workload: {args.workload}, seed {seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    if args.workload == "sweep":
        outcome = sweep.measure(
            spec, pinned, args.seconds, bool(args.trace), OUT, SWEEP_WORKERS
        )
    else:
        outcome = scenario.measure(
            spec, pinned, args.seconds, bool(args.trace),
            OUT / f"spans-{args.workload}.jsonl",
        )

    listed = {entry["name"] for entry in declared["end_to_end"] + declared["per_layer"]}
    for name, value in outcome.outputs.items():
        print(f"output {name} = {value}")
    # Measured but not listed in BENCHMARK.json: zero by construction on
    # every listed workload, so printed only.
    for name, value in outcome.metrics.items():
        if name not in listed:
            print(f"output {name} = {value:.6g}")
    for problem in outcome.problems:
        print(f"hostbench: {problem}", file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0
    # Layers a workload does not run measure zero (no spans, no cells).
    metrics = {
        entry["name"]: {
            "value": float(outcome.metrics.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in wanted
    } if correct else {}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_ops_share = {share:g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
