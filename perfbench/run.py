"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-skewed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every metric is printed by name with its unit, then, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` also runs traced units of work alternated with untraced
ones and reports the per-layer metrics.  A record of the run
(environment, seed, the workload's rationale, sample counts, gate
results, the names the workload does not exercise) is written under
``.perfbench/`` in the repository root, with the spans of a traced run
beside it.  ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("build-wus", "serve-skewed", "serve-uniform-pool", "paper-q")


def _environment() -> dict:
    from repro import backend

    env = backend.describe()
    env["visible_cpus"] = len(os.sched_getaffinity(0))
    return env


def _result_line(outcome, spec: dict, trace: bool):
    """The result object, and the per-layer names the run did not exercise.

    Metric names and units come from ``BENCHMARK.json``; per-layer names
    a workload does not exercise are reported as 0.
    """
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = {**outcome.metrics, **outcome.layers} if trace else outcome.metrics
    missing = [name for name in wanted if name not in values]
    if missing and not trace:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, missing


def _wait_pid(pid: int, seconds: float) -> bool:
    """Reap child ``pid``, waiting at most ``seconds``; False if it still runs."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _reap_children() -> None:
    """Stop and wait for every process this run started.

    Worker processes a pool did not get to close are terminated first:
    they hold the shared-memory resource tracker's pipe open.  The
    tracker (started by the first ``SharedMemory``) would otherwise
    outlive this process; closing its pipe makes it exit, and it is
    waited for here.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracking = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracking, "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)
    tracker._fd = None
    pid, tracker._pid = tracker._pid, None
    if pid is not None and not _wait_pid(pid, 10.0):
        os.kill(pid, signal.SIGKILL)
        _wait_pid(pid, 10.0)


def run_one(args) -> int:
    try:
        return _run_one(args)
    finally:
        _reap_children()


def _run_one(args) -> int:
    import workloads

    spec = json.loads(SPEC.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    result, not_exercised = _result_line(outcome, spec, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "info": outcome.info,
        "layers_not_exercised": not_exercised,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    print(f"# {args.workload} (seed {args.seed}): {record['why']}")
    print(f"# environment: {json.dumps(record['environment'])}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<20} {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if not_exercised:
        print(f"# not exercised by {args.workload}, so reported as 0: {', '.join(not_exercised)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'} or no {SPEC.name}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
