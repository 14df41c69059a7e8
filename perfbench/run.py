"""driftmark benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide --seed 7 --seconds 20 --trace 0

It times driftmark's public entry points from outside, in a fresh child
process per measurement (``worker.py``) with one thread per numeric
library, and prints one JSON result as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children in short slices of ``--seconds`` and reports
the per-layer split plus ``trace_overhead``. The line before the result holds
the run's metadata, per-timing sample counts and percentiles, the event-log
sha256 and, when traced, the span table. Workloads and metrics are
described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("wide", "long")
# Every run must end within 180 s.
DEADLINE_S = 170.0
# With --trace 1: untraced (0) and traced (1) slices, in this order, so both
# sides sample the same host states and each goes first equally often.
TRACE_SLICES = (0, 1, 1, 0, 0, 1)
# Timings are scaled to a host on which worker.reference() takes this long:
# value = median(samples) / median(reference samples) * REFERENCE_S.
REFERENCE_S = 0.025


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _worker(args, work: Path, env: dict, *, trace: int, seconds: float,
            deadline: float) -> dict:
    work.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", args.size,
    ]
    done = subprocess.run(
        cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _merged_spans(runs: list[dict]):
    from spans import Tracer

    tracer = Tracer()
    for r in runs:
        if r["trace"]:
            tracer.absorb(r["spans"], r["counters"])
    return tracer


def _metrics(trace: int, runs: list[dict]) -> dict:
    """The result's metrics. Every timing is the median of all samples of
    the run, over all of its slices; end-to-end timings are then scaled by
    the host's speed, measured as the median time of ``worker.reference``
    in the same run."""

    def median(name: str, trace: int = 0) -> float:
        return statistics.median(
            x for r in runs if r["trace"] == trace for x in r["timings"][name]["samples"]
        )

    if trace:
        import layers

        iterations = sum(r["iterations"] for r in runs if r["trace"])
        metrics = layers.layer_metrics(_merged_spans(runs), iterations)
        metrics["trace_overhead"] = {
            "value": median("run_s", 1) / median("run_s") - 1.0, "unit": "ratio",
        }
        return metrics
    (plain,) = runs
    t = plain["timings"]
    scale = REFERENCE_S / median("reference_s")
    run_s = median("run_s") * scale
    return {
        "setup_s": {"value": median("setup_s") * scale, "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "forecasts_per_s": {"value": plain["meta"]["shape"]["forecasts"] / run_s,
                            "unit": "1/s"},
        "resume_s": {"value": median("resume_s") * scale, "unit": "s"},
        "report_s": {"value": median("report_s") * scale, "unit": "s"},
        "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        "events_mb": {"value": t["events_mb"]["median"], "unit": "MB"},
        "checkpoints_mb": {"value": t["checkpoints_mb"]["median"], "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny shapes for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = HERE.parent
    src = root / "src"
    if not (src / "driftmark" / "__init__.py").is_file():
        return _fail(f"no driftmark sources under {src}")

    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    scratch_root = root / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        if args.trace:
            runs = [
                _worker(args, scratch / f"slice{i}", env, trace=trace,
                        seconds=args.seconds / len(TRACE_SLICES), deadline=deadline)
                for i, trace in enumerate(TRACE_SLICES)
            ]
        else:
            runs = [_worker(args, scratch / "plain", env, trace=0, seconds=args.seconds,
                            deadline=deadline)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    for run in runs:
        imported = Path(run["meta"]["driftmark_file"]).resolve()
        if not imported.is_relative_to(src.resolve()):
            return _fail(f"imported driftmark from {imported}, not {src}")
        # Recorded relative to the checkout, so results do not name its location.
        run["meta"]["driftmark_file"] = imported.relative_to(root.resolve()).as_posix()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # A failed operation leaves timings without samples; report no metrics.
    metrics = _metrics(args.trace, runs) if failed == 0 else {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(src / "driftmark"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "runs": [
            {k: r[k] for k in ("trace", "iterations", "attempted", "failed", "failures",
                               "timings", "peak_rss_mb", "events_sha256", "meta")}
            for r in runs
        ],
    }
    if args.trace:
        detail["spans"] = _merged_spans(runs).dump()
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
