"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --workloads wide,long --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/BENCH_0.json
    python3 perfbench/collect.py --seeds 11-20 --against perfbench/BENCH_0.json

For every workload and end-to-end metric it prints the median of the
per-seed values, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread (third minus first quartile, as a share of the median)
beside the bound fixed in BENCHMARK.json. Add ``--trace 1`` to gather the
per-layer split as well. ``--out`` writes every result line and the
summaries to a JSON file, the form in which BENCH files are committed.
``--against`` compares each median with the same metric's median in such
a file and flags a metric that is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if done.returncode not in (0, 1):  # 1: an operation failed, with a result
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier --out file whose medians to compare with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        earlier = json.loads(args.against.read_text(encoding="utf-8"))["workloads"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    traces = (0, 1) if args.trace else (0,)

    report: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            for trace in traces:
                t0 = time.monotonic()
                result, detail = _run(workload, seed, spec["run_seconds"], trace)
                detail.pop("spans", None)
                runs.append({"seed": seed, "trace": trace, "wall_s": time.monotonic() - t0,
                             "result": result, "detail": detail})
                if not result["correct"]:
                    print(f"{workload} seed {seed}: correct=false", file=sys.stderr)
                    steady = False
        summary = {}
        for trace in traces:
            per_metric: dict[str, list[float]] = {}
            for r in runs:
                if r["trace"] == trace:
                    for name, m in r["result"]["metrics"].items():
                        per_metric.setdefault(name, []).append(m["value"])
            for name, values in per_metric.items():
                summary[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
        report["workloads"][workload] = {"summary": summary, "runs": runs}

        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            s = summary.get(name)
            if s is None or "spread" not in s:
                continue
            flag = ""
            if s["spread"] > bound:
                flag, steady = "  OVER BOUND", False
            elif s["spread"] > bound / 3:
                flag = "  over bound/3"
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1.0
                worse = change if better[name] == "lower" else -change
                flag += f"  {change:+.3f} against {args.against.name}"
                if worse > bound:
                    flag, steady = flag + " WORSE", False
            print(f"  {name:<16} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")

    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
