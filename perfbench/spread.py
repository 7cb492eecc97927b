"""Run-to-run spread of the benchmark, measured the way it is judged.

    python3 perfbench/spread.py [--out FILE]

Makes two sets of runs.  In each set, run.py runs once per seed
(FIRST_SEED .. FIRST_SEED + RUNS - 1) on every workload of
BENCHMARK.json, one run at a time, for its run_seconds.  The sets are
interleaved: each seed runs once for each set before the next seed, the
set that goes first alternating from seed to seed, so that a slow drift
of the host's speed falls on both sets alike.  For every end-to-end
metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a
share of the median.  A set passes when each spread but that of setup_s
stays within the metric's bound; the second set passes when, besides,
no median of it is worse than the first set's by more than the bound.
Last, each workload is traced twice on FIRST_SEED and every per-layer
count must agree exactly.

Exits 1 when a run is not correct, a spread or a median is out of bound,
or counts differ.  --out writes the environment and both sets as JSON
(baseline.json holds the sets made when the benchmark was defined).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10
FIRST_SEED = 201
SETS = 2
SEEDS = range(FIRST_SEED, FIRST_SEED + RUNS)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result object, plus its wall time as "run_s"."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def run_sets(bm: dict) -> tuple[list[dict], bool]:
    ok = True
    sets = [{} for _ in range(SETS)]
    for workload in (w["name"] for w in bm["workloads"]):
        runs = [[] for _ in range(SETS)]
        for j, seed in enumerate(SEEDS):
            for k in (range(SETS) if j % 2 == 0 else reversed(range(SETS))):
                res = bench(workload, seed, bm["run_seconds"], 0)
                ok &= res["correct"]
                runs[k].append(res)
                print(f"{workload} set {k + 1} seed {seed}: {res['run_s']:.1f} s correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} " + " ".join(
                          f"{key}={m['value']:.5g}" for key, m in res["metrics"].items()), flush=True)
        for k in range(SETS):
            entry = {"run_s": [r["run_s"] for r in runs[k]], "metrics": {}}
            for metric in bm["end_to_end"]:
                key = metric["name"]
                s = summarize([r["metrics"][key]["value"] for r in runs[k]])
                s["within_bound"] = key == "setup_s" or s["iqr_share"] <= metric["bound"]
                ok &= s["within_bound"]
                entry["metrics"][key] = s
                print(f"  set {k + 1} {key}: median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                      f"iqr/median {s['iqr_share']:.4f} (bound {metric['bound']})", flush=True)
            sets[k][workload] = entry
    return sets, ok


def compare(bm: dict, first: dict, second: dict) -> bool:
    """Second set's medians against the first set's, per metric."""
    ok = True
    for workload, entry in second.items():
        for metric in bm["end_to_end"]:
            key = metric["name"]
            worse = worse_by(metric, first[workload]["metrics"][key]["median"], entry["metrics"][key]["median"])
            entry["metrics"][key]["worse_than_first"] = worse
            ok &= worse <= metric["bound"]
            print(f"{workload} {key}: second median worse by {worse:+.4f} (bound {metric['bound']})", flush=True)
    return ok


def counts_repeat(bm: dict) -> tuple[dict, bool]:
    out = {}
    ok = True
    for workload in (w["name"] for w in bm["workloads"]):
        first, second = (bench(workload, FIRST_SEED, bm["run_seconds"], 1) for _ in range(2))
        same = all(m["value"] == second["metrics"][k]["value"]
                   for k, m in first["metrics"].items() if m["unit"] == "count")
        ok &= same and first["correct"] and second["correct"]
        out[workload] = {"counts_repeat": same, "traced_run_s": [first["run_s"], second["run_s"]]}
        print(f"{workload}: counts repeat across two traced runs of seed {FIRST_SEED}: {same}", flush=True)
    return out, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the sets and the environment here as JSON")
    args = parser.parse_args()
    bm = load_benchmark()

    sets, ok = run_sets(bm)
    ok &= compare(bm, sets[0], sets[-1])
    counts, counts_ok = counts_repeat(bm)
    ok &= counts_ok

    if args.out:
        workload = bm["workloads"][0]["name"]
        detail = os.path.join(HERE, "results", f"{workload}-seed{FIRST_SEED}-trace0.json")
        with open(detail, encoding="utf-8") as handle:
            environment = json.load(handle)["environment"]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment, "seconds": bm["run_seconds"], "seeds": list(SEEDS),
                       "passed": ok, "sets": sets, "counts": counts}, handle, indent=2)
            handle.write("\n")
    print(f"# {'all within bounds' if ok else 'NOT within bounds'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
