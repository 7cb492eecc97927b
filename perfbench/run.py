"""struveint benchmark: verify-mix, verify-edge, rhs-series and cli-grid.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports struveint from ``src/``
of that checkout and nowhere else, and exits with code 1 when it is
missing (code 2 when the benchmark cannot go on for another reason).
Every workload is a closed loop with one client: the next op starts
when the previous one has returned.  The ranges below are the design
ranges of the drawn cases; cases.py says how close to their ends the
draws come and pins the ends that matter.

    verify-mix   verify_case over seeded acceptance-style cases (both
                 variants, n = 1..3, a = 1, y in [0.5, 2], mu in
                 [0.5, 1.5], a complex-parameter class) plus the anchor
                 case theorem1 n = 1 y = 1.  The left side is > 95 % of
                 an op, so quadrature and struve_w gains show here.
    verify-edge  verify_case where the quadrature changes behaviour:
                 mu in [0.1, 0.3] and pinned mu = 0.1, lambda - mu ~ 0.3,
                 a = 1e2 and the pinned a = 1e4 defect, y in [10, 18]
                 (theorem1) or [10, 20] (theorem2) and both pinned at
                 y = 20, b = -1 or c = -1.
    rhs-series   right sides only: prefactor times lauricella_eval_full
                 for n = 1..4 (pinned at y = 8 for n = 1, 2), and
                 rhs_corollary 1..4, plus the pinned theorem1 n = 4
                 y = 4 case that exhausts the term budget.  No
                 quadrature and no struve_w.
    cli-grid     one op is a `struveint verify` subprocess over the
                 committed 40-case grid (grid40.json, case order shuffled
                 by the seed) with --jobs 2.

Before the timed window the benchmark computes mpmath references
(reference.py, a child process) and measures set-up.  Every op's output
is checked against the reference; an op fails when it raises, when
verify_case says it failed, or when its value misses the reference at
the op's tolerance.  Failures of ops that show a known defect
(cases.KNOWN_DEFECTS) are counted in ``failed``; any other failure, a
result that differs between two runs of the same op, or (traced) a work
count that does not repeat makes ``correct`` false.

--trace 0 prints the end-to-end metrics: setup_s (median of several
fresh interpreters that import struveint and run one warm-up op),
ops_per_s (correct ops per second of op time), op_p50_ms and
peak_rss_mb.  The three times are scaled by the host's speed, measured
with a calibration kernel all through the run (hostspeed.py): on a host
whose cores are shared with other tenants, core speed moves by up to 2x
within a run and from run to run.  The unscaled figures are printed
beside them and kept in the detail record.

--trace 1 runs the workload's ops both plain and traced (tracing.py)
and prints the per-layer metrics, unscaled; a layer the workload never
enters is measured on a fixed probe (the anchor verify op, the four
corollaries, or the CLI over grid40.json).

The last line of standard output is the result object; the lines before
it name every failing op and the environment, and the full detail (and,
traced, the spans) go to perfbench/results/.  baseline.json holds the
environment and the run-to-run spread of two sets of runs, measured
with `python3 perfbench/spread.py --out perfbench/baseline.json` when
the benchmark was defined.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
GRID = os.path.join(HERE, "grid40.json")


def _use_checkout_sources() -> None:
    """Put this checkout's src/ first on sys.path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "struveint", "__init__.py")):
        sys.exit(f"error: no struveint package under {SRC}")
    sys.path.insert(0, SRC)


_use_checkout_sources()

import numpy  # noqa: E402
import scipy  # noqa: E402
import struveint  # noqa: E402
import struveint.cli  # noqa: E402

import cases  # noqa: E402
import ops as opmod  # noqa: E402
from hostspeed import SpeedLog  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 3
CLI_JOBS = 2
CHILD_TIMEOUT_S = 150

# The anchor case as `struveint grid` writes it: the CLI set-up op.
ANCHOR_GRID_CASE = {"variant": "theorem1", "a": 1.0, "lambda": "2.0", "mu": "0.75", "b": "1.0",
                    "c": "1.0", "p": ["1.0"], "y": [1.0], "n": 1}

perf = time.perf_counter


class BenchError(Exception):
    """The benchmark itself cannot go on (no result is printed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], speed: SpeedLog) -> tuple[float, float, int, int]:
    """Run a child to completion while ``speed`` samples the host:
    (start, end, exit code, peak RSS in KiB)."""
    err_path = os.path.join(RESULTS, "child-stderr.txt")
    with open(err_path, "wb") as err, speed.sampling():
        t0 = perf()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = perf()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{argv[1:3]} ended by signal {-proc.returncode}")
    return t0, t1, proc.returncode, usage.ru_maxrss


def median_child_wall(argv: list[str], repeats: int) -> tuple[float, float]:
    """Median (scaled, raw) wall time of ``repeats`` runs of a child that
    must succeed."""
    speed = SpeedLog()
    spans = []
    for _ in range(repeats):
        t0, t1, code, _ = run_child(argv, speed)
        if code != 0:
            raise BenchError(f"{argv[1:3]} exited with {code}")
        spans.append((t0, t1))
    return (statistics.median(speed.scaled(t0, t1) for t0, t1 in spans),
            statistics.median(t1 - t0 for t0, t1 in spans))


def references(case_list: list[dict]) -> list[complex]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py")],
        input=json.dumps(case_list), capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"reference generation failed:\n{proc.stderr}")
    return [complex(re, im) for re, im in json.loads(proc.stdout)]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples)


def p90_ms(samples: list[float]) -> float:
    return 1e3 * statistics.quantiles(samples, n=10)[-1]


class Tally:
    """Outcome bookkeeping for the ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, dict] = {}
        self.fail_count = 0
        self.unexpected: list[str] = []
        self.defects_passing: set[str] = set()
        self._fingerprints: dict[str, str] = {}

    def record(self, op: dict, reason: str | None, fingerprint: str) -> None:
        self.attempted += 1
        name = op["name"]
        first = self._fingerprints.setdefault(name, fingerprint)
        if first != fingerprint:
            self.problem(f"{name}: result differs from its first run")
        if reason is None:
            if op["defect"]:
                self.defects_passing.add(name)
            return
        self.fail_count += 1
        entry = self.failures.setdefault(name, {"reason": reason, "defect": op["defect"], "count": 0})
        entry["count"] += 1
        if not op["defect"] and entry["count"] == 1:
            self.problem(f"{name}: {reason}")

    def problem(self, text: str) -> None:
        self.unexpected.append(text)


# ---------------------------------------------------------------- in-process


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, detail: dict) -> tuple[Tally, dict]:
    op_list = cases.draw(workload, seed)
    refs = references([op["case"] for op in op_list])
    built = [opmod.integral_case(op["case"]) for op in op_list]
    warm = cases.anchor_op("verify" if workload.startswith("verify") else "theorem")
    tally = Tally()

    if not trace:
        setup_s, detail["raw_setup_s"] = median_child_wall(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(warm)], SETUP_REPEATS)
    opmod.execute(warm, opmod.integral_case(warm["case"]))
    if trace:
        return tally, run_traced_inproc(op_list, built, refs, seconds, tally, detail)

    speed = SpeedLog()
    spans = []
    outcomes = []
    start = perf()
    while True:
        for op, case, ref in zip(op_list, built, refs):
            speed.sample_if_due()
            t0 = perf()
            result = opmod.execute(op, case)
            spans.append((t0, perf()))
            outcomes.append((op, result, ref))
        if perf() - start >= seconds:
            break
    speed.sample()

    for op, result, ref in outcomes:
        tally.record(op, opmod.check(op, result, ref), opmod.fingerprint(result))
    return tally, timed_metrics(tally, spans, speed, setup_s,
                                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, detail)


def timed_metrics(tally: Tally, spans, speed: SpeedLog, setup_s: float, peak_kb: int, detail: dict) -> dict:
    """End-to-end metrics from the timed ops' (start, end) spans.

    Times are scaled by the host speed measured around each op
    (hostspeed.py); ops_per_s counts correct ops per second of scaled op
    time.  The raw figures go into ``detail``.
    """
    scaled = [speed.scaled(t0, t1) for t0, t1 in spans]
    raw = [t1 - t0 for t0, t1 in spans]
    correct = tally.attempted - tally.fail_count
    detail["latency_samples"] = len(spans)
    if len(spans) >= 100:
        detail["op_p90_ms"] = p90_ms(scaled)
    detail["timed_s"] = spans[-1][1] - spans[0][0]
    detail["raw"] = {"ops_per_s": correct / sum(raw), "op_p50_ms": median_ms(raw)}
    detail["host_speed"] = speed.summary()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (correct / sum(scaled), "1/s"),
        "op_p50_ms": (median_ms(scaled), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MiB"),
    }


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def same_as_verify(out, rep) -> bool:
    """Traced decomposition and verify_case agree bit for bit."""
    if isinstance(out, struveint.StruveintError):
        return not rep.passed and rep.reason == str(out)
    lhs, rhs, panels, terms = out
    return (
        bits(lhs) == bits(rep.lhs)
        and bits(rhs) == bits(rep.rhs)
        and panels == rep.lhs_diag.get("panels_used")
        and terms == rep.rhs_diag.get("terms")
    )


class TracedRun:
    """Runs ops plain and traced side by side and keeps the sums."""

    def __init__(self, tally: Tally):
        self.trace = tracing.Trace()
        self.tally = tally
        self.totals = {kind: tracing.new_stats() for kind in ("verify", "theorem", "corollary")}
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.matches = True
        self.counts: dict[str, tuple] = {}
        self.first_stats: dict[str, dict] = {}

    def traced(self, op: dict, case):
        self.trace.new_op(op["name"])
        if op["kind"] == "verify":
            return tracing.traced_verify(case, self.trace)
        return tracing.traced_rhs(op, case, self.trace)

    def step(self, op: dict, case, totals: dict | None = None):
        """One op plain then traced; returns the plain result."""
        t0 = perf()
        result = opmod.execute(op, case)
        self.plain_s += perf() - t0
        out, st = self.traced(op, case)
        self.traced_s += st["wall_s"]
        if op["kind"] == "verify":
            if not same_as_verify(out, result):
                self.matches = False
                self.tally.problem(f"{op['name']}: traced decomposition differs from verify_case")
        elif opmod.fingerprint(out) != opmod.fingerprint(result):
            self.tally.problem(f"{op['name']}: traced right side differs from the plain one")
        self.check_counts(op["name"], st)
        self.first_stats.setdefault(op["name"], st)
        tracing.add_stats(totals if totals is not None else self.totals[op["kind"]], st)
        return result

    def check_counts(self, name: str, st: dict) -> None:
        counts = tracing.work_counts(st)
        first = self.counts.setdefault(name, counts)
        if first != counts:
            self.tally.problem(f"{name}: work counts {counts} differ from {first}")

    def repeat(self, op: dict, case) -> None:
        """Trace an op once more; its work counts must not change."""
        _, st = self.traced(op, case)
        self.check_counts(op["name"], st)

    def overhead(self) -> float:
        return (self.traced_s - self.plain_s) / self.plain_s

    def verify_probe(self) -> dict:
        """Traced anchor verify op, for workloads with no verify op."""
        op = cases.anchor_op()
        case = opmod.integral_case(op["case"])
        totals = tracing.new_stats()
        self.step(op, case, totals)
        self.repeat(op, case)
        return totals

    def corollary_probe(self) -> dict:
        """The four corollaries traced, for workloads with none."""
        totals = tracing.new_stats()
        for op in cases.corollary_probe_ops():
            case = opmod.integral_case(op["case"])
            self.step(op, case, totals)
        return totals

    def layer_metrics(self, verify: dict, corollary: dict, overhead: float) -> dict:
        every = tracing.new_stats()
        for kind_totals in self.totals.values():
            tracing.add_stats(every, kind_totals)
        metrics = {}
        metrics.update(tracing.struve_quad_metrics(verify))
        metrics.update(tracing.series_call_metrics(corollary))
        metrics.update(tracing.lauricella_metrics(every))
        metrics.update(tracing.share_metrics(verify))
        metrics["trace.matches_verify"] = (1.0 if self.matches else 0.0, "count")
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        return metrics

    def describe(self, detail: dict) -> None:
        """Per-op work counts and shares into the detail record."""
        per_op = {}
        for name, st in self.first_stats.items():
            row = {key: st[key] for key in tracing.WORK_COUNTS}
            row["wall_ms"] = 1e3 * st["wall_s"]
            if st["quad_calls"]:
                row.update({k: v for k, (v, _) in tracing.share_metrics(st).items()})
            per_op[name] = row
        detail["per_op"] = per_op

    def write_spans(self, detail: dict) -> None:
        name = f"spans-{detail['workload']}-seed{detail['seed']}.jsonl"
        with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
            for rec in self.trace.spans:
                handle.write(json.dumps(rec) + "\n")
        detail["spans_file"] = f"perfbench/results/{name}"


def run_traced_inproc(op_list, built, refs, seconds, tally: Tally, detail: dict) -> dict:
    run = TracedRun(tally)
    passes = 0
    start = perf()
    while True:
        for i, (op, case) in enumerate(zip(op_list, built)):
            result = run.step(op, case)
            tally.record(op, opmod.check(op, result, refs[i]), opmod.fingerprint(result))
        passes += 1
        if perf() - start >= seconds:
            break
    if passes == 1:
        for op, case in list(zip(op_list, built))[:2]:
            run.repeat(op, case)
    overhead = run.overhead()
    sources = {"verify": "workload", "corollary": "workload", "cli": "probe"}
    verify = run.totals["verify"]
    if not verify["ops"]:
        verify = run.verify_probe()
        sources["verify"] = "probe"
    corollary = run.totals["corollary"]
    if not corollary["ops"]:
        corollary = run.corollary_probe()
        sources["corollary"] = "probe"
    metrics = run.layer_metrics(verify, corollary, overhead)
    run.describe(detail)
    metrics.update(cli_probe(tally, detail))
    detail["traced_passes"] = passes
    detail["layer_sources"] = sources
    run.write_spans(detail)
    return metrics


# ----------------------------------------------------------------------- CLI


def load_grid() -> dict:
    with open(GRID, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)


class CliChecker:
    """Checks `struveint verify` reports against references and each other."""

    def __init__(self, grid_cases: list[dict], refs: list[complex], tally: Tally):
        self.grid_cases = grid_cases
        self.refs = refs
        self.tally = tally
        self.numeric: str | None = None

    def reason(self, code: int, report_path: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        total = len(self.grid_cases)
        if report["summary"]["passed"] != total:
            return f"summary.passed = {report['summary']['passed']} of {total}"
        report.pop("timestamp")
        for entry in report["cases"]:
            entry.pop("wall_clock_s")
        numeric = json.dumps(report, sort_keys=True)
        if self.numeric is None:
            self.numeric = numeric
        elif numeric != self.numeric:
            return "numeric fields differ from the first op's report"
        for i, entry in enumerate(report["cases"]):
            lhs = complex(entry["lhs"]["re"], entry["lhs"]["im"])
            err = abs(lhs - self.refs[i]) / abs(self.refs[i])
            if not err <= cases.VERIFY_TOL:
                return f"case {i}: lhs off the reference by {err:.3e}"
        return None


def cli_argv(grid_path: str, jobs: int, report_path: str, totals_path: str | None = None) -> list[str]:
    args = ["verify", grid_path, "--jobs", str(jobs), "--output", report_path]
    if totals_path:
        return [sys.executable, os.path.join(HERE, "cli_traced.py"), totals_path, *args]
    return [sys.executable, "-m", "struveint.cli", *args]


def cli_startup() -> float:
    return median_child_wall([sys.executable, "-m", "struveint.cli", "--version"], STARTUP_REPEATS)[1]


def traced_cli_op(grid_path: str, jobs: int, checker: CliChecker) -> tuple[float, float, str | None]:
    """(wall s, parse + serialize s, failure reason) of one traced CLI run."""
    report_path = os.path.join(RESULTS, "cli-report.json")
    totals_path = os.path.join(RESULTS, "cli-totals.json")
    t0, t1, code, _ = run_child(cli_argv(grid_path, jobs, report_path, totals_path), SpeedLog())
    wall = t1 - t0
    reason = checker.reason(code, report_path)
    if reason is not None:
        return wall, float("nan"), reason
    with open(totals_path, encoding="utf-8") as handle:
        return wall, sum(json.load(handle).values()), None


def grid_checker(grid: dict, tally: Tally) -> CliChecker:
    """Checker for reports over ``grid``, with the cases' references."""
    grid_cases = [cases.from_grid(raw) for raw in grid["cases"]]
    return CliChecker(grid_cases, references(grid_cases), tally)


def traced_cli_runs(grid_path: str, checker: CliChecker, more, count_ops: bool, detail: dict) -> dict:
    """CLI layer metrics from traced runs that alternate --jobs 2 and
    --jobs 1 while ``more(k, walls)`` holds (k runs made so far).

    With ``count_ops`` each run is one of the workload's ops; otherwise a
    failing run is a problem of the benchmark.
    """
    walls = {1: [], CLI_JOBS: []}
    parse_serialize = []
    k = 0
    while more(k, walls):
        jobs = (CLI_JOBS, 1)[k % 2]
        k += 1
        wall, ps, reason = traced_cli_op(grid_path, jobs, checker)
        name = f"cli-verify-grid40-jobs{jobs}"
        if count_ops:
            checker.tally.record({"name": name, "defect": None}, reason, "")
        elif reason is not None:
            checker.tally.problem(f"probe-{name}: {reason}")
        walls[jobs].append(wall)
        parse_serialize.append(ps)
    detail["cli_walls_s"] = walls
    return {
        "cli.startup_s": (cli_startup(), "s"),
        "cli.parse_serialize_ms": (median_ms(parse_serialize), "ms"),
        "cli.jobs2_speedup": (statistics.median(walls[1]) / statistics.median(walls[CLI_JOBS]), "ratio"),
    }


def cli_probe(tally: Tally, detail: dict) -> dict:
    """CLI layer metrics over the committed grid, for non-CLI workloads."""
    checker = grid_checker(load_grid(), tally)
    return traced_cli_runs(GRID, checker, lambda k, walls: k < 4, False, detail)


def run_cli(seed: int, seconds: float, trace: bool, detail: dict) -> tuple[Tally, dict]:
    grid = load_grid()
    random.Random(f"cli-grid:{seed}").shuffle(grid["cases"])
    grid_path = os.path.join(RESULTS, f"grid-seed{seed}.json")
    write_json(grid_path, grid)
    tally = Tally()
    checker = grid_checker(grid, tally)
    op = {"name": "cli-verify-grid40", "defect": None}

    if trace:
        return tally, run_traced_cli(grid, grid_path, checker, seconds, detail)

    setup_path = os.path.join(RESULTS, "setup-case.json")
    write_json(setup_path, {"cases": [ANCHOR_GRID_CASE]})
    setup_s, detail["raw_setup_s"] = median_child_wall(
        cli_argv(setup_path, CLI_JOBS, os.path.join(RESULTS, "setup-report.json")), SETUP_REPEATS)

    report_path = os.path.join(RESULTS, "cli-report.json")
    speed = SpeedLog()
    spans = []
    peak_kb = 0
    start = perf()
    while perf() - start < seconds:
        t0, t1, code, rss_kb = run_child(cli_argv(grid_path, CLI_JOBS, report_path), speed)
        tally.record(op, checker.reason(code, report_path), "")
        spans.append((t0, t1))
        peak_kb = max(peak_kb, rss_kb)
    return tally, timed_metrics(tally, spans, speed, setup_s, peak_kb, detail)


def run_traced_cli(grid: dict, grid_path: str, checker: CliChecker, seconds: float, detail: dict) -> dict:
    tally = checker.tally
    start = perf()
    metrics = traced_cli_runs(
        grid_path, checker,
        lambda k, walls: perf() - start < seconds or not (walls[1] and walls[CLI_JOBS]),
        True, detail)

    # The layers below the CLI, traced in-process over the same cases
    # as the CLI parses them.
    run = TracedRun(tally)
    built = [struveint.cli.case_from_dict(raw, i) for i, raw in enumerate(grid["cases"])]
    grid_ops = [{"name": f"grid-case-{i}", "kind": "verify", "tol": cases.VERIFY_TOL}
                for i in range(len(built))]
    for op, case in zip(grid_ops, built):
        run.step(op, case)
    for op, case in list(zip(grid_ops, built))[:2]:
        run.repeat(op, case)
    overhead = run.overhead()
    metrics.update(run.layer_metrics(run.totals["verify"], run.corollary_probe(), overhead))
    run.describe(detail)
    detail["layer_sources"] = {"verify": "workload, in-process", "corollary": "probe", "cli": "workload"}
    run.write_spans(detail)
    return metrics


# ---------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="struveint benchmark")
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if os.path.dirname(os.path.dirname(os.path.abspath(struveint.__file__))) != SRC:
            raise BenchError(f"struveint imported from {struveint.__file__}, not from {SRC}")
        os.makedirs(RESULTS, exist_ok=True)
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if args.workload == "cli-grid":
            tally, metrics = run_cli(args.seed, args.seconds, bool(args.trace), detail)
        else:
            tally, metrics = run_inproc(args.workload, args.seed, args.seconds, bool(args.trace), detail)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    detail["attempted"] = tally.attempted
    detail["failed"] = tally.fail_count
    detail["failed_frac"] = tally.fail_count / tally.attempted
    detail["failures"] = tally.failures
    detail["known_defects_passing"] = sorted(tally.defects_passing)
    detail["problems"] = tally.unexpected
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_json(os.path.join(RESULTS, name), detail)

    env = detail["environment"]
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}")
    print(f"# {args.workload} seed {args.seed}: {tally.attempted} ops, {tally.fail_count} failed "
          f"(failed_frac {detail['failed_frac']:.4f})")
    for op_name, entry in sorted(tally.failures.items()):
        tag = f"known defect {entry['defect']}" if entry["defect"] else "UNEXPECTED"
        print(f"# failed x{entry['count']}: {op_name} [{tag}]: {entry['reason']}")
    for defect in sorted({e["defect"] for e in tally.failures.values() if e["defect"]}):
        print(f"# known defect {defect}: {cases.KNOWN_DEFECTS[defect]}")
    for op_name in detail["known_defects_passing"]:
        print(f"# known defect no longer shows: {op_name}")
    for text in tally.unexpected:
        print(f"# problem: {text}")
    anchor = detail.get("per_op", {}).get(cases.anchor_op()["name"])
    if anchor:
        print("# " + cases.anchor_op()["name"] + ": " + ", ".join(f"{k} {v:.6g}" for k, v in anchor.items()))
    if "op_p90_ms" in detail:
        print(f"# op_p90_ms {detail['op_p90_ms']:.3f} over {detail['latency_samples']} ops")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    if "raw" in detail:
        print(f"# unscaled: ops_per_s {detail['raw']['ops_per_s']:.6g} 1/s, op_p50_ms "
              f"{detail['raw']['op_p50_ms']:.6g} ms, setup_s {detail['raw_setup_s']:.6g} s; "
              f"kernel ms min/median/max " + "/".join(
                  f"{detail['host_speed'][k]:.4g}" for k in ("kernel_ms_min", "kernel_ms_median", "kernel_ms_max")))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.fail_count,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
