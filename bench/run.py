#!/usr/bin/env python3
"""Run one genprob benchmark workload and print its metrics.

    python3 bench/run.py --workload soluble-rows --seed 0 --seconds 40 --trace 0

Run from anywhere; the genprob sources are taken from ``src/`` next to this
directory, and scratch files go to ``.bench-work/`` there.

``--trace 0`` times the workload: it measures ``setup_s`` over several fresh
interpreters, then runs passes over the workload's commands, and reports the
median pass.  ``--trace 1`` runs one untraced pass, then traced passes, and
reports the per-layer metrics of the median traced pass.  Either way at least
one pass runs, and another starts only if it should end within ``--seconds``
of the first, judged by the slowest pass so far.  Every command's output is
checked against ``reference/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric by name and unit, and a run record is written to ``.bench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SEED_FREE_FIELDS, WORKLOADS, Command, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
REFERENCE = BENCH / "reference"

SETUP_REPEATS = 11
# the whole run must end well inside the three minutes a run is allowed
DEADLINE_S = 170

# The box shares its cores: CPU speed moves by up to 1.6x within a second and
# stays low or high for minutes, so raw seconds spread 15-30 % between runs.
# A fixed job, timed before every command and after the last one, measures
# that speed; wall_cal and cpu_cal are pass times over its mean (see README.md).
CALIBRATION_ROUNDS = 100_000
# setup_s is in seconds at the speed where the calibration job takes this long
CALIBRATION_REFERENCE_S = 0.2

END_TO_END_UNITS = {"wall_cal": "ratio", "cpu_cal": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# printed, but not part of the result line (see README.md): raw pass times,
# the calibration time, and per-command timings of the workloads that have
# the command
REPORT_UNITS = {
    "wall_s": "s", "cpu_s": "s", "calibration_s": "s", "setup_raw_s": "s",
    **dict.fromkeys(("analyze_s", "warm_analyze_s", "graph_s", "wreath_s", "tower_s"), "s"),
}

# per-layer metric -> (unit, source, key).  Sources: "count" is a call
# counter, "calls" the number of spans of a name, "self" their self time,
# "total" their inclusive time; "derived" metrics are computed below.
PER_LAYER = {
    "perm.mul_calls": ("count", "count", "perm.mul_calls"),
    "perm.Permutation.mul_calls": ("count", "count", "perm.Permutation.mul_calls"),
    "group.chain_builds": ("count", "calls", "group.chain"),
    "group.chain_s": ("s", "self", "group.chain"),
    "group.enumerate_s": ("s", "self", "group.enumerate"),
    "group.conjugacy_s": ("s", "self", "group.conjugacy"),
    "group.normal_closure_calls": ("count", "calls", "group.normal_closure"),
    "group.normal_closure_s": ("s", "self", "group.normal_closure"),
    "group.series_s": ("s", "self", "group.series"),
    "group.index_of_calls": ("count", "count", "group.index_of_calls"),
    "classes.pair_tests": ("count", "calls", "classes.pair"),
    "classes.pair_cache_misses": ("count", "count", "classes.pair_cache_misses"),
    "classes.pair_hit_ratio": ("ratio", "derived", None),
    "classes.pair_s": ("s", "self", "classes.pair"),
    "probability.omega_rows": ("count", "calls", "probability.omega"),
    "probability.omega_s": ("s", "self", "probability.omega"),
    "probability.prob_group_s": ("s", "self", "probability.prob_group"),
    "probability.omega_global_s": ("s", "self", "probability.omega_global"),
    "probability.identities_s": ("s", "self", "probability.identities"),
    "probability.oracle_s": ("s", "self", "probability.oracle"),
    "graphs.build_s": ("s", "self", "graphs.build"),
    "graphs.diameters_s": ("s", "self", "graphs.diameters"),
    "graphs.vertices": ("count", "count", "graphs.vertices"),
    "graphs.edges": ("count", "count", "graphs.edges"),
    "wreath.multiply_calls": ("count", "calls", "wreath.multiply"),
    "wreath.multiply_s": ("s", "self", "wreath.multiply"),
    "wreath.verify_s": ("s", "self", "wreath.verify"),
    "wreath.alpha_beta_s": ("s", "self", "wreath.alpha_beta"),
    "tower.build_s": ("s", "self", "tower.build"),
    "tower.sequence_s": ("s", "self", "tower.sequence"),
    "tower.verdict_s": ("s", "self", "tower.verdict"),
    "catalog.load_s": ("s", "self", "catalog.load"),
    "cli.command_s": ("s", "total", "cli.command"),
    "cli.start_s": ("s", "derived", None),
    "trace.overhead_ratio": ("ratio", "derived", None),
}
LAYER_UNITS = {m: unit for m, (unit, _, _) in PER_LAYER.items()}
# the exact counts a traced command must reproduce (reference/counts.json)
COUNT_METRICS = tuple(m for m, unit in LAYER_UNITS.items() if unit == "count")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class CommandRun:
    command: Command
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    problem: str | None = None      # why the output check failed
    trace: dict | None = None       # tracer summary of a traced run


@dataclass
class Pass:
    runs: list[CommandRun] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0          # the whole pass, calibration included

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # these would change the config echoed in every report
    env.pop("GENPROB_CAP", None)
    env.pop("GENPROB_PAIR_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict[str, str]) -> tuple[float, int, bytes, resource.struct_rusage]:
    """Run to completion; (wall seconds, exit code, stdout, the child's own
    resource usage from wait4)."""
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    return wall, proc.returncode, out, usage


def calibration_s() -> float:
    """Seconds for a fixed job shaped like genprob's inner loops: image-tuple
    products and dictionary lookups."""
    rng = random.Random(1)
    p, q = (tuple(rng.sample(range(16), 16)) for _ in range(2))
    seen: dict[tuple[int, ...], int] = {}
    x = p
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        x = tuple(map(q.__getitem__, x))
        if x not in seen:
            seen[x] = i
    return time.perf_counter() - start


def command_args(command: Command, seed: int, cache: Path) -> list[str]:
    return [a.format(seed=seed, cache=cache) for a in command.args]


def run_pass(workload: Workload, seed: int, env: dict[str, str], references: dict | None,
             traced: bool) -> Pass:
    """One pass over the workload's commands; outputs are checked unless
    ``references`` is None."""
    cache = WORK / "pairs.jsonl"
    cache.unlink(missing_ok=True)
    summary = WORK / "trace.json"
    result = Pass()
    start = time.perf_counter()
    for command in workload.commands:
        result.calibration_s.append(calibration_s())
        args = command_args(command, seed, cache)
        if traced:
            summary.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(summary), *args]
        else:
            argv = [sys.executable, "-m", "genprob.cli", *args]
        wall, code, out, usage = run_process(argv, env)
        run = CommandRun(command, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, code, out)
        if references is not None:
            run.problem = check_output(command, seed, code, out, references)
        if traced and summary.exists():
            run.trace = json.loads(summary.read_text())
        elif traced and run.problem is None:
            run.problem = "traced run wrote no trace summary"
        result.runs.append(run)
    result.calibration_s.append(calibration_s())
    result.elapsed_s = time.perf_counter() - start
    return result


def check_output(command: Command, seed: int, code: int, out: bytes, references: dict) -> str | None:
    """None when the exit code and stdout match the seed-commit reference."""
    ref = references[command.key]
    if code != ref["exit"]:
        return f"exit code {code}, expected {ref['exit']}"
    fields = SEED_FREE_FIELDS.get(command.key)
    if fields is None:
        digest = hashlib.sha256(out).hexdigest()
        return None if digest == ref["sha256"] else f"stdout sha256 {digest[:16]}, expected {ref['sha256'][:16]}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    got = {f: report.get(f) for f in fields}
    if got != ref["fields"]:
        return f"fields {got}, expected {ref['fields']}"
    if report.get("seed") != seed:
        return f"report seed {report.get('seed')}, expected {seed}"
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def pass_metrics(p: Pass) -> dict[str, float]:
    cpu_s = sum(r.cpu_s for r in p.runs)
    calibration = statistics.mean(p.calibration_s)
    metrics = {
        "wall_cal": p.wall_s / calibration,
        "cpu_cal": cpu_s / calibration,
        "peak_rss_mb": max(r.rss_mb for r in p.runs),
        "wall_s": p.wall_s,
        "cpu_s": cpu_s,
        "calibration_s": calibration,
    }
    for r in p.runs:
        metrics[r.command.metric] = metrics.get(r.command.metric, 0.0) + r.wall_s
    return metrics


def layer_metrics(p: Pass, untraced_wall_s: float) -> dict[str, float]:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for r in p.runs:
        for name, s in r.trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in total:
                total[k] += s[k]
        for name, n in r.trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    source = {"count": lambda k: counts[k],
              "calls": lambda k: spans.get(k, empty)["calls"],
              "self": lambda k: spans.get(k, empty)["self_s"],
              "total": lambda k: spans.get(k, empty)["total_s"]}
    metrics = {m: source[src](key) for m, (_, src, key) in PER_LAYER.items() if src != "derived"}
    tests = metrics["classes.pair_tests"]
    metrics["classes.pair_hit_ratio"] = (
        (tests - metrics["classes.pair_cache_misses"]) / tests if tests else 0.0
    )
    metrics["cli.start_s"] = p.wall_s - metrics["cli.command_s"]
    metrics["trace.overhead_ratio"] = p.wall_s / untraced_wall_s
    return {m: metrics[m] for m in PER_LAYER}


def command_counts(run: CommandRun) -> dict[str, int]:
    """The exact counts of one traced command."""
    return {m: v for m, v in layer_metrics(Pass([run]), run.wall_s).items() if m in COUNT_METRICS}


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def time_setup(workload: Workload, env: dict[str, str]) -> tuple[float, float]:
    """(seconds, seconds at the reference speed) for one set-up, scaled by the
    calibration job timed just before it."""
    calibration = calibration_s()
    wall, code, _, _ = run_process([sys.executable, "-c", workload.setup_code], env)
    if code != 0:
        raise BenchError(f"setup failed with exit code {code}: "
                         f"{(WORK / 'stderr.txt').read_text().strip()[-500:]}")
    return wall, wall * CALIBRATION_REFERENCE_S / calibration


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def failures(runs: list[CommandRun]) -> list[str]:
    return [f"{r.command.key}: {r.problem}" for r in runs if r.problem]


def another_pass(passes: list[Pass], start: float, seconds: int) -> bool:
    """True until the next pass would likely end past ``seconds``."""
    if not passes:
        return True
    slowest = max(p.elapsed_s for p in passes)
    return time.perf_counter() - start + slowest <= seconds


def timed_run(workload: Workload, seed: int, seconds: int, env: dict, references: dict) -> dict:
    setup = [time_setup(workload, env) for _ in range(SETUP_REPEATS)]
    passes: list[Pass] = []
    start = time.perf_counter()
    while another_pass(passes, start, seconds):
        passes.append(run_pass(workload, seed, env, references, traced=False))
    per_pass = [pass_metrics(p) for p in passes]
    metrics = median_of(per_pass)
    metrics["setup_raw_s"] = statistics.median(raw for raw, _ in setup)
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
    return {"passes": per_pass, "setup": setup, "metrics": metrics, "runs": passes}


def traced_run(workload: Workload, seed: int, seconds: int, env: dict, references: dict) -> dict:
    start = time.perf_counter()
    baseline = run_pass(workload, seed, env, references, traced=False)
    traced: list[Pass] = []
    while another_pass(traced, start, seconds):
        traced.append(run_pass(workload, seed, env, references, traced=True))
    for p in traced:
        for plain, run in zip(baseline.runs, p.runs):
            if run.problem is None and run.stdout != plain.stdout:
                run.problem = "traced stdout differs from untraced stdout"
    per_pass = [layer_metrics(p, baseline.wall_s) for p in traced if not failures(p.runs)]
    if not per_pass:
        per_pass = [dict.fromkeys(PER_LAYER, 0.0)]
    counts = [{r.command.key: command_counts(r) for r in p.runs if r.trace} for p in traced]
    notes = []
    if any(c != counts[0] for c in counts):
        notes.append("traced passes disagree on counts")
    notes += compare_counts(counts[0])
    # counts are exact: report the first pass's, which the others must equal
    metrics = {**median_of(per_pass), **{m: per_pass[0][m] for m in COUNT_METRICS}}
    return {"passes": per_pass, "counts": counts[0], "count_notes": notes,
            "metrics": metrics, "runs": [baseline, *traced]}


def compare_counts(counts: dict[str, dict[str, int]]) -> list[str]:
    """Differences from the counts recorded at the seed commit."""
    reference = json.loads((REFERENCE / "counts.json").read_text())
    notes = []
    for key, got in counts.items():
        want = reference[key]
        for metric in COUNT_METRICS:
            if got[metric] != want[metric]:
                notes.append(f"{key}: {metric} = {got[metric]}, seed commit {want[metric]}")
    return notes


def print_report(workload: Workload, outcome: dict, trace: bool) -> None:
    passes = outcome["passes"]
    print(f"workload {workload.name}: {len(passes)} pass(es), medians below")
    units = LAYER_UNITS if trace else {**END_TO_END_UNITS, **REPORT_UNITS}
    for name, value in outcome["metrics"].items():
        print(f"  {name:30s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':30s} {outcome['fail_ratio']:14.6f} ratio")
    for problem in outcome["failures"]:
        print(f"  FAILED {problem}")
    if trace:
        notes = outcome["count_notes"]
        print("  counts match the seed-commit reference" if not notes else "  count differences:")
        for note in notes:
            print(f"    {note}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Stopped(Exception):
    """A deadline or a termination signal; the running command is killed."""


def stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"run exceeded {DEADLINE_S} s")
    raise Stopped(f"stopped by {signal.Signals(signum).name}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "genprob" / "cli.py").is_file():
        raise BenchError(f"no genprob sources at {SRC}; run inside a genprob checkout")
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(DEADLINE_S)

    env = child_env()
    references = json.loads((REFERENCE / "outputs.json").read_text())
    run = traced_run if args.trace else timed_run
    outcome = run(workload, args.seed, args.seconds, env, references)
    signal.alarm(0)

    runs = [r for p in outcome.pop("runs") for r in p.runs]
    outcome["failures"] = failures(runs)
    attempted, failed = len(runs), sum(1 for r in runs if r.problem)
    outcome["fail_ratio"] = failed / attempted
    print_report(workload, outcome, bool(args.trace))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **outcome,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{record['time']}-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {path.relative_to(ROOT)}: nproc={record['nproc']} "
          f"python={record['python']} git_sha={record['git_sha']} seed={args.seed}")

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": outcome["metrics"][m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, Stopped) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(2)
