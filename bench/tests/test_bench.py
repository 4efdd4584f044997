"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracer_mod
from tracer import COUNTS, SPANS, Tracer, genprob_namespaces, resolve
from workloads import WORKLOADS

CHEAP_COMMANDS = [
    ("analyze", "--group", "S4", "--class", "soluble"),
    ("graph", "--group", "A5", "--class", "soluble", "--workers", "2"),
    ("tower", "dihedral", "--prime", "3", "--levels", "3", "--class", "nilpotent"),
]


@pytest.fixture
def installed():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_no_module_keeps_an_unwrapped_traced_function(installed):
    originals = installed.originals
    targets = [*COUNTS.values(), tracer_mod.PAIR_TEST, tracer_mod.ENUMERATE,
               tracer_mod.BUILD_GRAPH, *(t for ts in SPANS.values() for t in ts)]
    assert len(originals) == len(targets)
    left = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, namespace in genprob_namespaces()
        for attr, value in namespace.items()
        if any(value is f for f in originals)
    ]
    assert left == []
    # the import sites are covered, not only the defining modules
    import genprob.cli
    import genprob.graphs
    assert genprob.graphs.pair_in_group.__wrapped__ in installed.originals
    assert genprob.cli.prob_group.__wrapped__ in installed.originals


def test_uninstall_restores_every_original():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    originals = {id(f) for f in tracer.originals}
    for target in [*COUNTS.values(), tracer_mod.PAIR_TEST]:
        holder, attr = resolve(target)
        assert id(vars(holder)[attr]) in originals
    assert not any(
        hasattr(value, "__wrapped__") and id(value.__wrapped__) in originals
        for _, namespace in genprob_namespaces()
        for value in namespace.values()
    )


def run_cli(args, traced, tmp_path):
    if traced:
        argv = [sys.executable, str(run.BENCH / "traced_cli.py"), str(tmp_path / "t.json"), *args]
    else:
        argv = [sys.executable, "-m", "genprob.cli", *args]
    return subprocess.run(argv, capture_output=True, env=run.child_env(), cwd=run.ROOT)


@pytest.mark.parametrize("args", CHEAP_COMMANDS, ids=lambda a: "-".join(a[:3]))
def test_traced_stdout_is_byte_identical(args, tmp_path):
    plain = run_cli(args, traced=False, tmp_path=tmp_path)
    traced = run_cli(args, traced=True, tmp_path=tmp_path)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    assert json.loads((tmp_path / "t.json").read_text())["spans"]["cli.command"]["calls"] == 1


def test_traced_counts_repeat_and_match_the_seed_reference(tmp_path):
    run.WORK.mkdir(exist_ok=True)
    command = WORKLOADS["wreath-tower"].commands[1]
    reference = json.loads((run.REFERENCE / "counts.json").read_text())[command.key]
    summary = tmp_path / "t.json"
    counts = []
    for _ in range(2):
        argv = [sys.executable, str(run.BENCH / "traced_cli.py"), str(summary), *command.args]
        wall, code, out, usage = run.run_process(argv, run.child_env())
        assert code == 0
        traced = run.CommandRun(command, wall, 0.0, 0.0, code, out,
                                trace=json.loads(summary.read_text()))
        counts.append(run.command_counts(traced))
    assert counts[0] == counts[1] == reference


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_to_run_without_genprob_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert "no genprob sources" in result.stderr
