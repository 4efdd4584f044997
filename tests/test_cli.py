import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import genprob.cli
from genprob import __version__
from genprob.catalog import load
from genprob.classes import BUILTIN_CLASSES
from genprob.cli import main
from genprob.probability import IdentityReport


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result, json.loads(result.output) if result.output.startswith("{") else None


class TestAnalyze:
    def test_s3_nilpotent(self, runner):
        result, report = run_json(runner, ["analyze", "--group", "S3", "--class", "nilpotent"])
        assert result.exit_code == 0
        assert report["prob_group"] == {"num": 1, "den": 2}
        assert report["version"] == __version__
        assert report["passed"] is True
        assert report["config"]["class"] == "nilpotent"

    def test_a5_soluble_core_is_trivial(self, runner):
        result, report = run_json(runner, ["analyze", "--group", "A5", "--class", "soluble"])
        assert result.exit_code == 0
        assert report["omega_global_size"] == 1

    def test_s4_abelian_center_trivial(self, runner):
        result, report = run_json(runner, ["analyze", "--group", "S4", "--class", "abelian"])
        assert result.exit_code == 0
        assert report["omega_global_size"] == 1
        assert report["identities"]["center"] is True

    def test_spec_file_source(self, runner, tmp_path):
        spec = tmp_path / "v4.grp"
        spec.write_text("degree 4\n(1,2)(3,4)\n(1,3)(2,4)\n")
        result, report = run_json(
            runner, ["analyze", "--group", str(spec), "--class", "abelian"]
        )
        assert result.exit_code == 0
        assert report["group_order"] == 4
        assert report["prob_group"] == {"num": 1, "den": 1}

    def test_parse_error_has_line_number(self, runner, tmp_path):
        spec = tmp_path / "bad.grp"
        spec.write_text("degree 4\n(1,9)\n")
        result = runner.invoke(main, ["analyze", "--group", str(spec), "--class", "abelian"])
        assert result.exit_code != 0
        assert "line 2" in str(result.exception)

    def test_pair_budget_enforced(self, runner):
        result = runner.invoke(
            main,
            ["analyze", "--group", "S5", "--class", "abelian", "--pair-budget", "100"],
        )
        assert result.exit_code != 0
        assert "pair budget" in result.output

    def test_cache_roundtrip(self, runner, tmp_path):
        # insoluble group: the pair tests actually run and populate the cache
        cache = tmp_path / "pairs.jsonl"
        args = ["analyze", "--group", "A5", "--class", "soluble", "--cache", str(cache)]
        r1, report1 = run_json(runner, args)
        assert r1.exit_code == 0
        assert cache.exists() and cache.read_text().count("\n") > 0
        r2, report2 = run_json(runner, args)
        assert report1 == report2

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["analyze", "--group", "S3", "--class", "soluble", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "key,value"


class TestRowStore:
    def test_psl27_soluble_builds_few_chains(self, runner, chain_builds):
        # one chain per relabelled orbit restriction, not one per pair of
        # the exhaustive loop: 94 chains, where one per pair built 13 622
        result = runner.invoke(main, ["analyze", "--group", "PSL27", "--class", "soluble"])
        assert result.exit_code == 0
        assert 0 < len(chain_builds) < 200

    def test_analyze_computes_each_row_once(self, runner, pair_row_calls):
        # per-representative probabilities, the class-reduced prob_group and
        # omega_global used to ask for each row twice: 26 pair_row calls
        result = runner.invoke(main, ["analyze", "--group", "S6", "--class", "soluble"])
        assert result.exit_code == 0
        calls = pair_row_calls
        assert len(calls) == len(set(calls)) == len(load("S6").conjugacy_classes()) == 11

    def test_graph_computes_one_row_per_vertex_class(self, runner, pair_row_calls):
        result = runner.invoke(main, ["graph", "--group", "A5", "--class", "soluble"])
        assert result.exit_code == 0
        # every non-identity class of A5 holds vertices
        assert len(pair_row_calls) == len(set(pair_row_calls)) == 4


class TestGraph:
    def test_a5_soluble(self, runner):
        result, report = run_json(runner, ["graph", "--group", "A5", "--class", "soluble"])
        assert result.exit_code == 0
        assert report["connected"] is True
        assert report["bounds"]["diameter_le_5"] is True

    def test_s4_soluble_empty(self, runner):
        result, report = run_json(runner, ["graph", "--group", "S4", "--class", "soluble"])
        assert result.exit_code == 0
        assert report["empty"] is True
        assert report["vertices"] == 0

    def test_s5_nilpotent_bound(self, runner):
        result, report = run_json(runner, ["graph", "--group", "S5", "--class", "nilpotent"])
        assert result.exit_code == 0
        assert report["bounds"]["component_diameters_le_10"] is True

    def test_dot_output(self, runner, tmp_path):
        dot = tmp_path / "g.dot"
        result, _ = run_json(
            runner,
            ["graph", "--group", "A5", "--class", "soluble", "--dot", str(dot)],
        )
        assert result.exit_code == 0
        assert dot.read_text().startswith("graph")

    def test_dot_gated_by_vertex_limit(self, runner, tmp_path):
        dot = tmp_path / "g.dot"
        result = runner.invoke(
            main, ["graph", "--group", "S6", "--class", "nilpotent", "--dot", str(dot)]
        )
        assert result.exit_code != 0
        assert not dot.exists()


class TestPairCacheFile:
    """The ``--cache`` file: keys as the pair test reads them, checked
    records, and a write that cannot leave a half-written file."""

    ARGS = ["analyze", "--group", "A5", "--class", "soluble", "--cache"]

    def records(self, cache):
        return [json.loads(line) for line in cache.read_text().splitlines()]

    def write(self, cache, records):
        cache.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    def cold(self, runner, tmp_path):
        cache = tmp_path / "pairs.jsonl"
        assert runner.invoke(main, self.ARGS + [str(cache)]).exit_code == 0
        return cache

    def refused(self, runner, cache):
        result = runner.invoke(main, self.ARGS + [str(cache)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")
        return result.stderr

    def test_reversed_pair_is_read(self, runner, tmp_path):
        cache = self.cold(runner, tmp_path)
        record = next(r for r in reversed(self.records(cache)) if r["pair"][0] != r["pair"][1])
        pair = sorted(record["pair"])
        self.write(cache, [dict(record, pair=pair[::-1])])
        assert runner.invoke(main, self.ARGS + [str(cache)]).exit_code == 0
        stored = [sorted(r["pair"]) for r in self.records(cache)]
        assert stored.count(pair) == 1

    def test_flipped_result(self, runner, tmp_path):
        cache = self.cold(runner, tmp_path)
        records = self.records(cache)
        records[0]["result"] = not records[0]["result"]
        self.write(cache, records)
        assert "line 1: result" in self.refused(runner, cache)

    def test_two_results_for_one_pair(self, runner, tmp_path):
        cache = self.cold(runner, tmp_path)
        record = self.records(cache)[-1]
        flipped = dict(record, pair=record["pair"][::-1], result=not record["result"])
        self.write(cache, [record, flipped])
        assert "line 2" in self.refused(runner, cache)

    def test_pair_outside_the_group(self, runner, tmp_path):
        cache = tmp_path / "pairs.jsonl"
        self.write(cache, [{"group": load("A5").cache_key, "class": "soluble",
                            "pair": [[1, 0, 2, 3, 4], [1, 2, 0, 3, 4]], "result": True}])
        assert "not in the group" in self.refused(runner, cache)

    def test_records_carry_format_and_version(self, runner, tmp_path):
        records = self.records(self.cold(runner, tmp_path))
        assert {(r["format"], r["version"]) for r in records} == {(1, __version__)}

    def test_record_without_format_is_read(self, runner, tmp_path):
        # files written before the format field stay valid
        cache = self.cold(runner, tmp_path)
        records = self.records(cache)
        old = [{k: v for k, v in r.items() if k not in ("format", "version")}
               for r in records]
        self.write(cache, old)
        result = runner.invoke(main, self.ARGS + [str(cache)])
        assert result.exit_code == 0
        assert self.records(cache) == records

    @pytest.mark.parametrize("fmt", [2, 0, "1", True, None])
    def test_other_format_is_refused(self, runner, tmp_path, fmt):
        cache = self.cold(runner, tmp_path)
        records = self.records(cache)
        records[1]["format"] = fmt
        self.write(cache, records)
        assert "line 2: format" in self.refused(runner, cache)

    def test_failed_write_keeps_the_old_file(self, runner, tmp_path, monkeypatch):
        cache = self.cold(runner, tmp_path)
        self.write(cache, self.records(cache)[:3])
        before = cache.read_bytes()
        calls = []
        dumps = json.dumps

        def failing_dumps(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise OSError("No space left on device")
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        assert "cannot write pair cache" in self.refused(runner, cache)
        monkeypatch.undo()
        assert len(calls) == 2
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [cache.name]

    def test_cold_s6_file_is_small(self, runner, tmp_path):
        # one record per orbit and one per identity-class test: 218 records;
        # the identity tested against every element would leave 927
        cache = tmp_path / "pairs.jsonl"
        args = ["analyze", "--group", "S6", "--class", "soluble", "--cache", str(cache)]
        assert runner.invoke(main, args).exit_code == 0
        assert len(self.records(cache)) < 300

    def test_full_row_file_gives_the_same_report(self, runner, tmp_path):
        # the cache a per-element Omega(x) loop leaves: every (rep, g) pair
        from genprob.classes import SOLUBLE, pair_in_group
        from genprob.cli import _save_pair_cache

        G = load("A5")
        for rep, _ in G.conjugacy_classes():
            for g in G.element_tuples():
                pair_in_group(SOLUBLE, G, rep.images, g)
        cache = tmp_path / "pairs.jsonl"
        _save_pair_cache(G, "soluble", cache)
        full_rows = cache.read_text().splitlines()
        plain = runner.invoke(main, self.ARGS[:-1])
        warm = runner.invoke(main, self.ARGS + [str(cache)])
        assert plain.exit_code == warm.exit_code == 0
        assert warm.stdout == plain.stdout
        assert set(full_rows) <= set(cache.read_text().splitlines())


class TestInputErrors:
    """Bad input exits 2 with one line on stderr; exit 1 means a failed check."""

    def refused(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")
        return result.stderr

    def analyze(self, runner, group):
        return self.refused(runner, ["analyze", "--group", group, "--class", "abelian"])

    def test_unknown_group_name(self, runner):
        assert "nosuch" in self.analyze(runner, "nosuch")

    def test_directory_as_group(self, runner, tmp_path):
        assert "Is a directory" in self.analyze(runner, str(tmp_path))

    def test_malformed_group_file(self, runner, tmp_path):
        spec = tmp_path / "bad.grp"
        spec.write_text("degree 4\n(1,2,\n")
        assert "line 2" in self.analyze(runner, str(spec))

    def analyze_cache(self, runner, cache):
        return self.refused(
            runner, ["analyze", "--group", "S3", "--class", "soluble", "--cache", str(cache)])

    def test_malformed_cache_line(self, runner, tmp_path):
        cache = tmp_path / "pairs.jsonl"
        cache.write_text("{not json\n")
        assert "line 1" in self.analyze_cache(runner, cache)

    def test_directory_as_cache(self, runner, tmp_path):
        assert "Is a directory" in self.analyze_cache(runner, tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("result", None, "a record needs the keys"),  # None drops the key
        ("result", 1, "result is not true or false"),
        ("pair", [[0, 1, 2], [1, 1, 0]], "pair is not"),
        ("pair", [[0, 1, 2, 3], [1, 0, 2, 3]], "pair is not"),
        ("pair", [[0.0, 1, 2], [1, 2, 0]], "cannot be interpreted as an integer"),
    ], ids=["missing-key", "result-not-bool", "not-a-permutation", "wrong-degree",
            "float-point"])
    def test_bad_cache_record(self, runner, tmp_path, key, value, message):
        record = {"class": "soluble", "group": load("S3").cache_key,
                  "pair": [[0, 1, 2], [1, 2, 0]], "result": True}
        if value is None:
            del record[key]
        else:
            record[key] = value
        cache = tmp_path / "pairs.jsonl"
        cache.write_text(json.dumps(record) + "\n")
        assert message in self.analyze_cache(runner, cache)

    def test_unwritable_cache(self, runner, tmp_path):
        cache = tmp_path / "missing-dir" / "pairs.jsonl"
        assert "cannot write pair cache" in self.analyze_cache(runner, cache)

    def graph_dot(self, runner, dot):
        return self.refused(
            runner, ["graph", "--group", "A5", "--class", "soluble", "--dot", str(dot)])

    def test_directory_as_dot(self, runner, tmp_path):
        assert "cannot write DOT file" in self.graph_dot(runner, tmp_path)

    def test_dot_in_missing_directory(self, runner, tmp_path):
        dot = tmp_path / "missing-dir" / "g.dot"
        assert "cannot write DOT file" in self.graph_dot(runner, dot)

    def refused_usage(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert "Error: " in result.stderr
        return result.stderr

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one(self, runner, samples):
        # zero samples would report a pass that checked no conjugation
        assert "--samples" in self.refused_usage(
            runner, ["wreath", "verify", "--samples", samples])

    def test_levels_below_one(self, runner):
        assert "--levels" in self.refused_usage(
            runner, ["tower", "dihedral", "--prime", "3", "--levels", "0",
                     "--class", "nilpotent"])

    @pytest.mark.parametrize("command", [
        ["analyze", "--group", "S4"],
        ["graph", "--group", "S4"],
        ["tower", "dihedral", "--prime", "3", "--levels", "2"],
    ], ids=["analyze", "graph", "tower"])
    def test_unknown_class_names_every_builtin(self, runner, command):
        stderr = self.refused_usage(runner, [*command, "--class", "bogus"])
        assert "--class" in stderr
        for name in BUILTIN_CLASSES:
            assert repr(name) in stderr


class TestFailedCheck:
    """A check that fails prints the report with ``"passed": false`` and
    exits 1."""

    def failed(self, runner, args):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 1
        assert '"passed": false' in result.stdout
        return json.loads(result.stdout)

    def test_graph_diameter_bound(self, runner, monkeypatch):
        monkeypatch.setattr(genprob.cli, "SOLUBLE_CONNECTED_DIAMETER_BOUND", 0)
        report = self.failed(runner, ["graph", "--group", "A5", "--class", "soluble"])
        assert report["bounds"] == {"connected": True, "diameter_le_5": False}

    def test_selftest_graph_bound(self, runner, monkeypatch):
        monkeypatch.setattr(genprob.cli, "SOLUBLE_CONNECTED_DIAMETER_BOUND", 0)
        report = self.failed(runner, ["selftest", "--seed", "0"])
        assert report["soluble_graph_A5"]["passed"] is False
        assert all(check["passed"] for check in report["checks"])

    def test_analyze_identity(self, runner, monkeypatch):
        monkeypatch.setattr(genprob.cli, "verify_identities",
                            lambda G: IdentityReport(G.name, {"center": False}))
        report = self.failed(runner, ["analyze", "--group", "S4", "--class", "abelian"])
        assert report["identities"] == {"center": False}


class TestWreathAndTower:
    def test_wreath_verify(self, runner):
        result, report = run_json(runner, ["wreath", "verify", "--samples", "5", "--seed", "0"])
        assert result.exit_code == 0
        assert report["passed"] is True
        assert report["alpha_beta_checks"] == 60
        assert report["order_g1"] == 45
        assert report["order_h1"] == 15
        assert report["seed"] == 0

    def test_tower_dihedral(self, runner):
        result, report = run_json(
            runner,
            ["tower", "dihedral", "--prime", "3", "--levels", "4",
             "--class", "nilpotent", "--track", "x"],
        )
        assert result.exit_code == 0
        assert [lvl["probability"] for lvl in report["levels"]] == [
            {"num": 1, "den": 3}, {"num": 1, "den": 9},
            {"num": 1, "den": 27}, {"num": 1, "den": 81},
        ]
        assert report["monotone"] is True
        assert report["inf_upper_bound"] == {"num": 1, "den": 81}
        assert "not nilpotent-positive" in report["verdict"]

    def test_tower_soluble_constant_one(self, runner):
        result, report = run_json(
            runner,
            ["tower", "dihedral", "--prime", "3", "--levels", "4",
             "--class", "soluble", "--track", "x"],
        )
        assert result.exit_code == 0
        assert all(lvl["probability"] == {"num": 1, "den": 1} for lvl in report["levels"])
        assert report["verdict"] == "virtually prosoluble"


class TestCatalogListAndSelftest:
    def test_catalog_list(self, runner):
        result, report = run_json(runner, ["catalog-list"])
        assert result.exit_code == 0
        assert any(e["name"] == "PSL27" for e in report["entries"])

    def test_selftest_deterministic_across_workers(self, runner):
        outputs = []
        for workers in ("1", "3"):
            result = runner.invoke(
                main, ["selftest", "--seed", "7", "--workers", workers],
                catch_exceptions=False,
            )
            assert result.exit_code == 0
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

    def test_selftest_embeds_seed_and_version(self, runner):
        result, report = run_json(runner, ["selftest", "--seed", "5"])
        assert report["seed"] == 5
        assert report["version"] == __version__
        assert report["passed"] is True


def test_cli_import_leaves_graphs_tower_and_wreath_unloaded():
    # each is imported by the subcommands that use it, so analyze never
    # loads them
    src = str(Path(genprob.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, genprob.cli; print(sorted(m for m in "
            "('genprob.graphs', 'genprob.tower', 'genprob.wreath') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


class TestEnvOverrides:
    def test_cap_env(self, runner, monkeypatch):
        monkeypatch.setenv("GENPROB_CAP", "10")
        result = runner.invoke(main, ["analyze", "--group", "S4", "--class", "abelian"])
        assert result.exit_code != 0

    def test_cap_flag_beats_env(self, runner, monkeypatch):
        monkeypatch.setenv("GENPROB_CAP", "10")
        result, report = run_json(
            runner, ["analyze", "--group", "S4", "--class", "abelian", "--cap", "1000"]
        )
        assert result.exit_code == 0
        assert report["config"]["cap"] == 1000

    @pytest.mark.parametrize("var, value", [
        ("GENPROB_CAP", "abc"), ("GENPROB_PAIR_BUDGET", "1e3"),
    ])
    def test_bad_env_value_is_input_error(self, runner, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        result = runner.invoke(main, ["analyze", "--group", "S3", "--class", "soluble"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert "Error: " in result.stderr
