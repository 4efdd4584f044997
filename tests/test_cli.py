import json

import pytest
from click.testing import CliRunner

from genprob import __version__
from genprob.catalog import load
from genprob.cli import main


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

    def analyze(self, runner, group):
        result = runner.invoke(main, ["analyze", "--group", group, "--class", "abelian"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")
        return result.stderr

    def test_unknown_group_name(self, runner):
        assert "nosuch" in self.analyze(runner, "nosuch")

    def test_directory_as_group(self, runner, tmp_path):
        assert "Is a directory" in self.analyze(runner, str(tmp_path))

    def test_malformed_group_file(self, runner, tmp_path):
        spec = tmp_path / "bad.grp"
        spec.write_text("degree 4\n(1,2,\n")
        assert "line 2" in self.analyze(runner, str(spec))

    def analyze_cache(self, runner, cache):
        result = runner.invoke(
            main, ["analyze", "--group", "S3", "--class", "soluble", "--cache", str(cache)]
        )
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")
        return result.stderr

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
