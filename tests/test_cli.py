import csv
import hashlib
import io
import json

import pytest
from click.testing import CliRunner

import genprob.cli
import genprob.graphs
from genprob import __version__
from genprob.catalog import load
from genprob.classes import BUILTIN_CLASSES
from genprob.cli import main
from genprob.probability import IdentityReport

from conftest import run_python


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

    def test_directory_does_not_hide_a_catalog_group(self, runner, tmp_path, monkeypatch):
        # a directory named like a catalog group in the working directory
        # is not a group file
        (tmp_path / "S4").mkdir()
        monkeypatch.chdir(tmp_path)
        args = ["analyze", "--group", "S4", "--class", "soluble"]
        result, report = run_json(runner, args)
        assert result.exit_code == 0
        assert report["group_order"] == 24
        monkeypatch.chdir(tmp_path.parent)
        assert runner.invoke(main, args).output == result.output

    def test_file_named_like_a_catalog_group_is_read(self, runner, tmp_path, monkeypatch):
        (tmp_path / "S4").write_text("degree 4\n(1,2)(3,4)\n(1,3)(2,4)\n")
        monkeypatch.chdir(tmp_path)
        result, report = run_json(runner, ["analyze", "--group", "S4", "--class", "abelian"])
        assert result.exit_code == 0
        assert report["group_order"] == 4

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

    def test_cache_flag_is_inert(self, runner, tmp_path, monkeypatch):
        # --cache is accepted for compatibility only: a file of pair results
        # may not change an exact report, so none is read or written
        S6 = ["analyze", "--group", "S6", "--class", "soluble"]
        G = load("S6")
        monkeypatch.setattr(genprob.cli, "load", lambda name, cap: G)
        plain = runner.invoke(main, S6)
        monkeypatch.undo()
        assert plain.exit_code == 0

        missing = tmp_path / "pairs.jsonl"
        result = runner.invoke(main, S6 + ["--cache", str(missing)])
        assert result.exit_code == 0
        assert result.stdout == plain.stdout
        assert not missing.exists()

        # the file earlier versions wrote for this run, with its first false
        # result flipped: read, it turned prob_group from 1/5 into 149/720
        gens = tuple(g.images for g in G.generators)
        group = hashlib.sha256(repr((G.degree, gens)).encode()).hexdigest()[:16]
        records = [{"class": "soluble", "format": 1, "group": group,
                    "pair": [list(x), list(y)], "result": holds, "version": __version__}
                   for (x, y), holds in sorted(G.pair_cache["soluble"].items())]
        next(r for r in records if not r["result"])["result"] = True
        flipped = tmp_path / "flipped.jsonl"
        flipped.write_text("{not json\n" + "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in records))
        before = flipped.read_bytes()
        result = runner.invoke(main, S6 + ["--cache", str(flipped)])
        assert result.exit_code == 0
        assert result.stdout == plain.stdout
        assert flipped.read_bytes() == before

        result = runner.invoke(main, S6 + ["--cache", str(tmp_path)])
        assert result.exit_code == 0
        assert result.stdout == plain.stdout

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["analyze", "--group", "S3", "--class", "soluble", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "key,value"


class TestRowStore:
    def test_psl27_soluble_builds_few_chains(self, runner, chain_builds):
        # one chain per relabelled orbit restriction, not one per pair of
        # the exhaustive loop: 102 chains, where one per pair built 13 622
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

    def test_s4_abelian_has_no_bound(self, runner):
        # the paper bounds no abelian graph's diameter, so nothing is checked
        result, report = run_json(runner, ["graph", "--group", "S4", "--class", "abelian"])
        assert result.exit_code == 0
        assert report["empty"] is False
        assert report["bounds"] == {}
        assert report["passed"] is True

    def test_group_option_is_described_alike(self, runner):
        for command in ("analyze", "graph"):
            result = runner.invoke(main, [command, "--help"])
            assert "Catalog name or path to a group-spec file." in result.output

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

    def test_missing_group_file(self, runner, tmp_path):
        stderr = self.analyze(runner, str(tmp_path / "x.grp"))
        assert "cannot read group file" in stderr

    def test_malformed_group_file(self, runner, tmp_path):
        spec = tmp_path / "bad.grp"
        spec.write_text("degree 4\n(1,2,\n")
        assert "line 2" in self.analyze(runner, str(spec))

    @pytest.mark.parametrize("text, message", [
        ("degree ²\n(1,2)\n", "Error: line 1: expected 'degree N' header"),
        ("degree 1000000000000\n(1,2)\n", "Error: degree 1000000000000 exceeds cap 100000"),
        ("degree 0\n(1,2)\n", "Error: line 1: degree must be positive"),
        ("degree -3\n(1,2)\n", "Error: line 1: degree must be positive"),
        ("# comments only\n", "Error: line 1: missing 'degree N' header"),
    ], ids=["superscript-digit", "over-cap", "zero", "negative", "comment-only"])
    def test_bad_degree_header(self, tmp_path, text, message):
        # '²' passes str.isdigit but not int, and a degree past the cap
        # would build a list of that many points for each generator
        spec = tmp_path / "bad.grp"
        spec.write_text(text, encoding="utf-8")
        result = run_python(
            "from genprob.cli import main; main()", "analyze", "--group", str(spec),
            "--class", "abelian", timeout=20)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [message]

    def graph_dot(self, runner, dot):
        return self.refused(
            runner, ["graph", "--group", "A5", "--class", "soluble", "--dot", str(dot)])

    def test_directory_as_dot(self, runner, tmp_path):
        assert "cannot write DOT file" in self.graph_dot(runner, tmp_path)

    def test_dot_in_missing_directory(self, runner, tmp_path):
        dot = tmp_path / "missing-dir" / "g.dot"
        assert "cannot write DOT file" in self.graph_dot(runner, dot)

    def test_pair_budget(self, runner):
        stderr = self.refused(
            runner, ["analyze", "--group", "S5", "--class", "abelian", "--pair-budget", "100"])
        assert "pair budget" in stderr

    def test_dot_vertex_limit(self, runner, tmp_path):
        dot = tmp_path / "x.dot"
        stderr = self.refused(
            runner, ["graph", "--group", "S6", "--class", "soluble", "--dot", str(dot)])
        assert "graph has 719" in stderr
        assert not dot.exists()

    def test_refused_dot_dump_builds_no_graph(self, runner, tmp_path, monkeypatch):
        def build_graph(C, G):
            raise AssertionError("the graph was built before the DOT limit was checked")

        monkeypatch.setattr(genprob.graphs, "build_graph", build_graph)
        dot = tmp_path / "x.dot"
        stderr = self.refused(
            runner, ["graph", "--group", "S6", "--class", "soluble", "--dot", str(dot)])
        assert "graph has 719" in stderr
        assert not dot.exists()

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

    @pytest.mark.parametrize("prime, levels", [
        ("3", "10000"), ("2305843009213693951", "1"), ("3", "30000000"), ("3", "20"),
    ])
    def test_tower_over_cap_is_refused_at_once(self, prime, levels):
        # the order 2*p^levels is never built in full: 2*3^10000 has more
        # digits than int-to-str allows, and a large prime must not be
        # trial-divided before the cap refuses it
        result = run_python(
            "from genprob.cli import main; main()", "tower", "dihedral", "--prime", prime,
            "--levels", levels, "--class", "nilpotent", timeout=5)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"Error: top level order 2*{prime}^{levels} exceeds cap 100000"]

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

    @pytest.mark.parametrize("klass", ["abelian", "nilpotent", "soluble"])
    def test_tower_of_one_level_shows_no_trend(self, runner, klass):
        result, report = run_json(
            runner, ["tower", "dihedral", "--prime", "3", "--levels", "1", "--class", klass])
        assert result.exit_code == 0
        assert len(report["levels"]) == 1
        assert report["verdict"] == "one level shows no trend"

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


ENVELOPE_RUNS = [
    (["analyze", "--group", "S3", "--class", "soluble"], "analyze", False),
    (["graph", "--group", "S4", "--class", "abelian"], "graph", False),
    (["wreath", "verify", "--samples", "1"], "wreath verify", True),
    (["tower", "dihedral", "--prime", "3", "--levels", "2", "--class", "soluble"],
     "tower dihedral", False),
    (["catalog-list"], "catalog-list", False),
    (["selftest"], "selftest", True),
]


@pytest.mark.parametrize("args, command, seeded", ENVELOPE_RUNS,
                         ids=[run[1].replace(" ", "-") for run in ENVELOPE_RUNS])
def test_every_subcommand_reports_one_envelope(runner, args, command, seeded):
    result, report = run_json(runner, args)
    assert result.exit_code == (0 if report["passed"] else 1)
    assert report["version"] == __version__
    assert report["command"] == command
    assert isinstance(report["config"], dict)
    assert isinstance(report["passed"], bool)
    assert ("seed" in report) == seeded
    # the csv rendering carries the same envelope, one row per leaf
    rows = runner.invoke(main, [*args, "--format", "csv"], catch_exceptions=False).output
    table = dict(csv.reader(io.StringIO(rows)))
    keys = ("version", "command", "passed", "seed")
    envelope = {k: str(report[k]) for k in keys if k in report}
    envelope.update((f"config.{k}", str(v)) for k, v in report["config"].items())
    assert {k: v for k, v in table.items() if k in keys or k.startswith("config.")} == envelope


def test_cli_import_leaves_graphs_tower_and_wreath_unloaded():
    # each is imported by the subcommands that use it, so analyze never
    # loads them
    code = ("import sys, genprob.cli; print(sorted(m for m in "
            "('genprob.graphs', 'genprob.tower', 'genprob.wreath') if m in sys.modules))")
    result = run_python(code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# what no subcommand's import path may load: the dataclasses machinery, the
# rationals, csv, and the check-only code
OFF_PATH = ("dataclasses", "fractions", "decimal", "csv", "genprob.checks")


@pytest.mark.parametrize("args", [
    (),
    ("analyze", "--group", "S4", "--class", "soluble"),
    ("graph", "--group", "S4", "--class", "soluble"),
], ids=["import", "analyze", "graph"])
def test_cli_path_leaves_dataclasses_fractions_csv_and_checks_unloaded(args):
    # after the command has run too, so the path drops these imports rather
    # than deferring them into the command
    code = ("import sys, genprob.cli\n"
            "try:\n"
            "    if sys.argv[1:]:\n"
            "        genprob.cli.main()\n"
            "finally:\n"
            f"    print(sorted(m for m in {OFF_PATH!r} if m in sys.modules), file=sys.stderr)\n")
    result = run_python(code, *args, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "[]\n"
    if args:
        assert json.loads(result.stdout)["passed"] is True


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
