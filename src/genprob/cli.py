"""Command-line surface: batch reports over groups, classes, graphs, the
wreath verification, and towers.

Every report embeds the tool version, the run configuration, and the seed;
probabilities are exact rationals rendered as {num, den}.  Output is
deterministic: the same config and seed produce byte-identical JSON.  The
``--workers`` value changes neither the output nor the work, and is left out
of the config echo.

Exit status is 0 when every check asserted during the run holds, 1 when an
identity, diameter bound or monotonicity check fails, and 2 on bad input or
a refused run, which prints one ``Error:`` line on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .catalog import list_entries, load
from .classes import class_by_name, pair_by_predicate
from .errors import GroupError
from .graphs import build_graph, components_and_diameters
from .group import DEFAULT_MATERIALIZATION_CAP, FiniteGroup, parse_group_spec
from .perm import Permutation
from .probability import omega_global, prob_elem, prob_group, verify_identities
from .tower import dihedral_tower, monotonicity_report, positivity_verdict
from .wreath import base_level, canonical_transversal, verify_lemma_mechanism

SOLUBLE_CONNECTED_DIAMETER_BOUND = 5
NILPOTENT_COMPONENT_DIAMETER_BOUND = 10
DOT_VERTEX_LIMIT = 500

CAP_ENV = "GENPROB_CAP"
PAIR_BUDGET_ENV = "GENPROB_PAIR_BUDGET"

WORKERS_HELP = "Accepted for compatibility; changes neither the output nor the work."

# the flag beats the environment variable, which beats the default; click
# rejects a value that is not an integer with exit 2
cap_option = click.option(
    "--cap", type=int, default=DEFAULT_MATERIALIZATION_CAP, envvar=CAP_ENV,
    help=f"Materialization cap (default from ${CAP_ENV} or "
         f"{DEFAULT_MATERIALIZATION_CAP}).")


class InputError(SystemExit):
    """Exit 2 for bad input or a refused run, after one ``Error:`` line on
    stderr.  Unlike ``click.ClickException``, which click turns into a bare
    ``SystemExit``, this exception keeps the message as its text for callers
    that catch it, such as ``CliRunner``."""

    def __init__(self, message: str):
        super().__init__(2)
        self.message = message

    def __str__(self) -> str:
        return self.message


def _refuse(message: str) -> NoReturn:
    click.echo(f"Error: {message}", err=True)
    raise InputError(message)


class _Main(click.Group):
    """The top-level command group: any ``GroupError`` a subcommand raises
    is bad input, so it exits 2 instead of ending in a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except GroupError as exc:
            _refuse(str(exc))


def _rational(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _load_group(source: str, cap: int) -> FiniteGroup:
    path = Path(source)
    if path.suffix == ".grp" or path.exists():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            _refuse(f"cannot read group file {source}: {exc}")
        return parse_group_spec(text, cap=cap, name=path.stem)
    return load(source, cap=cap)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report, sort_keys=True))
        return
    # csv: one (key, value) row per leaf, keys as dotted paths
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            rows.append((prefix, str(value)))

    walk("", report)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    click.echo(buf.getvalue().rstrip("\n"))


def _envelope(command: str, config: dict, seed: int | None = None) -> dict:
    report = {"version": __version__, "command": command, "config": config}
    if seed is not None:
        report["seed"] = seed
    return report


CACHE_KEYS = ("group", "class", "pair", "result")
# loaded records re-checked by the independent pair oracle, evenly spaced
CACHE_RECHECKS = 8


def _load_pair_cache(G: FiniteGroup, class_name: str, path: Path) -> None:
    """Read the records of ``path`` for this group and class into the pair
    cache.  One record can decide a whole orbit of a soluble Omega(x) row,
    so every pair must lie in G, a pair may not appear twice with two
    results, and up to ``CACHE_RECHECKS`` evenly spaced records are checked
    against ``pair_by_predicate``."""
    if not path.exists():
        return
    cache = G.pair_cache.setdefault(class_name, {})
    points = list(range(G.degree))
    loaded: list[tuple[int, tuple, bool]] = []
    try:
        with path.open() as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or not set(CACHE_KEYS) <= record.keys():
                        raise ValueError(f"a record needs the keys {', '.join(CACHE_KEYS)}")
                    group, cls, pair, result = (record[k] for k in CACHE_KEYS)
                    if not isinstance(result, bool):
                        raise ValueError("result is not true or false")
                    if group == G.cache_key and cls == class_name:
                        xt, yt = (tuple(map(operator.index, t)) for t in pair)
                        if sorted(xt) != points or sorted(yt) != points:
                            raise ValueError(
                                f"pair is not two permutations of degree {G.degree}")
                        if not G.chain.contains(xt) or not G.chain.contains(yt):
                            raise ValueError("pair is not in the group")
                        # pair_in_group looks pairs up least first
                        key = (xt, yt) if xt <= yt else (yt, xt)
                        if cache.setdefault(key, result) != result:
                            raise ValueError("pair appears earlier with the other result")
                        loaded.append((lineno, key, result))
                except (TypeError, ValueError) as exc:
                    _refuse(f"pair cache {path}, line {lineno}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        _refuse(f"cannot read pair cache {path}: {exc}")
    C = class_by_name(class_name)
    count = min(CACHE_RECHECKS, len(loaded))
    for lineno, (xt, yt), result in (loaded[k * len(loaded) // count] for k in range(count)):
        if pair_by_predicate(C, G, Permutation(xt), Permutation(yt)) != result:
            _refuse(f"pair cache {path}, line {lineno}: result {json.dumps(result)} "
                    "disagrees with the pair test")


def _save_pair_cache(G: FiniteGroup, class_name: str, path: Path) -> None:
    """Write the pair cache through a temporary file in the same directory,
    so a failed write leaves the old file as it was."""
    cache = G.pair_cache.get(class_name, {})
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as f:
            for (xt, yt), result in sorted(cache.items()):
                f.write(json.dumps({
                    "group": G.cache_key,
                    "class": class_name,
                    "pair": [list(xt), list(yt)],
                    "result": result,
                }, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        _refuse(f"cannot write pair cache {path}: {exc}")
    finally:
        tmp.unlink(missing_ok=True)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Exact generation-probability reports for finite groups."""


@main.command()
@click.option("--group", "group_source", required=True,
              help="Catalog name or path to a group-spec file.")
@click.option("--class", "class_name", required=True,
              type=click.Choice(["abelian", "nilpotent", "soluble"]))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@cap_option
@click.option("--pair-budget", type=int, default=10**9, envvar=PAIR_BUDGET_ENV,
              help=f"Maximum element pairs per run (default from ${PAIR_BUDGET_ENV} "
                   f"or 10^9).")
@click.option("--cache", "cache_path", type=click.Path(path_type=Path), default=None,
              help="JSON-lines pair-classification cache, reused across runs.")
def analyze(group_source: str, class_name: str, fmt: str, cap: int,
            pair_budget: int, cache_path: Path | None) -> None:
    """Per-class-representative probabilities, whole-group probability,
    global omega size, and the structural identity checks."""
    G = _load_group(group_source, cap)
    C = class_by_name(class_name)
    if G.order ** 2 > pair_budget:
        _refuse(f"pair budget: {G.order}^2 pairs exceed --pair-budget {pair_budget}")
    if cache_path is not None:
        _load_pair_cache(G, class_name, cache_path)

    per_rep = []
    for rep, size in G.conjugacy_classes():
        p = prob_elem(C, G, rep)
        per_rep.append({
            "representative": str(rep),
            "class_size": size,
            "probability": _rational(p.probability),
        })
    whole = prob_group(C, G)
    core = omega_global(C, G)
    identities = verify_identities(G)

    report = _envelope("analyze", {
        "group": group_source, "class": class_name, "cap": cap,
        "pair_budget": pair_budget,
    })
    report.update({
        "group_order": G.order,
        "per_class_representative": per_rep,
        "prob_group": _rational(whole.probability),
        "prob_group_method": whole.method,
        "omega_global_size": len(core),
        "identities": identities.results,
        "passed": identities.passed,
    })
    if cache_path is not None:
        _save_pair_cache(G, class_name, cache_path)
    _emit(report, fmt)
    if not identities.passed:
        sys.exit(1)


@main.command()
@click.option("--group", "group_source", required=True)
@click.option("--class", "class_name", required=True,
              type=click.Choice(["abelian", "nilpotent", "soluble"]))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@cap_option
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--dot", "dot_path", type=click.Path(path_type=Path), default=None,
              help=f"Write a DOT edge dump (graphs up to {DOT_VERTEX_LIMIT} vertices).")
def graph(group_source: str, class_name: str, fmt: str, cap: int,
          workers: int, dot_path: Path | None) -> None:
    """Class graph components, diameters, and the diameter-bound checks."""
    G = _load_group(group_source, cap)
    C = class_by_name(class_name)
    g = build_graph(C, G)
    result = components_and_diameters(g, workers=workers)

    bounds = {}
    if not g.is_empty:
        if class_name == "soluble":
            bounds["connected"] = result.connected
            bounds["diameter_le_5"] = (
                result.connected
                and result.max_diameter <= SOLUBLE_CONNECTED_DIAMETER_BOUND
            )
        if class_name == "nilpotent":
            bounds["component_diameters_le_10"] = all(
                c["diameter"] <= NILPOTENT_COMPONENT_DIAMETER_BOUND
                for c in result.components
            )
    passed = all(bounds.values())

    report = _envelope("graph", {
        "group": group_source, "class": class_name, "cap": cap,
    })
    report.update(result.to_json())
    report["empty"] = g.is_empty
    report["bounds"] = bounds
    report["passed"] = passed

    if dot_path is not None:
        if len(g.vertices) > DOT_VERTEX_LIMIT:
            _refuse(
                f"DOT dump limited to {DOT_VERTEX_LIMIT} vertices "
                f"(graph has {len(g.vertices)})"
            )
        dot_path.write_text(g.to_dot() + "\n")

    _emit(report, fmt)
    if not passed:
        sys.exit(1)


@main.group()
def wreath() -> None:
    """Wreath-product tower verification."""


@wreath.command("verify")
@click.option("--samples", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def wreath_verify(samples: int, seed: int, fmt: str) -> None:
    """Run the full first-level verification suite."""
    level, g_top = base_level()
    T = canonical_transversal(level.top, g_top)
    result = verify_lemma_mechanism(level, T, samples=samples, seed=seed)
    report = _envelope("wreath verify", {"samples": samples}, seed=seed)
    report.update(result.to_json())
    report["passed"] = result.all_passed
    _emit(report, fmt)
    if not result.all_passed:
        sys.exit(1)


@main.group()
def tower() -> None:
    """Finite-quotient tower reports."""


@tower.command("dihedral")
@click.option("--prime", type=int, required=True)
@click.option("--levels", type=click.IntRange(min=1), required=True)
@click.option("--class", "class_name", required=True,
              type=click.Choice(["abelian", "nilpotent", "soluble"]))
@click.option("--track", type=click.Choice(["x", "r"]), default="x")
@cap_option
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def tower_dihedral(prime: int, levels: int, class_name: str, track: str,
                   cap: int, fmt: str) -> None:
    """Probability sequence along the dihedral tower plus the verdict."""
    C = class_by_name(class_name)
    t = dihedral_tower(prime, levels, cap=cap)
    mono = monotonicity_report(C, t, track)
    verdict = positivity_verdict(C, t, track=track)
    report = _envelope("tower dihedral", {
        "prime": prime, "levels": levels, "class": class_name,
        "track": track, "cap": cap,
    })
    report.update(mono.to_json())
    report["verdict"] = verdict.verdict
    report["passed"] = mono.monotone
    _emit(report, fmt)
    if not mono.monotone:
        sys.exit(1)


@main.command("catalog-list")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def catalog_list(fmt: str) -> None:
    """List the built-in group catalog."""
    report = _envelope("catalog-list", {})
    report["entries"] = [
        {"name": e.name, "expected_order": e.expected_order, "tags": e.tags}
        for e in list_entries()
    ]
    report["passed"] = True
    _emit(report, fmt)


SELFTEST_GROUPS = ("S3", "A4", "D12", "Q8", "SL23", "S4", "A5")


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def selftest(seed: int, workers: int, fmt: str) -> None:
    """Deterministic identity and graph suite over a fixed group sample.

    The same seed yields byte-identical output.
    """
    from .classes import SOLUBLE

    checks = []
    ok = True
    for name in SELFTEST_GROUPS:
        G = load(name)
        identities = verify_identities(G)
        checks.append({
            "group": name,
            "identities": identities.results,
            "passed": identities.passed,
        })
        ok = ok and identities.passed
    g = build_graph(SOLUBLE, load("A5"))
    graph_report = components_and_diameters(g, workers=workers)
    graph_ok = graph_report.connected and graph_report.max_diameter <= 5
    ok = ok and graph_ok

    report = _envelope("selftest", {}, seed=seed)
    report["checks"] = checks
    report["soluble_graph_A5"] = {
        "connected": graph_report.connected,
        "max_diameter": graph_report.max_diameter,
        "passed": graph_ok,
    }
    report["passed"] = ok
    _emit(report, fmt)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
