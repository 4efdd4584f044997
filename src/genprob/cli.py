"""Command-line surface: batch reports over groups, classes, graphs, the
wreath verification, and towers.

Every report embeds the tool version, the run configuration, and the seed;
probabilities are exact rationals rendered as {num, den}.  Output is
deterministic: the same config and seed produce byte-identical JSON.  The
``--workers`` value and the ``analyze --cache`` path are accepted for
compatibility: they change neither the output nor the work, no file is read
or written for ``--cache``, and neither is in the config echo.

Every subcommand ends in one ``_finish`` call, which assembles the report
(version, command, config, the subcommand's fields, the seed and whether
the checks the run asserted hold, as ``passed``), prints it, and exits 1
when one of them fails: an identity, a diameter bound or the monotonicity
of a tower.  Bad input, a refused run or an unwritable file exits 2 after
one ``Error:`` line on stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .catalog import list_entries, load, names
from .classes import BUILTIN_CLASSES, NILPOTENT, SOLUBLE, GroupClass, class_by_name
from .errors import GroupError
from .group import DEFAULT_MATERIALIZATION_CAP, FiniteGroup, parse_group_spec
from .probability import omega_global, prob_elem, prob_group, verify_identities
from .util import rational

# graphs, tower and wreath are imported inside the subcommands that use
# them, and csv inside the csv branch of _emit, so a command that does not
# use them pays nothing to load them; no subcommand imports genprob.checks

SOLUBLE_CONNECTED_DIAMETER_BOUND = 5
NILPOTENT_COMPONENT_DIAMETER_BOUND = 10
DOT_VERTEX_LIMIT = 500

CAP_ENV = "GENPROB_CAP"
PAIR_BUDGET_ENV = "GENPROB_PAIR_BUDGET"

# the flag beats the environment variable, which beats the default; click
# rejects a value that is not an integer with exit 2
cap_option = click.option(
    "--cap", type=int, default=DEFAULT_MATERIALIZATION_CAP, envvar=CAP_ENV,
    help=f"Materialization cap (default from ${CAP_ENV} or "
         f"{DEFAULT_MATERIALIZATION_CAP}).")
group_option = click.option(
    "--group", "group_source", required=True,
    help="Catalog name or path to a group-spec file.")
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
class_option = click.option(
    "--class", "class_name", required=True, type=click.Choice(sorted(BUILTIN_CLASSES)))
workers_option = click.option(
    "--workers", type=int, default=1, expose_value=False,
    help="Accepted for compatibility; changes neither the output nor the work.")


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


class _Main(click.Group):
    """The top-level command group and the one refusal route: any
    ``GroupError`` a subcommand raises is bad input, so it prints one
    ``Error:`` line and exits 2 instead of ending in a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except GroupError as exc:
            click.echo(f"Error: {exc}", err=True)
            raise InputError(str(exc))


def _load_group(source: str, cap: int) -> FiniteGroup:
    # a catalog name stays one unless a file of that name exists; any other
    # name ending in .grp, or naming an existing path, is read as a file
    path = Path(source)
    if path.is_file() or (source not in names()
                          and (path.suffix == ".grp" or path.exists())):
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise GroupError(f"cannot read group file {source}: {exc}") from None
        return parse_group_spec(text, cap=cap, name=path.stem)
    return load(source, cap=cap)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report, sort_keys=True))
        return
    import csv
    import io

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


def _finish(command: str, config: dict, fields: dict, fmt: str, passed: bool,
            seed: int | None = None) -> None:
    """Assemble the report around the subcommand's ``fields``, print it, and
    exit 1 if a check failed.  The seed is reported when one is given."""
    report = {"version": __version__, "command": command, "config": config,
              **fields, "passed": passed}
    if seed is not None:
        report["seed"] = seed
    _emit(report, fmt)
    if not passed:
        sys.exit(1)


def _diameter_bounds(C: GroupClass, result) -> dict[str, bool]:
    """The paper's diameter bounds on a class graph, given its
    ``graphs.GraphReport``: a soluble graph is connected with diameter at
    most 5, and each nilpotent component has diameter at most 10.  The
    empty graph has no component, so no bound to check."""
    if not result.components:
        return {}
    if C == SOLUBLE:
        return {"connected": result.connected,
                "diameter_le_5": (result.connected
                                  and result.max_diameter <= SOLUBLE_CONNECTED_DIAMETER_BOUND)}
    if C == NILPOTENT:
        return {"component_diameters_le_10": all(
            c["diameter"] <= NILPOTENT_COMPONENT_DIAMETER_BOUND for c in result.components)}
    return {}


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Exact generation-probability reports for finite groups."""


@main.command()
@group_option
@class_option
@format_option
@cap_option
@click.option("--pair-budget", type=int, default=10**9, envvar=PAIR_BUDGET_ENV,
              help=f"Maximum element pairs per run (default from ${PAIR_BUDGET_ENV} "
                   f"or 10^9).")
@click.option("--cache", type=click.Path(), expose_value=False,
              help="Accepted for compatibility; no file is read or written.")
def analyze(group_source: str, class_name: str, fmt: str, cap: int,
            pair_budget: int) -> None:
    """Per-class-representative probabilities, whole-group probability,
    global omega size, and the structural identity checks."""
    G = _load_group(group_source, cap)
    C = class_by_name(class_name)
    if G.order ** 2 > pair_budget:
        raise GroupError(f"pair budget: {G.order}^2 pairs exceed --pair-budget {pair_budget}")

    per_rep = []
    for rep, size in G.conjugacy_classes():
        p = prob_elem(C, G, rep)
        per_rep.append({
            "representative": str(rep),
            "class_size": size,
            "probability": rational(p.favorable, p.total),
        })
    whole = prob_group(C, G)
    core = omega_global(C, G)
    identities = verify_identities(G)

    _finish("analyze", {
        "group": group_source, "class": class_name, "cap": cap,
        "pair_budget": pair_budget,
    }, {
        "group_order": G.order,
        "per_class_representative": per_rep,
        "prob_group": rational(whole.favorable, whole.total),
        "prob_group_method": whole.method,
        "omega_global_size": len(core),
        "identities": identities.results,
    }, fmt, identities.passed)


@main.command()
@group_option
@class_option
@format_option
@cap_option
@workers_option
@click.option("--dot", "dot_path", type=click.Path(path_type=Path), default=None,
              help=f"Write a DOT edge dump (graphs up to {DOT_VERTEX_LIMIT} vertices).")
def graph(group_source: str, class_name: str, fmt: str, cap: int,
          dot_path: Path | None) -> None:
    """Class graph components, diameters, and the diameter-bound checks."""
    from .graphs import build_graph, components_and_diameters

    G = _load_group(group_source, cap)
    C = class_by_name(class_name)
    # the vertices are G minus Omega(G), so an oversized dump is refused
    # before the graph is built
    if dot_path is not None and (n := G.order - len(omega_global(C, G))) > DOT_VERTEX_LIMIT:
        raise GroupError(f"DOT dump limited to {DOT_VERTEX_LIMIT} vertices (graph has {n})")
    g = build_graph(C, G)
    result = components_and_diameters(g)
    bounds = _diameter_bounds(C, result)

    if dot_path is not None:
        try:
            dot_path.write_text(g.to_dot() + "\n")
        except OSError as exc:
            raise GroupError(f"cannot write DOT file {dot_path}: {exc}") from None

    _finish("graph", {"group": group_source, "class": class_name, "cap": cap},
            {**result.to_json(), "empty": g.is_empty, "bounds": bounds},
            fmt, all(bounds.values()))


@main.group()
def wreath() -> None:
    """Wreath-product tower verification."""


@wreath.command("verify")
@click.option("--samples", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, default=0)
@format_option
def wreath_verify(samples: int, seed: int, fmt: str) -> None:
    """Run the full first-level verification suite."""
    from .wreath import base_level, canonical_transversal, verify_lemma_mechanism

    level, g_top = base_level()
    T = canonical_transversal(level.top, g_top)
    result = verify_lemma_mechanism(level, T, samples=samples, seed=seed)
    _finish("wreath verify", {"samples": samples}, result.to_json(), fmt,
            result.all_passed, seed=seed)


@main.group()
def tower() -> None:
    """Finite-quotient tower reports."""


@tower.command("dihedral")
@click.option("--prime", type=int, required=True)
@click.option("--levels", type=click.IntRange(min=1), required=True)
@class_option
@click.option("--track", type=click.Choice(["x", "r"]), default="x")
@cap_option
@format_option
def tower_dihedral(prime: int, levels: int, class_name: str, track: str,
                   cap: int, fmt: str) -> None:
    """Probability sequence along the dihedral tower plus the verdict."""
    from .tower import dihedral_tower, monotonicity_report, positivity_verdict

    C = class_by_name(class_name)
    t = dihedral_tower(prime, levels, cap=cap)
    mono = monotonicity_report(C, t, track)
    verdict = positivity_verdict(C, t, track=track)
    _finish("tower dihedral", {
        "prime": prime, "levels": levels, "class": class_name,
        "track": track, "cap": cap,
    }, {**mono.to_json(), "verdict": verdict.verdict}, fmt, mono.monotone)


@main.command("catalog-list")
@format_option
def catalog_list(fmt: str) -> None:
    """List the built-in group catalog."""
    _finish("catalog-list", {}, {"entries": [
        {"name": e.name, "expected_order": e.expected_order, "tags": e.tags}
        for e in list_entries()
    ]}, fmt, True)


SELFTEST_GROUPS = ("S3", "A4", "D12", "Q8", "SL23", "S4", "A5")


@main.command()
@click.option("--seed", type=int, default=0)
@workers_option
@format_option
def selftest(seed: int, fmt: str) -> None:
    """Deterministic identity and graph suite over a fixed group sample.

    The suite draws nothing at random: ``--seed`` is only echoed in the
    report and changes no check.
    """
    from .graphs import build_graph, components_and_diameters

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
    graph_report = components_and_diameters(g)
    graph_ok = all(_diameter_bounds(SOLUBLE, graph_report).values())
    ok = ok and graph_ok

    _finish("selftest", {}, {"checks": checks, "soluble_graph_A5": {
        "connected": graph_report.connected,
        "max_diameter": graph_report.max_diameter,
        "passed": graph_ok,
    }}, fmt, ok, seed=seed)


if __name__ == "__main__":
    main()
