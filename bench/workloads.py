"""The benchmark's workloads: fixed lists of genprob CLI commands.

Each workload runs its commands one after another in fresh interpreters
(closed loop, one client).  ``{seed}`` is replaced by the benchmark seed and
``{cache}`` by a pair-cache file that is deleted before each pass.  Why each
workload was chosen is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    key: str          # names the command in the reference files
    metric: str       # end-to-end timing its wall time adds to
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # Python run by setup_s in a fresh interpreter: import the CLI and load
    # what the workload's commands load before their own work starts
    setup_code: str


S6_SOLUBLE = ("analyze", "--group", "S6", "--class", "soluble", "--cache", "{cache}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "soluble-rows",
            "S6 soluble: pair tests feeding Omega(x) rows, cold and warm pair "
            "cache, then the class graph",
            (
                Command("analyze-S6-soluble-cold", "analyze_s", S6_SOLUBLE),
                Command("analyze-S6-soluble-warm", "warm_analyze_s", S6_SOLUBLE),
                Command("graph-S6-soluble", "graph_s",
                        ("graph", "--group", "S6", "--class", "soluble", "--workers", "2")),
            ),
            "import genprob.cli\n"
            "from genprob.catalog import load\n"
            "load('S6')\n",
        ),
        Workload(
            "pair-sweep",
            "PSL27 and A6 exhaustive double loop, nilpotent p-part route, A7 "
            "pair subgroups down the stabilizer-chain route",
            (
                Command("analyze-PSL27-soluble", "analyze_s",
                        ("analyze", "--group", "PSL27", "--class", "soluble")),
                Command("analyze-A6-nilpotent", "analyze_s",
                        ("analyze", "--group", "A6", "--class", "nilpotent")),
                Command("analyze-A7-nilpotent", "analyze_s",
                        ("analyze", "--group", "A7", "--class", "nilpotent")),
            ),
            "import genprob.cli\n"
            "from genprob.catalog import load\n"
            "for name in ('PSL27', 'A6', 'A7'):\n"
            "    load(name)\n",
        ),
        Workload(
            "wreath-tower",
            "Permutation object arithmetic in the wreath check and chains on "
            "dihedral groups; almost no soluble pair tests",
            (
                Command("wreath-verify", "wreath_s", ("wreath", "verify", "--seed", "{seed}")),
                Command("tower-dihedral-3-6-nilpotent", "tower_s",
                        ("tower", "dihedral", "--prime", "3", "--levels", "6",
                         "--class", "nilpotent")),
            ),
            "import genprob.cli\n"
            "from genprob.wreath import base_level\n"
            "base_level()\n",
        ),
    )
}

# wreath verify samples with the seed, so its report is checked on the fields
# that do not depend on it
SEED_FREE_FIELDS = {"wreath-verify": ("passed", "alpha_beta_checks", "order_g1", "order_h1")}
