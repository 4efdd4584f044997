#!/usr/bin/env python3
"""Record what every benchmark command must reproduce.

    python3 bench/record_reference.py

Runs each workload's commands once untraced and once traced, with seed 0,
and writes ``reference/outputs.json`` (exit code and stdout sha256, or the
seed-free report fields) and ``reference/counts.json`` (the exact per-layer
counts).  Run it only on the commit whose behaviour is the reference; a
change that claims a gain must not re-record.
"""

import hashlib
import json

import run
from workloads import SEED_FREE_FIELDS, WORKLOADS

SEED = 0


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    outputs, counts = {}, {}
    for workload in WORKLOADS.values():
        plain = run.run_pass(workload, SEED, env, None, traced=False)
        traced = run.run_pass(workload, SEED, env, None, traced=True)
        for p, t in zip(plain.runs, traced.runs):
            key = p.command.key
            if p.stdout != t.stdout or p.exit_code != t.exit_code:
                raise SystemExit(f"{key}: traced output differs from untraced")
            ref = {"exit": p.exit_code}
            fields = SEED_FREE_FIELDS.get(key)
            if fields is None:
                ref["sha256"] = hashlib.sha256(p.stdout).hexdigest()
            else:
                report = json.loads(p.stdout)
                ref["fields"] = {f: report.get(f) for f in fields}
            outputs[key] = ref
            counts[key] = run.command_counts(t)
            print(key, ref, counts[key])
    for name, data in (("outputs.json", outputs), ("counts.json", counts)):
        (run.REFERENCE / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
