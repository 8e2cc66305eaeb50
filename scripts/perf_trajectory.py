#!/usr/bin/env python3
"""Perf-trajectory gate for the levelized simulation kernel.

Consumes the JSON summary written by ``bench --quick --json`` and

1. emits a schema-versioned ``BENCH_<date>.json`` snapshot at the repo
   root (the trajectory: one file per recorded day, committed to main),
2. compares the fault-simulation kernel timing against the newest prior
   ``BENCH_*.json`` and fails when the levelized kernel regressed beyond
   the budget (default 25%).

The gated metric is ``kernel.seconds_levelized_1`` — the single-domain
steady-state time of the levelized kernel on the fixed s1423 workload.
The single-domain number is used because hosted runners disagree about
core counts far more than they disagree about single-core throughput;
the multi-domain figures are recorded in the snapshot but not gated.

When no prior snapshot exists the gate is advisory: it warns and exits 0
so the first run on a fresh trajectory can seed it.

Every snapshot describes its host: the commit, ``nproc``, the OCaml
version and the domain count bench ran with, next to the per-circuit
end-to-end seconds (the bench JSON's ``circuits`` list).  A bench JSON
without per-circuit seconds is rejected rather than snapshotted with a
``null`` section.

Usage:
    perf_trajectory.py BENCH_JSON [--out-dir DIR] [--date YYYY-MM-DD]
                       [--budget FRACTION] [--commit SHA]

Exit codes: 0 ok (or advisory), 1 regression beyond budget, 2 bad input.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
from pathlib import Path

SNAPSHOT_SCHEMA = 2
SNAPSHOT_RE = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})\.json$")


def fail(msg: str, code: int = 2) -> None:
    print(f"perf-trajectory: error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_bench(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read bench JSON {path}: {e}")
    kernel = data.get("kernel")
    if not isinstance(kernel, dict):
        fail(f"{path} has no kernel section — run bench with --quick --json")
    for key in ("seconds_levelized_1", "circuit"):
        if key not in kernel:
            fail(f"{path}: kernel section missing {key!r}")
    circuits = data.get("circuits")
    if not isinstance(circuits, list) or not circuits:
        fail(f"{path} has no per-circuit timings (\"circuits\")")
    for entry in circuits:
        if not isinstance(entry, dict) or not isinstance(entry.get("seconds"), (int, float)):
            fail(f"{path}: circuit entry without numeric seconds: {entry!r}")
    return data


def prior_snapshots(out_dir: Path, today: str) -> list[Path]:
    """Prior BENCH_*.json files, newest (by filename date) first."""
    found = []
    for p in out_dir.iterdir():
        m = SNAPSHOT_RE.match(p.name)
        if m and m.group(1) < today:
            found.append((m.group(1), p))
    return [p for _, p in sorted(found, reverse=True)]


def kernel_seconds(snapshot: dict, path: Path) -> float:
    kernel = snapshot.get("kernel")
    if not isinstance(kernel, dict) or "seconds_levelized_1" not in kernel:
        fail(f"{path}: snapshot has no kernel.seconds_levelized_1")
    return float(kernel["seconds_levelized_1"])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench_json", type=Path, help="output of bench --quick --json")
    ap.add_argument("--out-dir", type=Path, default=Path("."),
                    help="where BENCH_<date>.json snapshots live (repo root)")
    ap.add_argument("--date", default=None,
                    help="snapshot date, YYYY-MM-DD (default: today, UTC)")
    ap.add_argument("--budget", type=float, default=0.25,
                    help="allowed fractional slowdown before failing (default 0.25)")
    ap.add_argument("--commit", default=None, help="git SHA to record in the snapshot")
    args = ap.parse_args()

    date = args.date or datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    if not re.match(r"^\d{4}-\d{2}-\d{2}$", date):
        fail(f"--date must be YYYY-MM-DD, got {date!r}")
    if not args.out_dir.is_dir():
        fail(f"--out-dir {args.out_dir} is not a directory")

    bench = load_bench(args.bench_json)
    kernel = bench["kernel"]
    new_secs = float(kernel["seconds_levelized_1"])

    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "date": date,
        "commit": args.commit,
        "source": "bench --quick --json",
        "bench_schema": bench.get("schema"),
        "nproc": os.cpu_count(),
        "ocaml_version": bench.get("ocaml_version"),
        "domains": bench.get("domains"),
        "kernel": kernel,
        "fsim": bench.get("fsim"),
        "atpg": bench.get("atpg"),
        "circuits": bench["circuits"],
    }
    out_path = args.out_dir / f"BENCH_{date}.json"
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"perf-trajectory: wrote {out_path} "
          f"(levelized 1-domain {new_secs:.3f}s on {kernel['circuit']})")

    priors = prior_snapshots(args.out_dir, date)
    if not priors:
        print("perf-trajectory: advisory — no prior BENCH_*.json to compare "
              "against; this snapshot seeds the trajectory")
        return
    prior_path = priors[0]
    prior = json.loads(prior_path.read_text())
    old_secs = kernel_seconds(prior, prior_path)
    ratio = new_secs / old_secs if old_secs > 0 else float("inf")
    print(f"perf-trajectory: vs {prior_path.name}: "
          f"{old_secs:.3f}s -> {new_secs:.3f}s ({ratio:.2f}x)")
    if ratio > 1.0 + args.budget:
        fail(f"levelized kernel regressed {100 * (ratio - 1):.0f}% "
             f"(budget {100 * args.budget:.0f}%) against {prior_path.name}",
             code=1)
    print(f"perf-trajectory: within budget "
          f"({100 * args.budget:.0f}% allowed slowdown)")


if __name__ == "__main__":
    main()
