#!/usr/bin/env python3
"""Same-host A/B wall-time gate: is this checkout slower than BASE?

    python3 tools/perf_ab.py BASE

Run from the repository root.  BASE is any git revision (CI passes the
merge-base of the pull request).  The script checks BASE out into a
temporary `git worktree`, then runs `perfbench/run.py --trace 0` for
every workload in BENCHMARK.json, alternating base and head in PAIRS
pairs of RUN_SECONDS each.  Each side runs its own perfbench/run.py and
builds its own sources under its own CARGO_TARGET_DIR, so the two
builds never share objects.

For each workload it prints the base and head median `wall_s` and
fails (exit 1) when the head median is worse than the base median by
more than the `wall_s` bound in BENCHMARK.json, which it reads and
never writes.  A run that fails its output check, or any other error,
exits 2.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 5
RUN_SECONDS = 10
METRIC = "wall_s"

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree, target_dir, workload):
    """One `run.py --trace 0` run of @p workload in @p tree; returns
    its metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(RUN_SECONDS), "--trace", "0",
         "--out", str(target_dir / "result.json")],
        cwd=tree, env={**os.environ, "CARGO_TARGET_DIR": str(target_dir)},
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py {workload} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result["failed"] != 0:
        raise RuntimeError(f"{tree}: {workload}: {result['failed']} of "
                           f"{result['attempted']} iterations failed "
                           "their output check")
    return result["metrics"]


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python3 tools/perf_ab.py BASE", file=sys.stderr)
        return 2
    base_rev = git("rev-parse", "--verify", sys.argv[1] + "^{commit}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    bound = next(m["bound"] for m in manifest["end_to_end"]
                 if m["name"] == METRIC)

    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        git("worktree", "add", "--detach", str(base_tree), base_rev)
        try:
            sides = {"base": (base_tree, tmp / "base_build"),
                     "head": (ROOT, tmp / "head_build")}
            walls = {(w, s): [] for w in workloads for s in sides}
            for w in workloads:
                for pair in range(PAIRS):
                    # Alternate which side runs first, so a drift in
                    # host speed does not favour one side.
                    order = ("base", "head") if pair % 2 == 0 \
                        else ("head", "base")
                    for side in order:
                        tree, target = sides[side]
                        walls[(w, side)].append(
                            run_side(tree, target, w)[METRIC]["value"])
        finally:
            git("worktree", "remove", "--force", str(base_tree))

    print(f"perf_ab: base {base_rev[:12]} vs head, {PAIRS} pairs of "
          f"{RUN_SECONDS} s, {METRIC} bound +{bound:.0%}")
    print(f"{'workload':<14} {'base median':>12} {'head median':>12} "
          f"{'head/base':>10}  verdict")
    worse = []
    for w in workloads:
        base = statistics.median(walls[(w, "base")])
        head = statistics.median(walls[(w, "head")])
        ok = head <= base * (1.0 + bound)
        if not ok:
            worse.append(w)
        print(f"{w:<14} {base:>11.4f}s {head:>11.4f}s {head / base:>10.3f}"
              f"  {'ok' if ok else 'SLOWER'}")
        for side in ("base", "head"):
            runs = ", ".join(f"{x:.4f}" for x in walls[(w, side)])
            print(f"  {side} runs: {runs}")
    if worse:
        print(f"perf_ab: head is slower than base beyond the bound on: "
              f"{', '.join(worse)}")
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        sys.exit(2)
