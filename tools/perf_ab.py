#!/usr/bin/env python3
"""Same-host A/B gate: is this checkout slower or bigger than BASE?

    python3 tools/perf_ab.py BASE

Run from the repository root.  BASE is any git revision (CI passes the
merge-base of the pull request).  The script checks BASE out into a
temporary `git worktree`, then runs `perfbench/run.py --trace 0` for
every workload in BENCHMARK.json, alternating base and head in PAIRS
pairs of RUN_SECONDS each.  Each side runs its own perfbench/run.py and
builds its own sources under its own CARGO_TARGET_DIR, so the two
builds never share objects.

For each workload and each gated metric (`wall_s`, `peak_rss_mb`) it
prints the base and head medians, each side's interquartile spread (as
a fraction of its median) and each pair's head/base ratio, and fails
(exit 1) when the head median is worse than the base median by more
than the metric's bound.  The spread and the pair ratios show whether
a verdict rests on host noise: on a busy host one run can move by more
than the bound.  A metric within its bound whose base spread is wider
than the bound is labelled `unresolved` rather than `ok`: those runs
cannot tell a change of that size from noise.  The label does not
change the exit status.
The direction ("better": "lower" or "higher") and the bound of each
metric come from BENCHMARK.json, which it reads and never writes.  A
run that fails its output check, or any other error, exits 2.
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
# Wall time catches constant-factor costs; peak RSS catches a machine
# that commits storage its run never touches (e.g. dense memory).
METRICS = ("wall_s", "peak_rss_mb")

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def iqr_frac(values):
    """Interquartile range of @p values as a fraction of their median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


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
    gates = {m["name"]: (m["better"], m["bound"])
             for m in manifest["end_to_end"] if m["name"] in METRICS}

    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        git("worktree", "add", "--detach", str(base_tree), base_rev)
        try:
            sides = {"base": (base_tree, tmp / "base_build"),
                     "head": (ROOT, tmp / "head_build")}
            runs = {(w, s, m): [] for w in workloads for s in sides
                    for m in METRICS}
            for w in workloads:
                for pair in range(PAIRS):
                    # Alternate which side runs first, so a drift in
                    # host speed does not favour one side.
                    order = ("base", "head") if pair % 2 == 0 \
                        else ("head", "base")
                    for side in order:
                        tree, target = sides[side]
                        metrics = run_side(tree, target, w)
                        for m in METRICS:
                            runs[(w, side, m)].append(
                                metrics[m]["value"])
        finally:
            git("worktree", "remove", "--force", str(base_tree))

    bounds = ", ".join(
        f"{m} {'+' if gates[m][0] == 'lower' else '-'}{gates[m][1]:.0%}"
        for m in METRICS)
    print(f"perf_ab: base {base_rev[:12]} vs head, {PAIRS} pairs of "
          f"{RUN_SECONDS} s; bounds {bounds}")
    print(f"{'workload':<14} {'metric':<12} {'base median':>12} "
          f"{'head median':>12} {'head/base':>10} {'base IQR':>9} "
          f"{'head IQR':>9}  verdict")
    worse = []
    for w in workloads:
        for m in METRICS:
            better, bound = gates[m]
            base_runs = runs[(w, "base", m)]
            head_runs = runs[(w, "head", m)]
            base = statistics.median(base_runs)
            head = statistics.median(head_runs)
            ok = head <= base * (1.0 + bound) if better == "lower" \
                else head >= base * (1.0 - bound)
            base_iqr = iqr_frac(base_runs)
            if not ok:
                worse.append(f"{w} {m}")
                verdict = "WORSE"
            elif base_iqr > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:<14} {m:<12} {base:>12.4f} {head:>12.4f} "
                  f"{head / base:>10.3f} {base_iqr:>9.1%} "
                  f"{iqr_frac(head_runs):>9.1%}  {verdict}")
            ratios = ", ".join(f"{h / b:.3f}"
                               for b, h in zip(base_runs, head_runs))
            print(f"  pairs head/base: {ratios}")
    if worse:
        print(f"perf_ab: head is worse than base beyond the bound on: "
              f"{', '.join(worse)}")
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        sys.exit(2)
