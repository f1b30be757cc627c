#!/usr/bin/env python3
"""A/B comparison of two revisions on the host-performance benchmark.

    python3 scripts/perfbench_ab.py --base REV [--pairs 10] \\
        [--workloads W1,W2] [--seed N] [--scratch DIR] [--out FILE]

"base" is the tree of git revision REV (default HEAD^), exported with
`git archive` into DIR/base (default: a fresh temporary directory; a
DIR/base already holding REV is reused with its build). "change" is
this checkout's working tree, uncommitted edits included, so
`--base HEAD` measures uncommitted work against the last commit.

For every workload of BENCHMARK.json (or those named by --workloads)
the script runs `python3 perfbench/run.py --trace 0` in both trees as
N interleaved pairs, alternating which side goes first, then one
traced run (`--trace 1`) per side. Every run lasts BENCHMARK.json's
`run_seconds` and gets no other run.py arguments, so both sides are
measured with the benchmark as declared. It prints each side's median
and quartiles of every end-to-end metric, the pairs in which the
change was better, and a verdict: "better" or "worse" only if the
median moved by more than the base's own interquartile range *and*
the winning side took at least nine tenths of the pairs, else
"unresolved".

Exit status is 1 if any run is not `correct` or has failed
operations, or if the traced runs differ in any exact count: every
per-layer metric whose BENCHMARK.json unit is `count`, plus
`core.sim_kernel_s` and `tlb.walk_share`. With --out the summary is
also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_EXTRA = ("core.sim_kernel_s", "tlb.walk_share")
WIN_SHARE = 0.9


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_tree(rev, dest):
    """Export the tree of @rev into @dest unless it already holds it."""
    marker = os.path.join(dest, ".perfbench_ab_rev")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == rev:
                return
        sys.exit("perfbench_ab: %s holds another revision" % dest)
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("perfbench_ab: git archive %s failed" % rev)
    with open(marker, "w") as f:
        f.write(rev + "\n")


def run_bench(tree, workload, seed, seconds, trace):
    """One perfbench run in @tree; @return its result object."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench_ab: %s failed in %s (exit %d)"
                 % (" ".join(cmd), tree, done.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fmt_quartiles(q):
    return "%.4g/%.4g/%.4g" % (q["q1"], q["median"], q["q3"])


def summarise(metric, base_vals, change_vals):
    """Median/quartiles per side, pairs won by the change, verdict."""
    lower = metric["better"] == "lower"
    b1, bmed, b3 = quartiles(base_vals)
    c1, cmed, c3 = quartiles(change_vals)
    won = sum(1 for b, c in zip(base_vals, change_vals)
              if (c < b if lower else c > b))
    lost = sum(1 for b, c in zip(base_vals, change_vals)
               if (c > b if lower else c < b))
    diff = cmed - bmed
    better = (diff < 0) == lower
    need = WIN_SHARE * len(base_vals)
    if abs(diff) <= b3 - b1 or (won if better else lost) < need:
        verdict = "unresolved"
    else:
        verdict = "better" if better else "worse"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": {"q1": b1, "median": bmed, "q3": b3, "values": base_vals},
        "change": {"q1": c1, "median": cmed, "q3": c3,
                   "values": change_vals},
        "change_better_pairs": won,
        "median_delta_pct": 100.0 * diff / bmed if bmed else 0.0,
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD^",
                    help="git revision to compare against (HEAD^)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch", default="",
                    help="directory for the base tree (default: temp)")
    ap.add_argument("--out", default="", help="write the summary as JSON")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    exact = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    exact.update(EXACT_EXTRA)

    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    scratch = args.scratch or tempfile.mkdtemp(prefix="perfbench_ab_")
    base_tree = os.path.join(scratch, "base")
    export_tree(rev, base_tree)
    trees = {"base": base_tree, "change": ROOT}
    print("base   %s (%s)\nchange %s (working tree)\n"
          % (rev[:12], base_tree, ROOT), flush=True)

    ok = True
    summary = {"base_rev": rev, "pairs": args.pairs, "seconds": seconds,
               "seed": args.seed, "workloads": {}}
    for w in workloads:
        values = {side: {m["name"]: [] for m in bench["end_to_end"]}
                  for side in trees}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(trees[side], w, args.seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    print("%s %s pair %d: correct=%s failed=%d"
                          % (w, side, i, result["correct"],
                             result["failed"]))
                    ok = False
                for name, vals in values[side].items():
                    vals.append(result["metrics"][name]["value"])
            print("%s pair %d/%d done" % (w, i + 1, args.pairs),
                  file=sys.stderr, flush=True)

        traced = {side: run_bench(trees[side], w, args.seed, seconds, 1)
                  for side in trees}
        for side, result in traced.items():
            if not result["correct"] or result["failed"]:
                print("%s traced %s: correct=%s failed=%d"
                      % (w, side, result["correct"], result["failed"]))
                ok = False
        diffs = {}
        for name in sorted(exact):
            b = traced["base"]["metrics"][name]["value"]
            c = traced["change"]["metrics"][name]["value"]
            if b != c:
                diffs[name] = {"base": b, "change": c}
        if diffs:
            ok = False

        entry = {
            "end_to_end": {m["name"]: summarise(m,
                                                values["base"][m["name"]],
                                                values["change"][m["name"]])
                           for m in bench["end_to_end"]},
            "exact_counts_identical": not diffs,
            "exact_count_diffs": diffs,
            "traced": {side: {k: v["value"]
                              for k, v in r["metrics"].items()}
                       for side, r in traced.items()},
        }
        summary["workloads"][w] = entry

        print("== %s (%d pairs, seed %d, %d s)"
              % (w, args.pairs, args.seed, seconds))
        print("%-20s %-30s %-30s %7s %6s  %s"
              % ("metric", "base q1/median/q3", "change q1/median/q3",
                 "delta%", "wins", "verdict"))
        for name, s in entry["end_to_end"].items():
            print("%-20s %-30s %-30s %+7.1f %3d/%-2d  %s"
                  % (name, fmt_quartiles(s["base"]),
                     fmt_quartiles(s["change"]),
                     s["median_delta_pct"], s["change_better_pairs"],
                     args.pairs, s["verdict"]))
        if diffs:
            for name, d in diffs.items():
                print("EXACT COUNT DIFFERS %s: base %r change %r"
                      % (name, d["base"], d["change"]))
        else:
            print("exact counts identical (%d metrics)" % len(exact))
        print(flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
