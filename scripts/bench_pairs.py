"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --label NAME --parent REV \
        --plan runs_large_d:1:10 runs_large_d:7:3 shots_small_d:1:3 ...

Each plan entry is WORKLOAD:SEED:PAIRS. For every pair, `bench/run.py
--trace 0` runs once on an export of REV (made with `git archive`) and once
on the working tree, as two separate processes; the side that runs first
flips from one pair to the next. Run length is BENCHMARK.json's
`run_seconds`.

The record goes to BENCH_<label>.json at the repository root, rewritten after
every pair. For each workload/seed and each end-to-end metric of
BENCHMARK.json it holds the per-pair values of both sides, each side's
median and quartiles, the pairs the working tree won (ties count for
neither), the relative change of the medians in the metric's worse
direction next to its bound, whether there are enough pairs (ten) for
that bound to be checked at all, and whether a gain would be claimable: at
least ten pairs, wins in at least nine tenths of them, a median gap above
the parent's interquartile range, and no more failed operations on the
working tree than on the parent. It also holds `failed`/`attempted` per run
and the environment block `bench/run.py` records. One invocation writes the
whole record, so every pair in it measures the same two trees; an existing
file of the same label is replaced. Standard library only.

Each pair also compares the output digests of its two runs: for every
invocation index both sides reached (runs are time-bounded, so the sides
reach different counts), the stdout SHA-256 must match. The pair records how
many indices it compared and which keys differed, but not the digests. The
script exits 1 if any pair mismatched.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
MIN_PAIRS_FOR_GAIN = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench/run.py process in `tree`: its result line, and the
    environment block and output digests of its results file."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "bench" / "results" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "environment": record["environment"],
        "digests": record["digests"],
    }


def compare_digests(parent: dict, change: dict) -> dict:
    """The invocation keys both digest maps hold, and those whose digests differ."""
    common = parent.keys() & change.keys()
    return {
        "compared": len(common),
        "mismatched": sorted(k for k in common if parent[k] != change[k]),
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, end_to_end: list) -> dict:
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    out = {}
    for metric in end_to_end:
        name, lower_is_better = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        worse = (cq[1] - pq[1]) / pq[1] * (1 if lower_is_better else -1)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "parent_median": pq[1],
            "parent_quartiles": [pq[0], pq[2]],
            "change_median": cq[1],
            "change_quartiles": [cq[0], cq[2]],
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_worse": worse,
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            # Fewer pairs cannot resolve a bound: read within_bound as unchecked.
            "bound_checked": len(pairs) >= MIN_PAIRS_FOR_GAIN,
            "gain_claimable": (
                len(pairs) >= MIN_PAIRS_FOR_GAIN
                and wins >= 0.9 * len(pairs)
                and -worse * pq[1] > pq[2] - pq[0]
                and failed["change"] <= failed["parent"]
            ),
        }
    return {"failed": failed, "metrics": out}


def pair_line(key: str, pair: dict, summary: dict) -> str:
    """The progress line of the latest pair: runs_per_s of both sides,
    whether the pairs so far can check a bound, and the digest comparison."""
    order = (pair["first"], "change" if pair["first"] == "parent" else "parent")
    rps = {side: round(pair[side]["metrics"]["runs_per_s"], 4) for side in order}
    runs_per_s = summary["metrics"]["runs_per_s"]
    digests = pair["digests"]
    return (f"{key} pair {runs_per_s['pairs']}: runs_per_s {rps}, bound_checked "
            f"{runs_per_s['bound_checked']}, digests "
            f"{len(digests['mismatched'])}/{digests['compared']} mismatched")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--plan", nargs="+", required=True, help="WORKLOAD:SEED:PAIRS")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    plan = [(w, int(s), int(n)) for w, s, n in (entry.split(":") for entry in args.plan)]
    out_path = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "parent_commit": git("rev-parse", args.parent),
        # The change side is the working tree: HEAD plus any uncommitted edits.
        "change_head": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain")),
        "order": "parent first in even pairs (0, 2, ...), change first in odd pairs",
        "environment": None,
        "workloads": {},
    }
    mismatched_pairs = 0
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, seed, count in plan:
            key = f"{workload}/seed{seed}"
            pairs = record["workloads"].setdefault(key, {"pairs": []})["pairs"]
            for _ in range(count):
                order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench_once(trees[side], workload, seed, seconds)
                record["environment"] = record["environment"] or {
                    k: v for k, v in pair["change"]["environment"].items()
                    if k not in ("git_commit", "loadavg_start")
                }
                for side in order:
                    pair[side]["loadavg_start"] = pair[side].pop("environment")["loadavg_start"]
                pair["digests"] = compare_digests(
                    pair["parent"].pop("digests"), pair["change"].pop("digests")
                )
                mismatched_pairs += bool(pair["digests"]["mismatched"])
                pairs.append(pair)
                summary = summarize(pairs, spec["end_to_end"])
                record["workloads"][key].update(summary)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
                print(pair_line(key, pair, summary), flush=True)
    return 1 if mismatched_pairs else 0


if __name__ == "__main__":
    sys.exit(main())
