"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at its smallest size, untraced and
traced, and requires each to pass its checks and to emit exactly the metrics
BENCHMARK.json names, with their units. Then feeds real outputs to checks
built with a wrong expected value and requires every one of them to fail.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import random
import sys

import run
import workloads


def fail(message: str) -> None:
    sys.exit(f"FAIL: {message}")


def check_workloads(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run_benchmark(name, seed=1, seconds=0, trace=trace, scale="smoke")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{name} trace={trace:d}: metrics differ from {key}: "
                     f"missing {sorted(want.keys() - got.keys())}, "
                     f"extra {sorted(got.keys() - want.keys())}, "
                     f"units {[k for k in want.keys() & got.keys() if want[k] != got[k]]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace={trace:d}: {result['failed']} of {result['attempted']} failed")
            print(f"ok {name} trace={trace:d}: {len(got)} metrics, "
                  f"{result['attempted']} invocations checked")


def check_wrong_expectations() -> None:
    """Each pair is (invocation, check of its real output with a wrong
    expected value); the right check must pass and the wrong one fail."""
    cli = run.load_cli()
    rng = random.Random(0)
    large = workloads.runs_large_d(rng, "smoke")[0]
    secret = int(large.argv[large.argv.index("--secret") + 1])
    simulate = workloads.shots_small_d(rng, "smoke")[0]
    sweep = workloads.sweep_grid(rng, "smoke")[0]
    cases = [
        ("run with a wrong secret", large, workloads.check_run((secret + 1) % 509, 509)),
        ("simulate with a wrong shot count", simulate,
         workloads.check_simulate(3, 3, int(simulate.argv[simulate.argv.index("--secret") + 1]),
                                  41)),
        ("sweep with a wrong grid", sweep, workloads.check_sweep(11, 4, 5)),
    ]
    for label, inv, wrong_check in cases:
        right = run.execute(cli, inv, 0)
        if right["problems"]:
            fail(f"{label}: the right check fails: {right['problems']}")
        wrong = run.execute(cli, workloads.Invocation(inv.argv, inv.runs, wrong_check), 0)
        if not wrong["problems"]:
            fail(f"{label}: the check passed")
        print(f"ok {label}: caught ({wrong['problems'][0][:80]})")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_wrong_expectations()
    print("selftest passed")


if __name__ == "__main__":
    main()
