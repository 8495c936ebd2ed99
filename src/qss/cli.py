"""Command-line front end: honest runs, shot-count simulation presets,
attack scenarios, and parameter sweeps. All outputs are deterministic for a
fixed seed; JSON files are written with sorted keys so reruns are
byte-identical. A sweep deals the consecutive cells of each d, whatever
their t, as one array and runs them as one batch through the protocol engine
(a batch of bounded size, MAX_BATCH_POINTS). A sweep of enough cells runs
them in worker processes, one per CPU the process may use, and writes the
same bytes as a run in one process.
The argument parser is built once, when the module is imported, and
main(argv) may be called repeatedly in one process.

Exit codes: 0 success/accepted, 1 protocol abort, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial
from itertools import groupby

import numpy as np

from . import __version__
from .adversary import ATTACK_KINDS, AttackSpec, run_attack, tally
from .dealer import DealerConfig, choose_modulus
from .errors import PresetInfeasible, QssError
from .field import is_prime
from .protocol import (
    HOME, TRANSMITTED, VERDICT_ACCEPTED, ProtocolInstance, instance_from_deal,
    instances_from_deals, split_batch, split_shot_series,
)
from .qudit import RegisterLayout

PRESET_PLAYERS = (3, 4, 15)
MAX_PRESET_QUBITS = 3
# A sweep holds about 1.1 kB per cell (cell, seed and row): 2**20 cells is 1 GB.
MAX_SWEEP_CELLS = 2**20
# Starting and joining a pool of two sweep workers takes 9.5-20 ms on a 2-vCPU
# Xeon host, the time of 52-134 batched cells of 0.15-0.20 ms each, 65-87 in
# the medians of five runs (scripts/sweep_pool_cost.py); a worker given fewer
# cells would not repay its start-up.
MIN_CELLS_PER_WORKER = 75
# A sweep batch holds at most this many support points: its cells times d,
# the points of each cell's state after P1's QFT. Without it, `sweep --d-max
# 1021 --t-max 13 --n-max 1020`, within MAX_SWEEP_CELLS, would walk d = 1021
# as one batch of 13.5M points, over half a gigabyte of state.
MAX_BATCH_POINTS = 2**18
# Chunks of cells handed out per worker, so that one slow chunk (cells grow
# dearer along the list) does not leave the other workers idle.
CHUNKS_PER_WORKER = 4


def resolve_preset(n: int, c: int) -> tuple[int, int, bool]:
    """Map a (players, qubits) preset to a concrete modulus.

    Picks the largest prime that needs exactly c qubits and exceeds n. When
    that fails, falls back to the dealer's default modulus provided it still
    fits in the preset family's 3-qubit envelope; otherwise the preset is
    infeasible. Returns (d, resolved c, fallback flag).
    """
    lo, hi = 2 ** (c - 1), 2**c
    for p in range(hi, lo, -1):
        if p > n and is_prime(p):
            return p, c, False
    d = choose_modulus(n).d
    c_fb = (d - 1).bit_length()
    if c_fb > MAX_PRESET_QUBITS:
        raise PresetInfeasible(
            f"no prime above {n} players fits in {MAX_PRESET_QUBITS} qubits "
            f"(requested c={c})"
        )
    return d, c_fb, True


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _envelope(args: argparse.Namespace, **body) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"version": __version__, "config": config, "seed": args.seed, **body}


def _instance(args: argparse.Namespace, n: int, t: int, d: int | None) -> ProtocolInstance:
    """The instance `run`, `simulate` and `attack` run: P1..Pt of a deal of
    --secret among n players, the dealer seeded with --seed."""
    config = DealerConfig(n=n, t=t, secret=args.secret, rng_seed=args.seed, d_override=d)
    return instance_from_deal(config)


def cmd_run(args: argparse.Namespace) -> int:
    instance = _instance(args, args.n, args.t, args.d)
    transcript = instance.run(seed=args.seed)
    _emit(_envelope(args, transcript=transcript.to_json()), args.out)
    return 0 if transcript.accepted else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.preset is not None:
        if (args.n, args.t, args.d) != (None, None, None):
            raise QssError("--preset fixes n, t and d; drop --n, --t and --d")
        n = int(args.preset.split("-", 1)[1])
        d, c, fallback = resolve_preset(n, args.c)
        t = n
    else:
        if args.n is None or args.t is None or args.d is None:
            raise QssError("explicit simulation needs --n, --t and --d")
        n, t, d = args.n, args.t, args.d
        c, fallback = (d - 1).bit_length(), False
    instance = _instance(args, n, t, d)
    series = split_shot_series(instance, args.shots, args.seed)
    histogram = tally(series.secret, lambda leaf: leaf.value)
    runs = series.runs
    expected = instance.expected_value("secret")
    payload = _envelope(
        args,
        resolved={"n": n, "t": t, "d": d, "c": c, "fallback": fallback, "secret": args.secret},
        shots=args.shots,
        histogram={str(k): v for k, v in sorted(histogram.items(), key=lambda kv: str(kv[0]))},
        expected=expected,
        all_correct=all(run.verdict == VERDICT_ACCEPTED and run.f0 == expected for run in runs),
        ancilla_all_zero=all(all(a == 0 for a in run.ancilla) for run in runs),
    )
    _emit(payload, args.out)
    return 0 if payload["all_correct"] else 1


def cmd_attack(args: argparse.Namespace) -> int:
    spec = AttackSpec(
        kind=args.attack,
        hop_index=args.hop,
        player_id=args.player,
        shots=args.shots,
        seed=args.seed,
        hypotheses=tuple(args.hypotheses) if args.hypotheses else None,
        escalate=args.escalate,
    )
    report = run_attack(_instance(args, args.n, args.t, args.d), spec)
    _emit(_envelope(args, report=report.to_json()), args.out)
    return 0


def _sweep_cells(d_max: int, t_max: int, n_max: int) -> list[tuple[int, int, int]]:
    """The (d, t, n) cells of a sweep, prime d up to d_max and t <= n < d, in
    output order; work grows with the cells listed, not with the bounds, and
    more than MAX_SWEEP_CELLS are refused before any is listed."""
    if t_max < 1 or n_max < 1:
        return []
    # Every prime d has the cell (d, 1, 1), so the largest modulus is the
    # largest prime up to d_max: fail on it before listing any cell.
    top = next((p for p in range(d_max, 1, -1) if is_prime(p)), None)
    if top is None:
        return []
    RegisterLayout(d=top, registers=(HOME, TRANSMITTED))
    primes = [p for p in range(2, top) if is_prime(p)] + [top]
    # Cell (d, t, n) has t <= n < d, so the cells of (d, t) number min(n_max + 1, d) - t.
    count = sum(max(0, min(n_max + 1, d) - t) for d in primes for t in range(1, min(t_max + 1, d)))
    if count > MAX_SWEEP_CELLS:
        raise QssError(f"sweep has {count} cells, above the cap of {MAX_SWEEP_CELLS}")
    return [
        (d, t, n)
        for d in primes
        for t in range(1, min(t_max, d - 1) + 1)
        for n in range(t, min(n_max, d - 1) + 1)
    ]


def _sweep_rows(seed: int, start: int, cells: list[tuple[int, int, int]]) -> list[dict]:
    """The rows of `cells`, which are cells start, start + 1, ... of the sweep.
    Cell i draws from SeedSequence(seed, spawn_key=(i,)), which is child i of
    SeedSequence(seed).spawn(...), so any contiguous chunk of cells can be run
    on its own, in any process, and gives the rows it would give in a serial run.
    Consecutive cells of equal d, whatever their t, are dealt as one array
    (protocol.instances_from_deals) and run as one batch of one-shot series
    (protocol.split_batch), each member drawing as a run of its own would; a
    batch holds at most MAX_BATCH_POINTS // d cells."""
    rows = []
    for d, group in groupby(enumerate(cells, start), key=lambda cell: cell[1][0]):
        group = list(group)
        size = max(1, MAX_BATCH_POINTS // d)
        for batch in (group[k:k + size] for k in range(0, len(group), size)):
            rows += _batch_rows(seed, d, batch)
    return rows


def _batch_rows(seed: int, d: int, batch: list[tuple[int, tuple[int, int, int]]]) -> list[dict]:
    """The rows of the numbered cells of one batch, all of modulus d."""
    configs, seeds, rngs = [], [], []
    for i, (_, t, n) in batch:
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        seeds.append(int(child.generate_state(1, dtype=np.uint64)[0]))
        rngs.append(np.random.default_rng(seeds[-1]))
        secret = int(rngs[-1].integers(d))
        # A dealer seeded with the cell seed would draw the secret again as a1.
        dealer_seed = int(rngs[-1].integers(2**63))
        configs.append(DealerConfig(n=n, t=t, secret=secret, rng_seed=dealer_seed, d_override=d))
    instances = instances_from_deals(configs)
    series = split_batch(instances, [1] * len(instances), rngs)
    rows = []
    for config, cell_seed, instance, part in zip(configs, seeds, instances, series):
        (run,) = part.runs
        rows.append({
            "d": d, "t": config.t, "n": config.n, "seed": cell_seed,
            "verdict": run.verdict, "f0": run.f0,
            "expected": instance.expected_value("secret"),
            "correct": run.f0 == config.secret and run.verdict == VERDICT_ACCEPTED,
        })
    return rows


def _sweep_workers(cells: int) -> int:
    """Worker processes for a sweep of `cells` cells: one per CPU this process
    may run on, as long as each gets MIN_CELLS_PER_WORKER cells; 1 means the
    sweep runs in this process, as it does where fork is unavailable."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    workers = min(len(os.sched_getaffinity(0)), cells // MIN_CELLS_PER_WORKER)
    if workers < 2:
        return 1
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    cells = _sweep_cells(args.d_max, args.t_max, args.n_max)
    workers = _sweep_workers(len(cells))
    if workers == 1:
        rows = _sweep_rows(args.seed, 0, cells)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        np.random.SeedSequence(args.seed)  # a bad seed fails before any worker starts
        # Contiguous chunks keep each worker on one d at a time (cells are
        # listed by d, and qudit caches the QFT table of one d); several per
        # worker even out the cost, which grows with t and d along the list.
        size = -(-len(cells) // (workers * CHUNKS_PER_WORKER))
        starts = range(0, len(cells), size)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            chunks = pool.map(
                partial(_sweep_rows, args.seed), starts, [cells[i:i + size] for i in starts]
            )
            rows = [row for chunk in chunks for row in chunk]
    if args.format == "json":
        _emit(_envelope(args, rows=rows), args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["d", "t", "n", "seed", "verdict", "f0", "expected", "correct"]
        )
        writer.writeheader()
        writer.writerows(rows)
        _write(buf.getvalue(), args.out)
    return 0 if all(r["correct"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss",
        description="Threshold d-level quantum secret sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="deal and run one reconstruction")
    run_p.add_argument("--n", type=int, required=True, help="number of players")
    run_p.add_argument("--t", type=int, required=True, help="threshold")
    run_p.add_argument("--secret", type=int, required=True)
    run_p.add_argument("--d", type=int, default=None, help="pin the prime modulus")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    run_p.set_defaults(func=cmd_run)

    sim_p = sub.add_parser("simulate", help="shot-count experiment presets")
    sim_p.add_argument(
        "--preset", choices=[f"players-{n}" for n in PRESET_PLAYERS], default=None
    )
    sim_p.add_argument("--c", type=int, choices=(1, 2, 3), default=3, help="register width in qubits")
    sim_p.add_argument("--n", type=int, default=None)
    sim_p.add_argument("--t", type=int, default=None)
    sim_p.add_argument("--d", type=int, default=None)
    sim_p.add_argument("--secret", type=int, default=1)
    sim_p.add_argument("--shots", type=int, default=8192)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--out", default=None)
    sim_p.set_defaults(func=cmd_simulate)

    atk_p = sub.add_parser("attack", help="run an attack scenario")
    atk_p.add_argument("--attack", choices=ATTACK_KINDS, required=True)
    atk_p.add_argument("--n", type=int, required=True)
    atk_p.add_argument("--t", type=int, required=True)
    atk_p.add_argument("--secret", type=int, default=1)
    atk_p.add_argument("--d", type=int, default=None)
    atk_p.add_argument("--hop", type=int, default=0, help="0-based hop to intercept")
    atk_p.add_argument("--player", type=int, default=None, help="target player position")
    atk_p.add_argument("--shots", type=int, default=8192)
    atk_p.add_argument("--seed", type=int, default=0)
    atk_p.add_argument(
        "--hypotheses", type=int, nargs=2, default=None,
        help="two shadow values to condition the leakage statistic on",
    )
    atk_p.add_argument("--escalate", action="store_true", help="colluders disturb the ring")
    atk_p.add_argument("--out", default=None)
    atk_p.set_defaults(func=cmd_attack)

    swp_p = sub.add_parser("sweep", help="cross product of (d, t, n) honest runs to CSV")
    swp_p.add_argument("--d-max", type=int, default=11)
    swp_p.add_argument("--t-max", type=int, default=4)
    swp_p.add_argument("--n-max", type=int, default=6)
    swp_p.add_argument("--seed", type=int, default=0)
    swp_p.add_argument("--out", default=None)
    swp_p.add_argument("--format", choices=("json", "csv"), default="csv")
    swp_p.set_defaults(func=cmd_sweep)

    return parser


# parse_args keeps no state between calls, so one parser serves every call.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # An --out outside any directory, or naming one, fails before the
        # command does work.
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise QssError(f"--out {args.out!r}: its parent is not a directory")
        if args.out and os.path.isdir(args.out):
            raise QssError(f"--out {args.out!r} is a directory")
        return args.func(args)
    except (QssError, ValueError, OSError) as exc:  # OSError: --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
