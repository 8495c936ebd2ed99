"""The benchmark's workloads: which `qss` CLI invocations each one makes, how
many two-pass reconstructions each output accounts for, and the checks that
decide whether an output is correct.

A workload seed fixes the whole invocation sequence: every invocation's
`--seed` and `--secret` are drawn from a generator seeded with the workload
name and seed. Expected values are computed here, independently of `qss`.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

Check = Callable[[int, str], list]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    # Two-pass reconstructions the output accounts for, counted from the
    # inputs so that a program that computes a distribution instead of
    # sampling it gets the same credit.
    runs: int
    # (exit code, captured stdout) -> list of problems; empty means correct.
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    # One cycle of invocations; timed runs repeat whole cycles.
    cycle: Callable[[random.Random, str], list]
    # Cycles a full-size timed run makes at least, and cycles a full-size
    # traced run makes; smoke-size runs make one of each.
    min_cycles: int
    trace_cycles: int


# ---------------------------------------------------------------- references


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def hash_to_field(secret: int, d: int) -> int:
    """SHA1 of the 8-byte big-endian secret, reduced mod d (the dealer's hash)."""
    return int.from_bytes(hashlib.sha1(secret.to_bytes(8, "big")).digest(), "big") % d


def preset_modulus(n: int, c: int) -> int:
    """Largest prime needing exactly c qubits that exceeds n."""
    return next(p for p in range(2**c, 2 ** (c - 1), -1) if p > n and is_prime(p))


def forgery_detection_rate(secret: int, d: int) -> float:
    """Exhaustive share of wrong secrets whose hash differs from the true one."""
    h = hash_to_field(secret, d)
    return sum(hash_to_field((secret + k) % d, d) != h for k in range(1, d)) / (d - 1)


def sweep_cells(d_max: int, t_max: int, n_max: int) -> list:
    return [
        (d, t, n)
        for d in range(2, d_max + 1)
        if is_prime(d)
        for t in range(1, t_max + 1)
        for n in range(t, n_max + 1)
        if n < d
    ]


# -------------------------------------------------------------------- checks


def _payload(rc: int, text: str, problems: list) -> dict:
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return {}


def _within_4_sigma(observed: float, p: float, shots: int) -> bool:
    return abs(observed - p) <= 4 * math.sqrt(p * (1 - p) / shots)


def check_run(secret: int, d: int) -> Check:
    """Honest run: accepted, both ancillas 0, f0 equal to the secret."""

    def check(rc: int, text: str) -> list:
        problems: list = []
        tr = _payload(rc, text, problems).get("transcript", {})
        if (tr.get("d"), tr.get("verdict"), tr.get("f0"), tr.get("ancilla")) != (
            d, "accepted", secret, [0, 0]
        ):
            problems.append(f"run: expected accepted f0={secret} at d={d}, got {tr}")
        return problems

    return check


def check_simulate(n: int, c: int, secret: int, shots: int) -> Check:
    """Honest shot series: every shot accepted on the secret."""
    d = preset_modulus(n, c)

    def check(rc: int, text: str) -> list:
        problems: list = []
        payload = _payload(rc, text, problems)
        hist = payload.get("histogram", {})
        if sum(hist.values()) != shots:
            problems.append(f"simulate: histogram sums to {sum(hist.values())}, not {shots}")
        got = (
            payload.get("resolved", {}).get("d"),
            payload.get("expected"),
            payload.get("all_correct"),
            payload.get("ancilla_all_zero"),
            hist,
        )
        if got != (d, secret, True, True, {str(secret): shots}):
            problems.append(f"simulate: expected every shot on {secret} at d={d}, got {got}")
        return problems

    return check


def check_attack(kind: str, d: int, secret: int, shots: int, hypotheses: bool) -> Check:
    """Attack report: histograms sum to the shot count; the intercept_iqft
    ancilla-abort rate and the forgery detection rate lie within 4 sigma of
    their exact values, (d-1)/d and the exhaustive hash-collision rate."""

    def check(rc: int, text: str) -> list:
        problems: list = []
        report = _payload(rc, text, problems).get("report", {})
        if report.get("kind") != kind or report.get("shots") != shots:
            problems.append(f"{kind}: report is for {report.get('kind')} x {report.get('shots')}")
        total = sum(report.get("outcome_histogram", {}).values())
        if total != shots:
            problems.append(f"{kind}: histogram sums to {total}, not {shots}")
        for h in report.get("extra", {}).get("hypothesis_histograms", []):
            if sum(h.values()) != shots:
                problems.append(f"{kind}: hypothesis histogram sums to {sum(h.values())}")
        leakage = report.get("leakage")
        if hypotheses != (leakage is not None) or (leakage is not None and not 0 <= leakage <= 1):
            problems.append(f"{kind}: leakage {leakage} with hypotheses={hypotheses}")
        if kind == "intercept_iqft":
            p, rate = (d - 1) / d, report.get("ancilla_abort_rate", -1.0)
            if not _within_4_sigma(rate, p, shots):
                problems.append(f"{kind}: ancilla-abort rate {rate} not within 4 sigma of {p}")
        if kind == "forgery":
            p, rate = forgery_detection_rate(secret, d), report.get("detection_rate", -1.0)
            if not _within_4_sigma(rate, p, shots):
                problems.append(f"{kind}: detection rate {rate} not within 4 sigma of {p}")
        return problems

    return check


def check_sweep(d_max: int, t_max: int, n_max: int) -> Check:
    """Sweep: one row per (d, t, n) cell in order, each accepted on the secret
    its cell seed draws."""
    cells = sweep_cells(d_max, t_max, n_max)

    def check(rc: int, text: str) -> list:
        problems: list = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(cells):
            problems.append(f"sweep: {len(rows)} rows for {len(cells)} cells")
        for row, (d, t, n) in zip(rows, cells):
            secret = int(np.random.default_rng(int(row["seed"])).integers(d))
            got = (int(row["d"]), int(row["t"]), int(row["n"]), row["verdict"], row["f0"],
                   row["expected"], row["correct"])
            if got != (d, t, n, "accepted", str(secret), str(secret), "True"):
                problems.append(f"sweep: cell {(d, t, n)} secret {secret}: row {got}")
        return problems

    return check


# ----------------------------------------------------------------- workloads


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _simulate(rng: random.Random, preset_n: int, shots: int) -> Invocation:
    secret = rng.randrange(preset_modulus(preset_n, 3))
    argv = ("simulate", "--preset", f"players-{preset_n}", "--c", "3",
            "--shots", str(shots), "--secret", str(secret), "--seed", _seed(rng))
    return Invocation(argv, shots, check_simulate(preset_n, 3, secret, shots))


def _attack(rng: random.Random, kind: str, n: int, t: int, d: int, shots: int,
            extra: tuple = (), hypotheses: tuple | None = None) -> Invocation:
    secret = rng.randrange(d)
    argv = ("attack", "--attack", kind, "--n", str(n), "--t", str(t), "--d", str(d),
            "--shots", str(shots), "--secret", str(secret), *extra)
    if hypotheses is not None:
        argv += ("--hypotheses", *map(str, hypotheses))
    argv += ("--seed", _seed(rng))
    runs = shots * (3 if hypotheses is not None else 1)
    return Invocation(argv, runs, check_attack(kind, d, secret, shots, hypotheses is not None))


def shots_small_d(rng: random.Random, scale: str) -> list:
    shots = {"full": 500, "smoke": 40}[scale]
    return [
        _simulate(rng, 3, shots),
        _simulate(rng, 4, shots),
        _attack(rng, "intercept_resend", 4, 3, 5, shots, hypotheses=(1, 3)),
        _attack(rng, "intercept_iqft", 4, 3, 5, shots),
        _attack(rng, "forgery", 4, 3, 5, shots),
        _attack(rng, "collusion_probe", 4, 4, 5, shots, ("--player", "3"), (0, 2)),
    ]


def runs_large_d(rng: random.Random, scale: str) -> list:
    return [_run(rng, 509) for _ in range({"full": 5, "smoke": 2}[scale])]


def _run(rng: random.Random, d: int) -> Invocation:
    secret = rng.randrange(d)
    argv = ("run", "--n", "8", "--t", "5", "--d", str(d), "--secret", str(secret),
            "--seed", _seed(rng))
    return Invocation(argv, 1, check_run(secret, d))


def sweep_grid(rng: random.Random, scale: str) -> list:
    d_max, t_max, n_max = {"full": (97, 8, 16), "smoke": (11, 4, 6)}[scale]
    argv = ("sweep", "--d-max", str(d_max), "--t-max", str(t_max), "--n-max", str(n_max),
            "--seed", _seed(rng))
    return [Invocation(argv, len(sweep_cells(d_max, t_max, n_max)),
                       check_sweep(d_max, t_max, n_max))]


def entangle_3reg(rng: random.Random, scale: str) -> list:
    return [_attack(rng, "entangle_measure", 4, 3, 127, 1, hypotheses=(1, 3))]


# Why each workload: BENCHMARK.json states it; the per-layer metric each one
# should move is listed in bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("shots_small_d", shots_small_d, min_cycles=1, trace_cycles=1),
        Workload("runs_large_d", runs_large_d, min_cycles=20, trace_cycles=8),
        Workload("sweep_grid", sweep_grid, min_cycles=1, trace_cycles=1),
        Workload("entangle_3reg", entangle_3reg, min_cycles=3, trace_cycles=3),
    )
}


def invocations(name: str, seed: int, scale: str):
    """Endless stream of cycles (lists of invocations) for a workload and seed."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield workload.cycle(rng, scale)
