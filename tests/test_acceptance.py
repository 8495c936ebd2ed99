"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and shot count is pinned here; the statistical
checks run on fixed seeds, so the whole suite is deterministic.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from qss.adversary import AttackSpec, run_attack
from qss.cli import main, resolve_preset
from qss.dealer import DealerConfig, deal, hash_to_field
from qss.errors import PresetInfeasible
from qss.field import PrimeModulus, interpolate_at_zero
from qss.protocol import (
    instance_from_deal,
    instance_from_players,
    instance_from_shadows,
)
from qss.qudit import (
    RegisterLayout,
    QuditState,
    apply_copy,
    apply_iqft,
    apply_qft,
    apply_shadow_phase,
)


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def grid_cells():
    """Every (d, t, n, subset, secret) cell of the recovery criterion."""
    for d in (2, 3, 5, 7, 11):
        max_n = min(6, d - 1)
        for n in range(1, max_n + 1):
            for t in range(1, min(4, n) + 1):
                if d <= 7:
                    secrets = list(range(d))
                else:
                    secrets = [int(s) for s in np.random.default_rng(d).integers(0, d, size=50)]
                for secret in secrets:
                    seed = ((d * 31 + t) * 31 + n) * 31 + secret
                    for subset in itertools.combinations(range(1, n + 1), t):
                        yield d, t, n, subset, secret, seed


@pytest.fixture(scope="module")
def recovery_grid():
    """Run the full honest grid once; criteria 1 and 4 slice it."""
    records = []
    start = time.perf_counter()
    deals = {}
    for d, t, n, subset, secret, seed in grid_cells():
        key = (d, t, n, secret, seed)
        if key not in deals:
            packets = deal(
                DealerConfig(n=n, t=t, secret=secret, rng_seed=seed, d_override=d)
            )
            deals[key] = {p.player_id: p for p in packets}
        players = [deals[key][i] for i in subset]
        transcript = instance_from_players(players).run(seed=seed + 1)
        records.append((d, t, n, subset, secret, players, transcript))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_correct_recovery(recovery_grid):
    records, elapsed = recovery_grid
    bad = [
        (d, t, n, subset, secret)
        for d, t, n, subset, secret, _, tr in records
        if not (tr.accepted and tr.f0 == secret)
    ]
    ok = not bad and elapsed < 60.0
    report(
        1,
        "correct recovery on every instance",
        ok,
        f"{len(records)} runs, {len(bad)} wrong, {elapsed:.1f}s",
    )


def test_criterion_2_shot_determinism(tmp_path):
    ok = True
    details = []
    for n in (3, 4):
        for c in (1, 2, 3):
            out = tmp_path / f"preset-{n}-{c}.json"
            start = time.perf_counter()
            code = main(
                [
                    "simulate", "--preset", f"players-{n}", "--c", str(c),
                    "--seed", "1", "--out", str(out),
                ]
            )
            elapsed = time.perf_counter() - start
            blob = json.loads(out.read_text())
            expected = str(blob["expected"])
            good = (
                code == 0
                and blob["shots"] == 8192
                and blob["histogram"] == {expected: 8192}
                and blob["ancilla_all_zero"]
                and elapsed < 30.0
            )
            ok = ok and good
            details.append(f"players-{n}/c{c}:d={blob['resolved']['d']} {elapsed:.1f}s")
    for c in (1, 2, 3):
        with pytest.raises(PresetInfeasible):
            resolve_preset(15, c)
    code15 = main(["simulate", "--preset", "players-15", "--c", "1"])
    ok = ok and code15 == 2
    report(2, "8192/8192 shots on the shadow sum", ok, "; ".join(details))


def test_criterion_3_qft_round_trip():
    rng = np.random.default_rng(20240303)
    worst_rt, worst_norm = 0.0, 0.0
    for d in (2, 3, 5, 7, 13):
        lay = RegisterLayout(d=d, registers=("H", "T"))
        for _ in range(100):
            amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            psi = QuditState.from_amplitudes(lay, amps / np.linalg.norm(amps))
            back = apply_iqft(apply_qft(psi, "H"), "H")
            worst_rt = max(worst_rt, float(np.linalg.norm(back.amplitudes - psi.amplitudes)))
            for gate in (
                lambda s: apply_qft(s, "T"),
                lambda s: apply_iqft(s, "H"),
                lambda s: apply_copy(s, "H", "T"),
                lambda s: apply_shadow_phase(s, "T", 1),
            ):
                worst_norm = max(worst_norm, abs(gate(psi).norm() - 1.0))
    ok = worst_rt < 1e-10 and worst_norm < 1e-9
    report(3, "QFT round trip and unitarity", ok, f"rt={worst_rt:.2e} norm={worst_norm:.2e}")


def test_criterion_4_classical_oracle_equivalence(recovery_grid):
    records, _ = recovery_grid
    mismatches = 0
    for d, t, n, subset, secret, players, tr in records:
        via_sum = instance_from_players(players).expected_value("secret")
        points = [(p.player_id, p.f_share) for p in players]
        via_interp = interpolate_at_zero(points, players[0].modulus)
        if not (tr.f0 == via_sum == via_interp):
            mismatches += 1
    report(
        4,
        "quantum path equals both classical oracles",
        mismatches == 0,
        f"{len(records)} instances, {mismatches} mismatches",
    )


def test_criterion_5_intercept_resend_statistics():
    shots = 100_000
    start = time.perf_counter()
    inst = instance_from_deal(
        DealerConfig(n=4, t=3, secret=2, rng_seed=50, d_override=5)
    )
    rep = run_attack(
        inst,
        AttackSpec(kind="intercept_resend", shots=shots, seed=51, hypotheses=(1, 3)),
    )
    elapsed = time.perf_counter() - start
    sigma = math.sqrt((1 / 5) * (4 / 5) / shots)
    per_bin_ok = all(
        abs(rep.outcome_histogram.get(v, 0) / shots - 1 / 5) <= 4 * sigma
        for v in range(5)
    )
    ok = (
        sum(rep.outcome_histogram.values()) == shots
        and per_bin_ok
        and rep.chi2_pvalue > 1e-3
        and rep.leakage < 0.02
        and elapsed < 120.0
    )
    report(
        5,
        "intercept-resend uniform and share-independent",
        ok,
        f"p={rep.chi2_pvalue:.3f} tv={rep.leakage:.4f} {elapsed:.1f}s",
    )


def test_criterion_6_forgery_detection():
    d, secret, shots = 5, 1, 10_000
    start = time.perf_counter()
    mod = PrimeModulus(d)
    h = hash_to_field(secret, mod)
    ground_truth = sum(
        1
        for delta in range(1, d)
        if hash_to_field((secret + delta) % d, mod) != h
    ) / (d - 1)
    inst = instance_from_deal(
        DealerConfig(n=4, t=3, secret=secret, rng_seed=60, d_override=d)
    )
    rep = run_attack(inst, AttackSpec(kind="forgery", shots=shots, seed=61))
    elapsed = time.perf_counter() - start
    sigma = math.sqrt(ground_truth * (1 - ground_truth) / shots)
    ok = (
        ground_truth >= 1 - 1 / d - 0.05
        and abs(rep.detection_rate - ground_truth) <= 4 * sigma
        and elapsed < 60.0
    )
    report(
        6,
        "forgery detection matches exhaustive rate",
        ok,
        f"truth={ground_truth} empirical={rep.detection_rate} {elapsed:.1f}s",
    )


def hand_evolved_d2_ancilla_failure(s1):
    """Exact 4-dim evolution of the d=2 intercept attack, plain numpy."""
    h_mat = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    amp = np.zeros((2, 2), dtype=complex)
    amp[s1, 0] = 1.0
    amp = np.einsum("hs,st->ht", h_mat, amp)
    amp = np.stack([amp[0, [0, 1]], amp[1, [1, 0]]])  # copy t -> h xor t
    amp = amp @ h_mat.conj().T  # adversary iQFT on T
    fail = 0.0
    for m in (0, 1):
        branch = np.zeros_like(amp)
        branch[:, m] = amp[:, m]
        p_m = float(np.sum(np.abs(branch) ** 2))
        branch /= math.sqrt(p_m)
        uncopied = np.stack([branch[0, [0, 1]], branch[1, [1, 0]]])
        fail += p_m * float(np.sum(np.abs(uncopied[:, 1]) ** 2))
    return fail


def test_criterion_7_tamper_detection_at_ancilla_check():
    assert abs(hand_evolved_d2_ancilla_failure(0) - 0.5) < 1e-12
    assert abs(hand_evolved_d2_ancilla_failure(1) - 0.5) < 1e-12
    shots = 10_000
    instances = {
        2: instance_from_shadows(2, (1, 0), (1, 1)),
        3: instance_from_deal(DealerConfig(n=2, t=2, secret=1, rng_seed=70, d_override=3)),
        5: instance_from_deal(DealerConfig(n=4, t=3, secret=2, rng_seed=71, d_override=5)),
    }
    ok = True
    details = []
    for d, inst in instances.items():
        rep = run_attack(
            inst, AttackSpec(kind="intercept_iqft", shots=shots, seed=72 + d)
        )
        p = (d - 1) / d
        sigma = math.sqrt(p * (1 - p) / shots)
        good = abs(rep.ancilla_abort_rate - p) <= 4 * sigma
        ok = ok and good
        details.append(f"d={d}: {rep.ancilla_abort_rate:.3f} vs {p:.3f}")
    report(7, "collapse attacks trip the ancilla check", ok, "; ".join(details))


def test_criterion_8_collusion_indistinguishability():
    shots = 30_000
    start = time.perf_counter()
    inst = instance_from_shadows(3, (1, 2, 0, 1), (0, 0, 0, 0))
    rep = run_attack(
        inst,
        AttackSpec(kind="collusion_probe", shots=shots, seed=80, player_id=3, hypotheses=(0, 2)),
    )
    elapsed = time.perf_counter() - start
    ok = rep.leakage < 0.03
    report(
        8,
        "colluders' views independent of the middle shadow",
        ok,
        f"tv={rep.leakage:.4f} {elapsed:.1f}s",
    )
