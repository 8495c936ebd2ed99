"""Attack scenarios as channel hooks plus empirical detection/leakage stats.

run_attack is the one way to run an attack: it checks the spec against the
instance and hands it to the runner its kind names. A runner builds the
attacked ring (a channel with the attack hooks installed, or forged shadows),
simulates a shot series drawing from one generator seeded once per series,
and distills it into an AttackReport. The three intercept kinds share one
runner and differ only in their channels: each installs its own hook, and
entangle-measure's alone has an adversary (protocol.Channel), whose
register E is read out after P1's uncopy. They and collusion observe the
ring, and _observe runs their series and, given two hypotheses, the secret
pass with a shadow forced to each. "Information gain" is the
total-variation distance between the observations under the two;
"detected" means any abort.

Every series starts at protocol.split_batch, which walks each distinct
measurement branch once: at every measurement one multinomial draw splits
the shots across the outcomes. The series comes back factored by pass (a
protocol.ShotSeries), with the law of running every shot on its own to
within 5e-13 per outcome, as the engine snaps each law to a 1e-12 grid. A
report counts shots from it without building a transcript: tally weighs each
secret-pass leaf by its shots (every attacker observation is made in the
secret pass), and the verdicts, the rates and series_digest come from its
shots per RunOutcome (`runs`). Forgery runs one series per forged value, all
in one batch, so these take a list of series. A hypothesis series is only
tallied, so it draws the secret pass alone (secret_pass).

run_shot_series runs every shot on its own: it walks each pass of each shot
through run_pass with a one-shot policy that draws the outcome by inverse
CDF (qudit.draw_outcome), and calls neither ProtocolInstance.run nor the
splitting engine. It returns one one-shot series per shot, built by the
engine's protocol.shot_series, which makes no draw for one shot, so the
same counters read it. It is the per-shot reference the tests check the
engine against, but not an independent one: it shares run_pass, the gates
and shot_series with the engine, so it checks the split draws and the
pairing, not the walk. It and AttackSpec take the engine's shot rule
(protocol.check_shots), and AttackSpec the int rule (field.check_int), keeping
the ints it checked.

An attack hook is a tuple of steps (see protocol.Channel); its gates look up
the qudit gate when called, so a wrapper installed on the gate sees them.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValueOutOfRange
from .field import check_int
from .protocol import (
    ADVERSARY,
    Channel,
    Measure,
    PassResult,
    ProtocolInstance,
    ShotSeries,
    TRANSMITTED,
    VERDICT_ABORT_HASH,
    VERDICT_ACCEPTED,
    check_shots,
    run_pass,
    secret_pass,
    shot_series,
    split_batch,
    split_shot_series,
)
from .qudit import QuditState, apply_copy, apply_iqft, draw_outcome


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    hop_index: int = 0
    player_id: int | None = None
    shots: int = 8192
    seed: int = 0
    # Two shadow values to condition the leakage statistic on; None skips it.
    hypotheses: tuple[int, int] | None = None
    # Collusion only: colluders disturb the ring (Fourier-basis intercept).
    escalate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        check_shots([self.shots])
        for what in ("shots", "hop_index", "player_id"):
            if getattr(self, what) is not None:
                object.__setattr__(self, what, check_int(what, getattr(self, what)))
        if self.hypotheses is not None:
            hypotheses = tuple(check_int("hypothesis", h) for h in self.hypotheses)
            object.__setattr__(self, "hypotheses", hypotheses)
        if self.kind == "forgery" and self.hypotheses is not None:
            raise ValueError("forgery has no leakage statistic to condition on hypotheses")
        if self.hypotheses is not None and len(self.hypotheses) != 2:
            raise ValueError(f"hypotheses must be two shadow values, got {len(self.hypotheses)}")
        if self.escalate and self.kind != "collusion_probe":
            raise ValueError(f"{self.kind} has no colluders to escalate")
        targets_player = self.kind in ("forgery", "collusion_probe")
        if self.player_id is not None and not targets_player:
            raise ValueError(f"{self.kind} intercepts a hop and targets no player")
        if self.hop_index != 0 and targets_player:
            raise ValueError(f"{self.kind} targets a player and intercepts no hop")


@dataclass(frozen=True)
class AttackReport:
    kind: str
    shots: int
    outcome_histogram: dict
    detection_rate: float
    ancilla_abort_rate: float
    hash_abort_rate: float
    leakage: float | None
    chi2_pvalue: float | None
    extra: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "shots": self.shots,
            "outcome_histogram": {_key(k): v for k, v in sorted(self.outcome_histogram.items())},
            "detection_rate": self.detection_rate,
            "ancilla_abort_rate": self.ancilla_abort_rate,
            "hash_abort_rate": self.hash_abort_rate,
            "leakage": self.leakage,
            "chi2_pvalue": self.chi2_pvalue,
            "extra": self.extra,
        }


def _key(k) -> str:
    return ",".join(str(v) for v in k) if isinstance(k, tuple) else str(k)


def run_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
    channel: Channel | None = None,
) -> list[ShotSeries]:
    """Per-shot reference: `shots` runs from one generator seeded once (a
    Generator is drawn from as it is), every pass through run_pass and every
    outcome drawn by qudit.draw_outcome. Returns one one-shot series per shot:
    one secret-pass leaf and, if it passed, one hash-pass leaf, and the one
    run they make. Takes the shot count split_shot_series takes."""
    check_shots([shots])
    rng = np.random.default_rng(seed)
    channel = channel or Channel()

    def draw(probs, shots):  # the one shot takes one drawn outcome
        return [(draw_outcome(probs, rng), shots)]

    out = []
    for _ in range(shots):
        secret = run_pass([instance], channel, "secret", [1], [draw])[0]
        hashed = [] if secret[0][0].ancilla else run_pass([instance], channel, "hash", [1], [draw])[0]
        out.append(shot_series(instance, secret, hashed, rng))
    return out


def tally(secret: list[tuple[PassResult, int]], key: Callable[[PassResult], object]) -> Counter:
    """Shots per key(leaf) over secret-pass leaves: the aborts first, then the
    leaves that passed, each in walk order, so that keys are first seen in
    the order of the leaves' transcripts."""
    out: Counter = Counter()
    for leaf, n in sorted(secret, key=lambda leaf_n: leaf_n[0].ancilla == 0):
        out[key(leaf)] += n
    return out


def series_digest(series: list[ShotSeries]) -> str:
    """Order-free fingerprint of the series whose shots make up one report:
    SHA1 over the sorted (line, count) pairs of their transcript multiset,
    hook events left out, so the split engine can be checked against the
    per-shot reference series."""
    counts: Counter = Counter()
    for part in series:
        shadows = f"{part.instance.shadows_secret}|{part.instance.shadows_hash}"
        for run, n in part.runs.items():
            counts[f"{run.verdict}|{run.f0}|{run.g0}|{run.ancilla}|{shadows}"] += n
    h = hashlib.sha1()
    for line, n in sorted(counts.items()):
        h.update(f"{line}|{n}\n".encode())
    return h.hexdigest()


def tv_distance(counts_a: Counter, counts_b: Counter, total_a: int, total_b: int) -> float:
    """Total-variation distance between two empirical distributions."""
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / total_a - counts_b.get(k, 0) / total_b) for k in keys
    )


def uniformity_pvalue(counts: Counter, d: int) -> float:
    """Chi-square p-value against the uniform distribution on [0, d)."""
    observed = np.array([counts.get(v, 0) for v in range(d)], dtype=float)
    expected = observed.mean()
    return _chi2_sf(float(((observed - expected) ** 2 / expected).sum()), d - 1)


def _chi2_sf(x: float, k: int) -> float:
    """Survival function of the chi-square law with k >= 1 degrees of
    freedom, in closed form for integer k. With y = x/2:

    - even k: exp(-y) sum_{j < k/2} y^j / j!, a Poisson tail;
    - odd k: erfc(sqrt y) + exp(-y) sum_{j < (k-1)/2} y^(j+1/2) / Gamma(j+3/2).

    Each term is exp of its logarithm, so large x and k cannot overflow.
    """
    if x <= 0:
        return 1.0
    y = x / 2
    head, a0 = (math.erfc(math.sqrt(y)), 0.5) if k % 2 else (0.0, 0.0)
    log_y = math.log(y)
    terms = [math.exp((a0 + j) * log_y - y - math.lgamma(a0 + j + 1)) for j in range(k // 2)]
    return min(1.0, math.fsum([head, *terms]))


def _iqft_transmitted(state: QuditState) -> QuditState:
    return apply_iqft(state, TRANSMITTED)


def _copy_to_adversary(state: QuditState) -> QuditState:
    return apply_copy(state, TRANSMITTED, ADVERSARY)


# Intercept-resend measures T in the computational basis at one hop and
# forwards the collapsed state; the outcome is uniform and carries nothing
# about s1. The Fourier intercept applies the inverse QFT to T first, hoping
# to undo the reconstructor's transform: entanglement with H leaves the
# outcome uniform, and the collapsed T no longer matches H, so the uncopy
# trips the ancilla check. The simplified entangle-measure model copies T
# onto the adversary's register E at one hop and forwards T untouched; its
# channel has an adversary, so E is read out right after the reconstructor's
# uncopy.
_measure_resend_hook = (Measure(TRANSMITTED),)
_fourier_intercept_hook = (_iqft_transmitted, Measure(TRANSMITTED))
_entangle_hook = (_copy_to_adversary,)


def _observed_values(leaf: PassResult) -> list[int]:
    return [payload["value"] for _, _, payload in leaf.events]


def _intercepted_value(leaf: PassResult) -> int:
    # An intercept runner's hook measures exactly once in the secret pass.
    return _observed_values(leaf)[0]


def _summarize(
    spec: AttackSpec,
    series: list[ShotSeries],
    observations: Counter,
    leakage: float | None,
    chi2_pvalue: float | None,
    extra: dict,
) -> AttackReport:
    runs = [(run, count) for part in series for run, count in part.runs.items()]
    detected = sum(count for run, count in runs if run.verdict != VERDICT_ACCEPTED)
    ancilla = sum(count for run, count in runs if run.ancilla[0] != 0)
    hashes = sum(count for run, count in runs if run.verdict == VERDICT_ABORT_HASH)
    extra = {**extra, "series_digest": series_digest(series)}
    if spec.kind == "forgery":
        # Every forgery shot runs with a wrong shadow: each accepted one collided.
        extra["residual_collision_shots"] = spec.shots - detected
    if spec.hypotheses is not None:
        extra["hypotheses"] = list(spec.hypotheses)
    return AttackReport(
        kind=spec.kind,
        shots=spec.shots,
        outcome_histogram=dict(observations),
        detection_rate=detected / spec.shots,
        ancilla_abort_rate=ancilla / spec.shots,
        hash_abort_rate=hashes / spec.shots,
        leakage=leakage,
        chi2_pvalue=chi2_pvalue,
        extra=extra,
    )


def _observe(
    instance: ProtocolInstance,
    spec: AttackSpec,
    channel: Channel,
    key: Callable[[PassResult], object],
    position: int,
) -> tuple[ShotSeries, Counter, float | None, list[Counter]]:
    """Run the attacked series and tally key(secret-pass leaf), what the
    attacker observed. With hypotheses, also draw the secret pass (all a
    tally reads) with P_position's shadow forced to each value, all else
    fixed, and return the TV distance between the two tallies, and the
    tallies; without, None and []."""
    series = split_shot_series(instance, spec.shots, spec.seed, channel)
    observations = tally(series.secret, key)
    if spec.hypotheses is None:
        return series, observations, None, []
    histograms = []
    for salt, value in enumerate(spec.hypotheses, start=1):
        forced = instance.with_shadow(position, value)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, salt]))
        histograms.append(tally(secret_pass(forced, spec.shots, rng, channel), key))
    leakage = tv_distance(histograms[0], histograms[1], spec.shots, spec.shots)
    return series, observations, leakage, histograms


def _intercept_attack(
    instance: ProtocolInstance, spec: AttackSpec, hook, adversary: bool = False
) -> AttackReport:
    channel = Channel(hooks={spec.hop_index: hook}, adversary=adversary)
    series, observations, leakage, histograms = _observe(
        instance, spec, channel, _intercepted_value, 1
    )
    extra: dict = {"hop_index": spec.hop_index}
    if histograms:
        extra["hypothesis_histograms"] = [
            {_key(k): v for k, v in sorted(h.items())} for h in histograms
        ]
    chi2 = uniformity_pvalue(observations, instance.modulus.d)
    return _summarize(spec, [series], observations, leakage, chi2, extra)


def _forgery(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """One player runs the secret pass with a fake shadow, drawn per shot
    uniformly over the d - 1 wrong values. Detection happens at the hash
    comparison; shots accepted despite the wrong shadow are counted as
    residual collisions."""
    position = spec.player_id if spec.player_id is not None else min(2, instance.t)
    if not 1 <= position <= instance.t:
        raise ValueError(f"player position {position} out of range for t={instance.t}")
    d = instance.modulus.d
    true_value = instance.shadows_secret[position - 1]
    rng = np.random.default_rng(spec.seed)
    # One multinomial split of the shots over the d - 1 wrong values, then one
    # batch of the forged rings, sharing the generator: a ring honest but for
    # one shadow draws only from point masses, so no draw order reaches the output.
    counts = rng.multinomial(spec.shots, np.full(d - 1, 1 / (d - 1)))
    hit = counts.nonzero()[0].tolist()
    forged = [instance.with_shadow(position, true_value + 1 + k) for k in hit]
    series = split_batch(forged, counts[hit].tolist(), [rng] * len(hit))
    secret = [leaf for part in series for leaf in part.secret]
    observations = tally(secret, lambda leaf: leaf.value)
    extra = {"target_position": position, "true_shadow": true_value}
    return _summarize(spec, series, observations, None, None, extra)


def _collusion_probe(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """The neighbours of player P_e pool what crosses their hands: each
    measures T while holding it. Their joint view is compared under two
    forced values of P_e's shadow. With escalate=True the first colluder
    intercepts in the Fourier basis instead, which disturbs the ring the
    same way the plain intercept attack does."""
    t = instance.t
    position = spec.player_id if spec.player_id is not None else t - 1
    if not 3 <= position <= t - 1:
        raise ValueError(
            f"collusion probe needs a middle player with two participant "
            f"neighbours: 3 <= e <= t-1, got e={position}, t={t}"
        )
    first_hook = _fourier_intercept_hook if spec.escalate else _measure_resend_hook
    hooks = {position - 2: first_hook, position - 1: _measure_resend_hook}
    channel = Channel(hooks=hooks)

    def joint(leaf: PassResult) -> tuple[int, ...]:
        return tuple(_observed_values(leaf))

    series, observations, leakage, _ = _observe(instance, spec, channel, joint, position)
    extra = {"middle_position": position, "colluders": [position - 1, position + 1]}
    return _summarize(spec, [series], observations, leakage, None, extra)


_RUNNERS: dict[str, Callable[[ProtocolInstance, AttackSpec], AttackReport]] = {
    "intercept_resend": partial(_intercept_attack, hook=_measure_resend_hook),
    "intercept_iqft": partial(_intercept_attack, hook=_fourier_intercept_hook),
    "entangle_measure": partial(_intercept_attack, hook=_entangle_hook, adversary=True),
    "forgery": _forgery,
    "collusion_probe": _collusion_probe,
}
ATTACK_KINDS = tuple(_RUNNERS)


def run_attack(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """Run the attack spec.kind names on the instance: the only way to run one."""
    d = instance.modulus.d
    # An instance reduces every shadow mod d, so a hypothesis outside
    # [0, d) would run as another value while the report names it.
    for value in spec.hypotheses or ():
        if not 0 <= value < d:
            raise ValueOutOfRange(f"hypothesis {value} not in [0, {d})")
    return _RUNNERS[spec.kind](instance, spec)
