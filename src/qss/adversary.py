"""Attack scenarios as channel hooks plus empirical detection/leakage stats.

run_attack is the one way to run an attack: it checks the spec against the
instance and hands it to the runner its kind names. Every runner follows the
same recipe: build the attacked ring (a channel with the attack hooks
installed, or forged shadows), simulate a shot series drawing from one
generator seeded once per series, and distill the series into an
AttackReport. The three intercept kinds share one runner and differ only in
the hooks they install. "Information gain" claims are measured as the
total-variation distance between the adversary's observation distributions
under two forced shadow hypotheses; "detected" means the run ended in any
abort.

Every series starts at protocol.split_shot_series, which runs each
distinct measurement branch once: at every measurement one multinomial draw
splits the shots across the outcomes, and the series comes back as
(transcript, count) pairs whose number does not grow with the shots. It has
the law of running every shot on its own. run_shot_series does exactly that,
drawing each outcome of each pass through run_pass with qudit.measure and
calling neither ProtocolInstance.run nor the splitting engine; it is kept as
the independent per-shot reference the tests check the engine against.
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
from .protocol import (
    Channel,
    ProtocolInstance,
    ProtocolTranscript,
    TRANSMITTED,
    VERDICT_ABORT_HASH,
    run_pass,
    split_shot_series,
    transcript_of,
)
from .qudit import QuditState, apply_copy, apply_iqft, measure

ADVERSARY_REGISTER = "E"


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
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.kind == "forgery" and self.hypotheses is not None:
            raise ValueError("forgery has no leakage statistic to condition on hypotheses")
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


# A shot series as (transcript, shots) pairs.
Leaves = list[tuple[ProtocolTranscript, int]]


def run_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
    channel: Channel | None = None,
    per_shot=None,
) -> Leaves:
    """Per-shot reference: `shots` runs from one generator seeded once (a
    Generator is drawn from as it is), every pass through run_pass and every
    outcome drawn by qudit.measure. `per_shot(instance, rng)` may swap in a
    mutated instance (e.g. a forged shadow) before each run, drawing from the
    same generator. Returns one (transcript, 1) leaf per shot."""
    rng = np.random.default_rng(seed)
    channel = channel or Channel()
    draw = partial(measure, rng=rng)
    out = []
    for _ in range(shots):
        inst = per_shot(instance, rng) if per_shot is not None else instance
        passes = [run_pass(inst, channel, "secret", draw)]
        if passes[0].ancilla == 0:
            passes.append(run_pass(inst, channel, "hash", draw))
        out.append((transcript_of(inst, passes), 1))
    return out


def tally(leaves: Leaves, key: Callable[[ProtocolTranscript], object]) -> Counter:
    """Shots per key(transcript) over a series."""
    out: Counter = Counter()
    for tr, n in leaves:
        out[key(tr)] += n
    return out


def series_digest(leaves: Leaves) -> str:
    """Order-free fingerprint of a series: SHA1 over the sorted (line, count)
    pairs of its transcript multiset, so the split engine can be checked
    against the per-shot reference series."""
    counts: Counter = Counter()
    for tr, n in leaves:
        counts[
            f"{tr.verdict}|{tr.f0}|{tr.g0}|{tr.ancilla}|{tr.shadows_secret}|{tr.shadows_hash}"
        ] += n
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


def _measure_resend_hook(state: QuditState, measure) -> QuditState:
    """Intercept-resend: measure T in the computational basis at one hop and
    forward the collapsed state. The outcome is uniform and carries nothing
    about s1."""
    return measure(state, TRANSMITTED)


def _fourier_intercept_hook(state: QuditState, measure) -> QuditState:
    """Fourier intercept: apply the inverse QFT to T before measuring, hoping
    to undo the reconstructor's transform. Entanglement with H leaves the
    outcome uniform; the collapsed T no longer matches H, so the later uncopy
    trips the ancilla check."""
    return measure(apply_iqft(state, TRANSMITTED), TRANSMITTED)


def _entangle_hook(state: QuditState, measure) -> QuditState:
    """Simplified entangle-measure model: copy T onto a private register at
    one hop and forward T untouched; _probe_ancilla_hook measures the private
    register after the reconstructor's uncopy."""
    return apply_copy(state, TRANSMITTED, ADVERSARY_REGISTER)


def _probe_ancilla_hook(state: QuditState, measure) -> QuditState:
    return measure(state, ADVERSARY_REGISTER)


def _secret_pass_values(transcript: ProtocolTranscript) -> list[int]:
    return [payload["value"] for pass_name, _, payload in transcript.hook_events if pass_name == "secret"]


def _intercepted_value(transcript: ProtocolTranscript) -> int:
    # An intercept runner's hook measures exactly once in the secret pass.
    return _secret_pass_values(transcript)[0]


def _summarize(
    kind: str,
    shots: int,
    leaves: Leaves,
    observations: Counter,
    leakage: float | None,
    chi2_pvalue: float | None,
    extra: dict,
) -> AttackReport:
    n = sum(count for _, count in leaves)
    detected = sum(count for tr, count in leaves if not tr.accepted)
    ancilla = sum(count for tr, count in leaves if tr.ancilla and tr.ancilla[0] != 0)
    hashes = sum(count for tr, count in leaves if tr.verdict == VERDICT_ABORT_HASH)
    extra = {**extra, "series_digest": series_digest(leaves)}
    return AttackReport(
        kind=kind,
        shots=shots,
        outcome_histogram=dict(observations),
        detection_rate=detected / n,
        ancilla_abort_rate=ancilla / n,
        hash_abort_rate=hashes / n,
        leakage=leakage,
        chi2_pvalue=chi2_pvalue,
        extra=extra,
    )


def _conditioned_leakage(
    instance: ProtocolInstance,
    spec: AttackSpec,
    channel: Channel,
    position: int,
    key: Callable[[ProtocolTranscript], object],
) -> tuple[float, list[Counter]]:
    """Re-run the series with one player's shadow forced to each hypothesis
    value (all else fixed) and return the TV distance between the two
    distributions of key(transcript)."""
    histograms = []
    for salt, value in enumerate(spec.hypotheses, start=1):
        forced = instance.with_shadow(position, value)
        seed = np.random.SeedSequence([spec.seed, salt])
        histograms.append(tally(split_shot_series(forced, spec.shots, seed, channel), key))
    return tv_distance(histograms[0], histograms[1], spec.shots, spec.shots), histograms


def _intercept_attack(
    instance: ProtocolInstance, spec: AttackSpec, hook, **channel_fields
) -> AttackReport:
    channel = Channel(hooks={spec.hop_index: hook}, **channel_fields)
    leaves = split_shot_series(instance, spec.shots, spec.seed, channel)
    observations = tally(leaves, _intercepted_value)
    leakage = None
    extra: dict = {"hop_index": spec.hop_index}
    if spec.hypotheses is not None:
        leakage, histograms = _conditioned_leakage(
            instance, spec, channel, 1, _intercepted_value
        )
        extra["hypotheses"] = list(spec.hypotheses)
        extra["hypothesis_histograms"] = [
            {_key(k): v for k, v in sorted(h.items())} for h in histograms
        ]
    chi2 = uniformity_pvalue(observations, instance.modulus.d)
    return _summarize(spec.kind, spec.shots, leaves, observations, leakage, chi2, extra)


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
    # series per forged instance, all drawing from the same generator.
    counts = rng.multinomial(spec.shots, np.full(d - 1, 1 / (d - 1)))
    leaves: Leaves = []
    for k, n in enumerate(counts):
        if n:
            forged = instance.with_shadow(position, (true_value + 1 + k) % d)
            leaves += split_shot_series(forged, int(n), rng)
    observations = tally(leaves, lambda tr: tr.f0)
    residual = sum(n for tr, n in leaves if tr.accepted)
    extra = {
        "target_position": position,
        "true_shadow": true_value,
        "residual_collision_shots": residual,
    }
    return _summarize(spec.kind, spec.shots, leaves, observations, None, None, extra)


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

    def joint(transcript: ProtocolTranscript) -> tuple[int, ...]:
        return tuple(_secret_pass_values(transcript))

    leaves = split_shot_series(instance, spec.shots, spec.seed, channel)
    observations = tally(leaves, joint)
    leakage = None
    extra: dict = {"middle_position": position, "colluders": [position - 1, position + 1]}
    if spec.hypotheses is not None:
        leakage, _ = _conditioned_leakage(instance, spec, channel, position, joint)
        extra["hypotheses"] = list(spec.hypotheses)
    return _summarize(spec.kind, spec.shots, leaves, observations, leakage, None, extra)


_RUNNERS: dict[str, Callable[[ProtocolInstance, AttackSpec], AttackReport]] = {
    "intercept_resend": partial(_intercept_attack, hook=_measure_resend_hook),
    "intercept_iqft": partial(_intercept_attack, hook=_fourier_intercept_hook),
    "entangle_measure": partial(
        _intercept_attack, hook=_entangle_hook,
        post_uncopy=_probe_ancilla_hook, ancilla_register=ADVERSARY_REGISTER,
    ),
    "forgery": _forgery,
    "collusion_probe": _collusion_probe,
}
ATTACK_KINDS = tuple(_RUNNERS)


def run_attack(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """Run the attack spec.kind names on the instance: the only way to run one."""
    d = instance.modulus.d
    # with_shadow reduces a forced value mod d, so a hypothesis outside
    # [0, d) would run as another value while the report names it.
    for value in spec.hypotheses or ():
        if not 0 <= value < d:
            raise ValueOutOfRange(f"hypothesis {value} not in [0, {d})")
    return _RUNNERS[spec.kind](instance, spec)
