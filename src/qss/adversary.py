"""Attack scenarios as channel hooks plus empirical detection/leakage stats.

Every runner follows the same recipe: build a ring channel with the attack
hook(s) installed, simulate a shot series drawing from one generator seeded
once per series, and distill the series into an AttackReport. "Information
gain" claims are measured as the total-variation distance between the
adversary's observation distributions under two forced shadow hypotheses;
"detected" means the run ended in any abort.

A series is simulated by split_shot_series, which runs each distinct
measurement branch once: at every measurement one multinomial draw splits
the shots across the outcomes, and the series comes back as
(transcript, count) pairs whose number does not grow with the shots. It has
the law of running every shot on its own. run_shot_series does exactly that,
one ProtocolInstance.run per shot; it is kept as the per-shot reference the
tests check the splitting engine against.

With `active=False` no hook is installed and the runner reproduces the
honest series, which the control tests check through series_digest.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable

import numpy as np

from .errors import ValueOutOfRange
from .protocol import (
    Channel,
    HookContext,
    PassName,
    PassResult,
    ProtocolInstance,
    ProtocolTranscript,
    TRANSMITTED,
    VERDICT_ABORT_HASH,
    run_pass,
    transcript_of,
)
from .qudit import (
    MeasurementOutcome,
    QuditState,
    apply_copy,
    apply_iqft,
    collapse,
    outcome_probabilities,
)

ADVERSARY_REGISTER = "E"


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    hop_index: int = 0
    player_id: int | None = None
    shots: int = 8192
    seed: int = 0
    active: bool = True
    # Two shadow values to condition the leakage statistic on; None skips it.
    hypotheses: tuple[int, int] | None = None
    # Forgery only: pin the fake shadows instead of drawing them per shot.
    fake_shadow: int | None = None
    fake_hash_shadow: int | None = None
    # Collusion only: colluders disturb the ring (Fourier-basis intercept).
    escalate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.kind == "forgery" and self.hypotheses is not None:
            raise ValueError("forgery has no leakage statistic to condition on hypotheses")


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
    seed: int | np.random.SeedSequence,
    channel: Channel | None = None,
    per_shot=None,
) -> list[ProtocolTranscript]:
    """Per-shot reference: `shots` executions of ProtocolInstance.run, all
    drawing from one generator seeded once. `per_shot(instance, rng)` may swap
    in a mutated instance (e.g. a forged shadow) before each run; it draws
    from the same generator. The attack runners and `simulate` use
    split_shot_series instead; the tests check it against this reference."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(shots):
        inst = per_shot(instance, rng) if per_shot is not None else instance
        out.append(inst.run(channel=channel, seed=rng))
    return out


def split_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence,
    channel: Channel | None = None,
) -> Leaves:
    """`shots` runs of the instance, simulated once per distinct measurement
    branch and drawn from one generator seeded once. Returns (transcript,
    count) pairs whose counts sum to `shots`; the transcripts record no seed.
    The series has the law of run_shot_series with the same arguments."""
    return _split(instance, shots, np.random.default_rng(seed), channel or Channel())


def _split(
    instance: ProtocolInstance, shots: int, rng: np.random.Generator, channel: Channel
) -> Leaves:
    # Only shots whose secret-pass ancilla read 0 go on to the hash pass. The
    # passes of one shot are independent, so the hash-pass leaves are dealt
    # out to the secret-pass leaves by a uniformly random pairing of their
    # shots: one multivariate hypergeometric draw per secret-pass leaf.
    secret = _pass_leaves(instance, channel, "secret", shots, rng)
    out = [(transcript_of(instance, [p]), n) for p, n in secret if p.ancilla != 0]
    passed = [(p, n) for p, n in secret if p.ancilla == 0]
    if not passed:
        return out
    hashed = _pass_leaves(instance, channel, "hash", sum(n for _, n in passed), rng)
    left = np.array([n for _, n in hashed])
    for i, (p, n) in enumerate(passed):
        dealt = left if i == len(passed) - 1 else rng.multivariate_hypergeometric(left, n)
        left = left - dealt
        out += [(transcript_of(instance, [p, h]), int(m)) for (h, _), m in zip(hashed, dealt) if m]
    return out


def _pass_leaves(
    instance: ProtocolInstance,
    channel: Channel,
    pass_name: PassName,
    shots: int,
    rng: np.random.Generator,
) -> list[tuple[PassResult, int]]:
    """Walk one pass's measurement tree with `shots` shots. Each measurement
    splits its shots across the outcomes with one multinomial draw; the pass
    goes on into the first outcome that got any, and each other such outcome
    is replayed from the start with the outcomes before it forced, so hooks
    run unchanged. Returns (pass result, shots) per leaf."""
    leaves = []
    pending = [((), shots)]
    while pending:
        prefix, count = pending.pop()
        path: list[int] = []

        def measure_branch(state: QuditState, register: str) -> MeasurementOutcome:
            nonlocal count
            probs = outcome_probabilities(state, register)
            if len(path) < len(prefix):
                value = prefix[len(path)]
            else:
                counts = rng.multinomial(count, probs / probs.sum())
                hit = np.flatnonzero(counts)
                value, count = int(hit[0]), int(counts[hit[0]])
                pending.extend(((*path, int(v)), int(counts[v])) for v in hit[:0:-1])
            path.append(value)
            return collapse(state, register, value, probs)

        leaves.append((run_pass(instance, channel, pass_name, measure_branch), count))
    return leaves


def tally(leaves: Leaves, key: Callable[[ProtocolTranscript], object]) -> Counter:
    """Shots per key(transcript) over a series."""
    out: Counter = Counter()
    for tr, n in leaves:
        out[key(tr)] += n
    return out


def series_digest(series: Iterable) -> str:
    """Order-free fingerprint of a transcript series: SHA1 over the sorted
    (line, count) pairs of its transcript multiset. Takes a per-shot list of
    transcripts or (transcript, count) pairs, so a disabled attack can be
    checked against the honest baseline however either was simulated."""
    counts: Counter = Counter()
    for item in series:
        tr, n = (item, 1) if isinstance(item, ProtocolTranscript) else item
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


def _measure_resend_hook(state: QuditState, ctx: HookContext) -> QuditState:
    return ctx.measure(state, TRANSMITTED)


def _fourier_intercept_hook(state: QuditState, ctx: HookContext) -> QuditState:
    return ctx.measure(apply_iqft(state, TRANSMITTED), TRANSMITTED)


def _entangle_hook(state: QuditState, ctx: HookContext) -> QuditState:
    return apply_copy(state, TRANSMITTED, ADVERSARY_REGISTER)


def _probe_ancilla_hook(state: QuditState, ctx: HookContext) -> QuditState:
    return ctx.measure(state, ADVERSARY_REGISTER)


def _secret_pass_values(transcript: ProtocolTranscript) -> list[int]:
    return [payload["value"] for pass_name, _, payload in transcript.hook_events if pass_name == "secret"]


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


def _flat_observations(leaves: Leaves) -> Counter:
    out: Counter = Counter()
    for tr, n in leaves:
        for v in _secret_pass_values(tr):
            out[v] += n
    return out


def _conditioned_leakage(
    instance: ProtocolInstance,
    spec: AttackSpec,
    channel: Channel,
    position: int,
    collect,
) -> tuple[float, list[Counter]]:
    """Re-run the series with one player's shadow forced to each hypothesis
    value (all else fixed) and return the TV distance between the two
    observation distributions."""
    histograms = []
    for salt, value in enumerate(spec.hypotheses, start=1):
        forced = instance.with_shadow(position, value)
        seed = np.random.SeedSequence([spec.seed, salt])
        histograms.append(collect(split_shot_series(forced, spec.shots, seed, channel)))
    return tv_distance(histograms[0], histograms[1], spec.shots, spec.shots), histograms


def _intercept_attack(
    instance: ProtocolInstance, spec: AttackSpec, hook, **channel_fields
) -> AttackReport:
    channel = Channel(hooks={spec.hop_index: hook}, **channel_fields) if spec.active else None
    leaves = split_shot_series(instance, spec.shots, spec.seed, channel)
    observations = _flat_observations(leaves)
    leakage = None
    extra: dict = {"hop_index": spec.hop_index}
    if spec.active and spec.hypotheses is not None:
        leakage, histograms = _conditioned_leakage(
            instance, spec, channel, 1, _flat_observations
        )
        extra["hypotheses"] = list(spec.hypotheses)
        extra["hypothesis_histograms"] = [
            {_key(k): v for k, v in sorted(h.items())} for h in histograms
        ]
    chi2 = uniformity_pvalue(observations, instance.modulus.d) if spec.active else None
    return _summarize(spec.kind, spec.shots, leaves, observations, leakage, chi2, extra)


def run_intercept_resend(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """Measure T in the computational basis at one hop and forward the
    collapsed state. The outcome is uniform and carries nothing about s1."""
    return _intercept_attack(instance, spec, _measure_resend_hook)


def run_intercept_iqft(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """Apply the inverse QFT to T before measuring, hoping to undo the
    reconstructor's transform. Entanglement with H leaves the outcome uniform;
    the collapsed T no longer matches H, so the later uncopy trips the
    ancilla check."""
    return _intercept_attack(instance, spec, _fourier_intercept_hook)


def run_entangle_measure(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """Simplified entangle-measure model: copy T onto a private register at
    one hop, forward T untouched, and measure the private register after the
    reconstructor's uncopy."""
    return _intercept_attack(
        instance, spec, _entangle_hook,
        post_uncopy=_probe_ancilla_hook, ancilla_register=ADVERSARY_REGISTER,
    )


def run_forgery(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    """One player runs the secret pass with a fake shadow (uniform over the
    wrong values unless pinned). Detection happens at the hash comparison;
    shots accepted despite a wrong shadow are counted as residual collisions."""
    position = spec.player_id if spec.player_id is not None else min(2, instance.t)
    if not 1 <= position <= instance.t:
        raise ValueError(f"player position {position} out of range for t={instance.t}")
    d = instance.modulus.d
    true_value = instance.shadows_secret[position - 1]

    def forge(fake: int) -> ProtocolInstance:
        inst = instance.with_shadow(position, fake)
        if spec.fake_hash_shadow is not None:
            inst = inst.with_shadow(position, spec.fake_hash_shadow, "hash")
        return inst

    rng = np.random.default_rng(spec.seed)
    if not spec.active:
        mix = [(instance, spec.shots)]
    elif spec.fake_shadow is not None:
        mix = [(forge(spec.fake_shadow), spec.shots)]
    else:
        # Each shot's fake is uniform over Z_d minus the true value: one
        # multinomial split of the shots over the d - 1 wrong values.
        counts = rng.multinomial(spec.shots, np.full(d - 1, 1 / (d - 1)))
        mix = [(forge((true_value + 1 + k) % d), int(n)) for k, n in enumerate(counts) if n]
    leaves = [leaf for inst, n in mix for leaf in _split(inst, n, rng, Channel())]
    observations = tally(leaves, lambda tr: tr.f0)
    residual = sum(
        n for tr, n in leaves if tr.shadows_secret[position - 1] != true_value and tr.accepted
    )
    extra = {
        "target_position": position,
        "true_shadow": true_value,
        "residual_collision_shots": residual,
    }
    return _summarize(spec.kind, spec.shots, leaves, observations, None, None, extra)


def run_collusion_probe(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
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
    channel = Channel(hooks=hooks) if spec.active else None

    def joint(leaves: Leaves) -> Counter:
        return tally(leaves, lambda tr: tuple(_secret_pass_values(tr)))

    leaves = split_shot_series(instance, spec.shots, spec.seed, channel)
    observations = joint(leaves) if spec.active else Counter()
    leakage = None
    extra: dict = {"middle_position": position, "colluders": [position - 1, position + 1]}
    if spec.active and spec.hypotheses is not None:
        leakage, _ = _conditioned_leakage(instance, spec, channel, position, joint)
        extra["hypotheses"] = list(spec.hypotheses)
    return _summarize(spec.kind, spec.shots, leaves, observations, leakage, None, extra)


_RUNNERS: dict[str, Callable[[ProtocolInstance, AttackSpec], AttackReport]] = {
    "intercept_resend": run_intercept_resend,
    "intercept_iqft": run_intercept_iqft,
    "entangle_measure": run_entangle_measure,
    "forgery": run_forgery,
    "collusion_probe": run_collusion_probe,
}
ATTACK_KINDS = tuple(_RUNNERS)


def run_attack(instance: ProtocolInstance, spec: AttackSpec) -> AttackReport:
    d = instance.modulus.d
    # with_shadow reduces a forced value mod d, so a hypothesis outside
    # [0, d) would run as another value while the report names it.
    for value in spec.hypotheses or ():
        if not 0 <= value < d:
            raise ValueOutOfRange(f"hypothesis {value} not in [0, {d})")
    return _RUNNERS[spec.kind](instance, spec)
