"""Reconstruction phase: a qualified subset of t players recovers the secret.

A player is just its share packet, and the subset's first packet is the
reconstructor P1. Flow per pass (run twice, for the secret and its hash):

1. every player turns their share into a shadow (share times Lagrange weight);
2. the reconstructor P1 prepares |s1>_H |0>_T, applies the QFT to H and
   copies H onto T;
3. T hops through P2..Pt, each applying the diagonal shadow oracle;
4. T returns to P1, who uncopies, measures T (any nonzero outcome aborts the
   pass), applies the inverse QFT to H and measures H.

The secret pass yields f(0)' and the hash pass g(0)'; the run is accepted
iff both ancilla outcomes were 0 and SHA1(f(0)') mod d equals g(0)'.

The channel is an in-process token ring: per-hop adversary hooks stand in
for whatever sits on the (otherwise assumed authenticated) quantum link.
Hooks may only act on the transmitted register and the optional adversary
ancilla; H never leaves P1. A hook is a tuple of steps, gates (state ->
state) or Measure(register), whose outcome is filed under the pass and hop.

A pass is a list of steps that run_pass walks depth first, once per
distinct measurement branch: a branch policy splits the shots reaching a
measurement across its outcomes, and each outcome that got any is walked on
from the collapsed state. The one engine, split_shot_series, draws one
multinomial per measurement, and ProtocolInstance.run is its one-shot series;
adversary.run_shot_series walks each shot on its own by inverse CDF, the
independent reference the tests check the engine against.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import partial
from typing import Callable, Literal, Mapping, NamedTuple

import numpy as np

from .dealer import DealerConfig, SharePacket, _deal, hash_to_field, resolve_modulus
from .errors import InconsistentPackets, ValueOutOfRange
from .field import PrimeModulus, lagrange_coeff
from .qudit import (
    RegisterLayout,
    QuditState,
    apply_copy,
    apply_iqft,
    apply_qft,
    apply_shadow_phase,
    basis_state,
    collapse,
    outcome_probabilities,
)

HOME = "H"
TRANSMITTED = "T"

PassName = Literal["secret", "hash"]

VERDICT_ACCEPTED = "accepted"
VERDICT_ABORT_ANCILLA = "abort_ancilla"
VERDICT_ABORT_HASH = "abort_hash"


@dataclass(frozen=True)
class Measure:
    """Hook step: measure one register in the computational basis."""

    register: str


Step = Callable[[QuditState], QuditState] | Measure


@dataclass(frozen=True)
class Channel:
    """Adversary hooks on the ring P1 -> P2 -> ... -> Pt -> P1.

    A ring of t > 1 players has t hops; a lone reconstructor has none. hooks
    maps a 0-based hop index (hop j carries T from position j+1 to position
    j+2, the last hop returning to P1) to a tuple of steps run in order.
    post_uncopy runs after P1's uncopy, just before the ancilla measurement;
    what it measures is filed with hop None. ancilla_register, when set, adds
    a third register of the same dimension for the adversary.

    A step cannot see an outcome, so an adaptive hook, one that acts on its
    own measurement, cannot be written; no attack here needs one.
    """

    hooks: Mapping[int, tuple[Step, ...]] = dataclass_field(default_factory=dict)
    post_uncopy: tuple[Step, ...] = ()
    ancilla_register: str | None = None


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one full run: shadows, hop events, outcomes, verdict."""

    d: int
    t: int
    xs: tuple[int, ...]
    shadows_secret: tuple[int, ...]
    shadows_hash: tuple[int, ...]
    ancilla: tuple[int, ...]
    f0: int | None
    g0: int | None
    verdict: str
    seed: int | None
    hook_events: tuple[tuple[str, int | None, dict], ...] = ()

    @property
    def accepted(self) -> bool:
        return self.verdict == VERDICT_ACCEPTED

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "xs": list(self.xs),
            "verdict": self.verdict,
            "f0": self.f0,
            "g0": self.g0,
            "ancilla": list(self.ancilla),
            "shots": 1,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ProtocolInstance:
    """Everything a run needs, resolved down to shadow values.

    Packet-backed instances come from a deal; shadow-specified ones let the
    attack harness exercise the quantum pipeline directly (e.g. d=2 admits
    only a single share point, so multi-player d=2 rings exist only at the
    shadow level).
    """

    modulus: PrimeModulus
    xs: tuple[int, ...]
    shadows_secret: tuple[int, ...]
    shadows_hash: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.shadows_secret)

    def with_shadow(self, position: int, value: int, pass_name: PassName = "secret") -> "ProtocolInstance":
        """Copy of this instance with one player's shadow forced (1-based position)."""
        if not 1 <= position <= self.t:
            raise ValueOutOfRange(f"position {position} not in [1, {self.t}]")
        key = "shadows_secret" if pass_name == "secret" else "shadows_hash"
        values = list(getattr(self, key))
        values[position - 1] = value % self.modulus.d
        return replace(self, **{key: tuple(values)})

    def expected_value(self, pass_name: PassName = "secret") -> int:
        values = self.shadows_secret if pass_name == "secret" else self.shadows_hash
        return sum(values) % self.modulus.d

    def run(
        self,
        channel: Channel | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> ProtocolTranscript:
        """One two-pass run: the single leaf of a one-shot split_shot_series
        drawing from default_rng(seed); a Generator is used as is. The
        transcript records seed only when it is an int."""
        return split_shot_series(self, 1, seed, channel)[0][0]


def instance_from_players(packets: list[SharePacket]) -> ProtocolInstance:
    """Assemble a qualified subset from its share packets; the first is P1."""
    if not packets:
        raise ValueError("packet list must not be empty")
    moduli = {p.modulus for p in packets}
    if len(moduli) != 1:
        raise InconsistentPackets(f"packets mix moduli: {sorted(m.d for m in moduli)}")
    xs = [p.player_id for p in packets]
    if len(set(xs)) != len(xs):
        raise InconsistentPackets("packets repeat evaluation points")
    modulus = moduli.pop()
    d = modulus.d
    weights = [lagrange_coeff(x, xs, modulus) for x in xs]
    return ProtocolInstance(
        modulus=modulus,
        xs=tuple(xs),
        shadows_secret=tuple(p.f_share * w % d for p, w in zip(packets, weights)),
        shadows_hash=tuple(p.g_share * w % d for p, w in zip(packets, weights)),
    )


def instance_from_deal(config: DealerConfig) -> ProtocolInstance:
    """Check t and the register cap, then deal P1..Pt only (with d fixed,
    their packets do not depend on n) and assemble them."""
    modulus = resolve_modulus(config)
    RegisterLayout(d=modulus.d, registers=(HOME, TRANSMITTED))
    return instance_from_players(_deal(config, modulus, config.t))


def instance_from_shadows(
    d: int,
    shadows_secret: tuple[int, ...],
    shadows_hash: tuple[int, ...] | None = None,
) -> ProtocolInstance:
    """Shadow-level instance for harness runs that bypass the dealing phase."""
    if not shadows_secret:
        raise ValueError("shadow list must not be empty")
    modulus = PrimeModulus(d)
    if shadows_hash is None:
        shadows_hash = tuple(0 for _ in shadows_secret)
    if len(shadows_hash) != len(shadows_secret):
        raise InconsistentPackets("shadow lists must have equal length")
    return ProtocolInstance(
        modulus=modulus,
        xs=tuple(range(1, len(shadows_secret) + 1)),
        shadows_secret=tuple(v % d for v in shadows_secret),
        shadows_hash=tuple(v % d for v in shadows_hash),
    )


def verify_hash(f0: int, g0: int, d: PrimeModulus) -> bool:
    """Final check of a run: SHA1 of the recovered secret, mod d, against g(0)'."""
    return hash_to_field(f0, d) == g0


class PassResult(NamedTuple):
    """One pass of a run: its ancilla outcome, the H outcome (None after an
    ancilla abort) and the hook observations it filed, in order."""

    ancilla: int
    value: int | None
    events: tuple[tuple[str, int | None, dict], ...]


def split_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    channel: Channel | None = None,
) -> list[tuple[ProtocolTranscript, int]]:
    """`shots` runs of the instance, simulated once per distinct measurement
    branch and drawn from one generator seeded once; a Generator passed as
    `seed` is drawn from as it is. Returns (transcript, count) pairs whose
    counts sum to `shots`; transcripts record `seed` if it is an int. The
    series has the law of adversary.run_shot_series with the same arguments."""
    rng = np.random.default_rng(seed)
    channel = channel or Channel()
    recorded = seed if isinstance(seed, int) else None
    branch = partial(_split, rng)
    # Only shots whose secret-pass ancilla read 0 go on to the hash pass. The
    # passes of one shot are independent, so the hash-pass leaves are dealt
    # out to the secret-pass leaves by a uniformly random pairing of their
    # shots: one multivariate hypergeometric draw per secret-pass leaf.
    secret = run_pass(instance, channel, "secret", shots, branch)
    out = [(transcript_of(instance, [p], recorded), n) for p, n in secret if p.ancilla != 0]
    passed = [(p, n) for p, n in secret if p.ancilla == 0]
    if not passed:
        return out
    hashed = run_pass(instance, channel, "hash", sum(n for _, n in passed), branch)
    left = np.array([n for _, n in hashed], dtype=np.int64)
    for i, (p, n) in enumerate(passed, 1):
        dealt = rng.multivariate_hypergeometric(left, n) if i < len(passed) else left
        left = left - dealt
        out += [
            (transcript_of(instance, [p, hashed[j][0]], recorded), int(dealt[j]))
            for j in dealt.nonzero()[0].tolist()
        ]
    return out


def _split(rng: np.random.Generator, probs: np.ndarray, shots: int) -> list[tuple[int, int]]:
    """The engine's branch policy: one multinomial draw splits the shots."""
    counts = rng.multinomial(shots, probs / probs.sum())
    hit = counts.nonzero()[0]
    return list(zip(hit.tolist(), counts[hit].tolist()))


def transcript_of(
    instance: ProtocolInstance, passes: list[PassResult], seed: int | None = None
) -> ProtocolTranscript:
    """The transcript of a run whose passes, secret first, gave `passes`. A
    run stops after the first pass whose ancilla is nonzero."""
    ancilla = tuple(p.ancilla for p in passes)
    f0 = passes[0].value
    g0 = passes[1].value if len(passes) > 1 else None
    if any(ancilla):
        verdict = VERDICT_ABORT_ANCILLA
    elif verify_hash(f0, g0, instance.modulus):
        verdict = VERDICT_ACCEPTED
    else:
        verdict = VERDICT_ABORT_HASH
    return ProtocolTranscript(
        d=instance.modulus.d,
        t=instance.t,
        xs=instance.xs,
        shadows_secret=instance.shadows_secret,
        shadows_hash=instance.shadows_hash,
        ancilla=ancilla,
        f0=f0,
        g0=g0,
        verdict=verdict,
        seed=seed,
        hook_events=tuple(e for p in passes for e in p.events),
    )


def run_pass(
    instance: ProtocolInstance,
    channel: Channel,
    pass_name: PassName,
    shots: int,
    branch: Callable[[np.ndarray, int], list[tuple[int, int]]],
) -> list[tuple[PassResult, int]]:
    """One pass of the ring on the secret or hash shadows with `shots` shots:
    the pass's steps walked depth first. At each measurement branch(probs,
    shots) splits the shots reaching it as [(outcome, shots), ...] in
    increasing outcome order, and each outcome that got shots is walked in
    turn. Returns (pass result, shots) per leaf, in walk order."""
    t = instance.t
    hops = t if t > 1 else 0
    stray = [k for k in channel.hooks if k not in range(hops)]
    if stray:
        raise ValueError(f"channel hooks {stray} lie outside the {hops} hops of a t={t} ring")
    registers = (HOME, TRANSMITTED)
    if channel.ancilla_register is not None:
        registers = registers + (channel.ancilla_register,)
    layout = RegisterLayout(d=instance.modulus.d, registers=registers)
    shadows = instance.shadows_secret if pass_name == "secret" else instance.shadows_hash

    # (hop, step, args) after P1's preparation: a gate runs as step(state,
    # *args), and hop files a Measure step's outcome.
    steps: list[tuple[int | None, Step, tuple]] = []
    for hop_index in range(hops):
        for step in channel.hooks.get(hop_index, ()):
            steps.append((hop_index, step, ()))
        if hop_index < t - 1:
            steps.append((hop_index, apply_shadow_phase, (TRANSMITTED, shadows[hop_index + 1])))
    steps.append((None, apply_copy, (HOME, TRANSMITTED)))
    steps += [(None, step, ()) for step in channel.post_uncopy]
    leaves: list[tuple[PassResult, int]] = []
    # Branches still to walk, as (first step, state, collapse args, shots,
    # events): a branch's state is collapsed only when it is popped, and a
    # measurement pushes its outcomes in reverse, so the walk keeps the
    # depth-first order without recursing once per Measure step.
    state = apply_qft(basis_state(layout, {**dict.fromkeys(registers, 0), HOME: shadows[0]}), HOME)
    stack = [(0, apply_copy(state, HOME, TRANSMITTED), None, shots, ())]
    while stack:
        start, state, collapsed, shots, events = stack.pop()
        if collapsed is not None:
            state = collapse(state, *collapsed)
        for i in range(start, len(steps)):
            hop_index, step, args = steps[i]
            if not isinstance(step, Measure):
                state = step(state, *args)
                continue
            probs = outcome_probabilities(state, step.register)
            children = [
                (i + 1, state, (step.register, value, probs), n,
                 (*events, (pass_name, hop_index, {"value": value})))
                for value, n in branch(probs, shots)
            ]
            stack += reversed(children)
            break
        else:
            # P1's checks: the ancilla T, then H after the inverse QFT.
            probs = outcome_probabilities(state, TRANSMITTED)
            for ancilla, n in branch(probs, shots):
                if ancilla != 0:
                    leaves.append((PassResult(ancilla, None, events), n))
                    continue
                home = apply_iqft(collapse(state, TRANSMITTED, 0, probs), HOME)
                for value, m in branch(outcome_probabilities(home, HOME), n):
                    leaves.append((PassResult(0, value, events), m))
    return leaves
