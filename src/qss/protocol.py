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
ancilla; H never leaves P1. A hook is called as hook(state, measure) and
returns the state to forward. measure(state, register) measures one register
the way the pass resolves its measurements, files {"value": outcome} under
the pass and hop, and returns the collapsed state; a hook never sees the
generator itself.

A pass resolves all its measurements through one measurement function
(run_pass). The library has one engine, split_shot_series, which splits a
whole shot series across the outcomes; ProtocolInstance.run is its one-shot
series. adversary.run_shot_series draws each outcome of each shot on its own
and is kept as the independent reference the tests check the engine against.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Literal, Mapping, NamedTuple

import numpy as np

from .dealer import DealerConfig, SharePacket, deal, hash_to_field, resolve_modulus
from .errors import InconsistentPackets
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


# measure_fn(state, register) -> (outcome, collapsed state): how a pass
# resolves each of its measurements.
Measure = Callable[[QuditState, str], tuple[int, QuditState]]
Hook = Callable[[QuditState, Callable[[QuditState, str], QuditState]], QuditState]


@dataclass(frozen=True)
class Channel:
    """Adversary hooks on the ring P1 -> P2 -> ... -> Pt -> P1.

    A ring of t > 1 players has t hops; a lone reconstructor has none. hooks
    maps a 0-based hop index (hop j carries T from position j+1 to position
    j+2, the last hop returning to P1) to a Hook, called as hook(state,
    measure). post_uncopy fires after P1's uncopy, just before the ancilla
    measurement; what it measures is filed with hop None. ancilla_register,
    when set, adds a third register of the same dimension for the adversary.
    """

    hooks: Mapping[int, Hook] = dataclass_field(default_factory=dict)
    post_uncopy: Hook | None = None
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
    """Deal per config and assemble P1..Pt, rejecting a modulus too large for
    the register layout before dealing."""
    RegisterLayout(d=resolve_modulus(config).d, registers=(HOME, TRANSMITTED))
    return instance_from_players(deal(config)[: config.t])


def instance_from_shadows(
    d: int,
    shadows_secret: tuple[int, ...],
    shadows_hash: tuple[int, ...] | None = None,
) -> ProtocolInstance:
    """Shadow-level instance for harness runs that bypass the dealing phase."""
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
    # Only shots whose secret-pass ancilla read 0 go on to the hash pass. The
    # passes of one shot are independent, so the hash-pass leaves are dealt
    # out to the secret-pass leaves by a uniformly random pairing of their
    # shots: one multivariate hypergeometric draw per secret-pass leaf.
    secret = _pass_leaves(instance, channel, "secret", shots, rng)
    out = [(transcript_of(instance, [p], recorded), n) for p, n in secret if p.ancilla != 0]
    passed = [(p, n) for p, n in secret if p.ancilla == 0]
    if not passed:
        return out
    hashed = _pass_leaves(instance, channel, "hash", sum(n for _, n in passed), rng)
    left = [n for _, n in hashed]
    for i, (p, n) in enumerate(passed, 1):
        dealt = rng.multivariate_hypergeometric(left, n).tolist() if i < len(passed) else left
        left = [a - b for a, b in zip(left, dealt)]
        out += [
            (transcript_of(instance, [p, h], recorded), m) for (h, _), m in zip(hashed, dealt) if m
        ]
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

        def measure_branch(state: QuditState, register: str) -> tuple[int, QuditState]:
            nonlocal count
            probs = outcome_probabilities(state, register)
            if len(path) < len(prefix):
                value = prefix[len(path)]
            else:
                counts = rng.multinomial(count, probs / probs.sum())
                hit = counts.nonzero()[0].tolist()
                value, count = hit[0], int(counts[hit[0]])
                if len(hit) > 1:
                    pending.extend(((*path, v), int(counts[v])) for v in reversed(hit[1:]))
            path.append(value)
            return value, collapse(state, register, value, probs)

        leaves.append((run_pass(instance, channel, pass_name, measure_branch), count))
    return leaves


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
    instance: ProtocolInstance, channel: Channel, pass_name: PassName, measure_fn: Measure
) -> PassResult:
    """One pass of the ring on the secret or hash shadows. Every measurement,
    the hooks' included, goes through measure_fn(state, register), which
    picks the outcome: a forced or split outcome in a shot-splitting series,
    a draw from a generator in the per-shot reference."""
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
    events: list[tuple[str, int | None, dict]] = []

    values = dict.fromkeys(registers, 0)
    values[HOME] = shadows[0]
    state = basis_state(layout, values)
    state = apply_qft(state, HOME)
    state = apply_copy(state, HOME, TRANSMITTED)

    for hop_index in range(hops):
        hook = channel.hooks.get(hop_index)
        if hook is not None:
            state = hook(state, _context(pass_name, hop_index, measure_fn, events))
        if hop_index < t - 1:
            state = apply_shadow_phase(state, TRANSMITTED, shadows[hop_index + 1])

    state = apply_copy(state, HOME, TRANSMITTED)
    if channel.post_uncopy is not None:
        state = channel.post_uncopy(state, _context(pass_name, None, measure_fn, events))

    ancilla, state = measure_fn(state, TRANSMITTED)
    if ancilla != 0:
        return PassResult(ancilla, None, tuple(events))
    value, _ = measure_fn(apply_iqft(state, HOME), HOME)
    return PassResult(0, value, tuple(events))


def _context(pass_name: str, hop_index: int | None, measure_fn: Measure, events: list):
    """The measure a hook gets: resolve through measure_fn, file the outcome
    under this pass and hop, return the collapsed state."""

    def measure_and_record(state: QuditState, register: str) -> QuditState:
        value, state = measure_fn(state, register)
        events.append((pass_name, hop_index, {"value": value}))
        return state

    return measure_and_record
