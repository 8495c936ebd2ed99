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
multinomial per measurement and returns the series factored by pass (a
ShotSeries): the secret-pass leaves, the hash-pass leaves and the random
pairing of their shots as a count table, each row's verdict computed once.
Reports count shots from the table, so their work follows the pass leaves,
not the pairs, and build no transcript; ProtocolInstance.run builds the one
transcript of a one-shot series.
adversary.run_shot_series walks each shot on its own by inverse CDF, the
independent reference the tests check the engine against.
"""
from __future__ import annotations

from collections import Counter
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
# A pairing table holds each row's verdict as an index into VERDICTS.
VERDICTS = (VERDICT_ACCEPTED, VERDICT_ABORT_ANCILLA, VERDICT_ABORT_HASH)
# Shot counts are drawn as int64 by the multinomial splits.
MAX_SHOTS = 2**63 - 1
# numpy's multivariate_hypergeometric (method "marginals") takes fewer than
# 10**9 shots in all, so a pairing draw does too.
MAX_PAIRED_SHOTS = 10**9 - 1


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
        """One two-pass run: the transcript of a one-shot split_shot_series
        drawing from default_rng(seed); a Generator is used as is. The
        transcript records seed only when it is an int."""
        series = split_shot_series(self, 1, seed, channel)
        # One shot takes one secret-pass leaf and, if it passed, one
        # hash-pass leaf and one row of the table.
        passes = [series.secret[0][0], *series.hashed]
        return ProtocolTranscript(
            d=self.modulus.d,
            t=self.t,
            xs=self.xs,
            shadows_secret=self.shadows_secret,
            shadows_hash=self.shadows_hash,
            ancilla=tuple(p.ancilla for p in passes),
            f0=passes[0].value,
            g0=passes[1].value if series.hashed else None,
            verdict=VERDICTS[series.pair_verdict[0]] if series.hashed else VERDICT_ABORT_ANCILLA,
            seed=seed if isinstance(seed, int) else None,
            hook_events=tuple(e for p in passes for e in p.events),
        )


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


class PassResult(NamedTuple):
    """One pass of a run: its ancilla outcome, the H outcome (None after an
    ancilla abort) and the hook observations it filed, in order."""

    ancilla: int
    value: int | None
    events: tuple[tuple[str, int | None, dict], ...]


class RunOutcome(NamedTuple):
    """What a transcript records of a run, but its hook events."""

    verdict: str
    f0: int | None
    g0: int | None
    ancilla: tuple[int, ...]


class ShotSeries(NamedTuple):
    """A shot series factored by pass. Every secret-pass leaf comes with its
    shots, in walk order; the shots of the leaves whose ancilla read 0 go on
    to the hash pass, whose leaves are `hashed`. Row k of the pairing table
    says that pair_shots[k] shots took secret-pass leaf pair_secret[k] and
    hash-pass leaf pair_hash[k], and pair_verdict[k] is their verdict as an
    index into VERDICTS. A run that aborts on the secret pass has no row."""

    instance: ProtocolInstance
    secret: list[tuple[PassResult, int]]
    hashed: list[PassResult]
    pair_secret: np.ndarray
    pair_hash: np.ndarray
    pair_shots: np.ndarray
    pair_verdict: np.ndarray

    def outcomes(self) -> Counter:
        """Shots per RunOutcome, counted from the table in numpy: one key per
        distinct (verdict, f0, g0, ancilla), whatever the hook events."""
        out: Counter = Counter()
        for p, n in self.secret:
            if p.ancilla:
                out[RunOutcome(VERDICT_ABORT_ANCILLA, None, None, (p.ancilla,))] += n
        if not len(self.pair_shots):
            return out
        # Row key (verdict, f0, hash ancilla, g0) in base d, an aborted
        # hash pass reading g0 as 0.
        d = self.instance.modulus.d
        f0 = np.array([p.value or 0 for p, _ in self.secret])
        hashed = np.array([q.ancilla * d + (q.value or 0) for q in self.hashed])
        keys = (self.pair_verdict * d + f0[self.pair_secret]) * d * d + hashed[self.pair_hash]
        distinct, row = np.unique(keys, return_inverse=True)
        shots = np.zeros(len(distinct), dtype=np.int64)
        np.add.at(shots, row, self.pair_shots)
        for key, n in zip(distinct.tolist(), shots.tolist()):
            verdict, f0_value = divmod(key // (d * d), d)
            ancilla, g0 = divmod(key % (d * d), d)
            run = RunOutcome(VERDICTS[verdict], f0_value, None if ancilla else g0, (0, ancilla))
            out[run] += n
        return out


def paired_series(
    instance: ProtocolInstance, secret: list[tuple[PassResult, int]],
    hashed: list[PassResult], pair_secret: np.ndarray, pair_hash: np.ndarray,
    pair_shots: np.ndarray,
) -> ShotSeries:
    """The series with the given pairing, each row's verdict computed once:
    one hash per passed secret-pass leaf, compared with the g(0)' of every
    hash-pass leaf it is paired with."""
    hashes = np.array([
        hash_to_field(p.value, instance.modulus) if p.ancilla == 0 else -1 for p, _ in secret
    ])
    # g(0)' per row, -1 where the hash pass aborted on its ancilla.
    g0 = np.array([-1 if q.ancilla else q.value for q in hashed], dtype=np.int64)[pair_hash]
    # Indices into VERDICTS: accepted 0, abort_ancilla 1, abort_hash 2.
    verdict = np.where(g0 < 0, 1, np.where(hashes[pair_secret] == g0, 0, 2))
    return ShotSeries(instance, secret, hashed, pair_secret, pair_hash, pair_shots, verdict)


def split_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    channel: Channel | None = None,
) -> ShotSeries:
    """`shots` runs of the instance, simulated once per distinct measurement
    branch and drawn from one generator seeded once; a Generator passed as
    `seed` is drawn from as it is. The series has the law of
    adversary.run_shot_series with the same arguments. A pairing draw takes
    at most MAX_PAIRED_SHOTS shots; a series that needs a larger one raises
    ValueOutOfRange before its hash pass runs."""
    rng = np.random.default_rng(seed)
    channel = channel or Channel()
    # Only shots whose secret-pass ancilla read 0 go on to the hash pass. The
    # passes of one shot are independent, so the hash-pass leaves are dealt
    # out to the secret-pass leaves by a uniformly random pairing of their
    # shots: one multivariate hypergeometric draw per secret-pass leaf.
    secret = secret_pass(instance, shots, rng, channel)
    passed = [i for i, (p, _) in enumerate(secret) if p.ancilla == 0]
    if not passed:
        empty = np.empty(0, dtype=np.int64)
        return paired_series(instance, secret, [], empty, empty, empty)
    hash_shots = sum(secret[i][1] for i in passed)
    if len(passed) > 1 and hash_shots > MAX_PAIRED_SHOTS:
        raise ValueOutOfRange(
            f"{hash_shots} shots pass the secret pass in {len(passed)} leaves; "
            f"pairing them with the hash pass takes at most {MAX_PAIRED_SHOTS} shots"
        )
    hashed = run_pass(instance, channel, "hash", hash_shots, partial(_split, rng))
    left = np.array([n for _, n in hashed], dtype=np.int64)
    rows = []
    for k, i in enumerate(passed, 1):
        dealt = rng.multivariate_hypergeometric(left, secret[i][1]) if k < len(passed) else left
        left = left - dealt
        j = dealt.nonzero()[0]
        rows.append((np.full(len(j), i), j, dealt[j]))
    table = (np.concatenate(column) for column in zip(*rows))
    return paired_series(instance, secret, [q for q, _ in hashed], *table)


def secret_pass(
    instance: ProtocolInstance, shots: int, rng: np.random.Generator, channel: Channel
) -> list[tuple[PassResult, int]]:
    """The secret-pass leaves of `shots` runs, the engine's first draws from
    rng: what split_shot_series pairs, and all an attacker observes."""
    return run_pass(instance, channel, "secret", shots, partial(_split, rng))


def _split(rng: np.random.Generator, probs: np.ndarray, shots: int) -> list[tuple[int, int]]:
    """The engine's branch policy: one multinomial draw splits the shots."""
    counts = rng.multinomial(shots, probs / probs.sum())
    hit = counts.nonzero()[0]
    return list(zip(hit.tolist(), counts[hit].tolist()))


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
