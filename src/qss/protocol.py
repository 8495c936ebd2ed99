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
Hooks may only act on the transmitted register T and, on a channel with an
adversary, the adversary's register E; H never leaves P1. A hook is a tuple
of steps, gates (state -> state) or Measure(register), whose outcome is
filed under the pass and hop.

A pass is one list of steps, from P1's preparation to P1's readout, that
run_pass walks depth first, once per distinct measurement branch. At every
Measure, a hook's or P1's, a branch policy splits the shots reaching it across
its outcomes; H and a nonzero ancilla at P1's check end the pass, and each
other outcome that got shots is walked on from the collapsed state. The one
engine, split_shot_series, draws one multinomial per measurement and returns
the series factored by pass (a ShotSeries): the secret-pass leaves, the
hash-pass leaves and the shots per RunOutcome, the passes paired by the keys a
report reads (shot_series). Reports count shots from those, so their work
follows the pass leaves and the keys, not the shots, and build no transcript;
ProtocolInstance.run builds the one transcript of a one-shot series. run_pass
walks one instance, or a batch of instances of equal d whose hooks measure
nothing, with one gate call per step; on a channel with no hooks and no
adversary the members may differ in t, and the walk takes the longest ring.
split_batch, the one batch entry, gives each member the series it would get
alone: the sweep runs the cells of one d through it, forged rings too.
adversary.run_shot_series walks each shot on its own by inverse CDF, the
reference the tests check the engine against; it shares
run_pass, the gates and shot_series with the engine, so it checks the split
draws and the pairing, not the walk. check_shots is the one shot rule for
whatever a caller hands the engine, and ProtocolInstance's own check the one
shadow rule, however an instance is built; both take the int rule
field.check_int.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field, replace
from functools import partial
from itertools import zip_longest
from typing import Callable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .dealer import DealerConfig, SharePacket, hash_to_field, resolve_modulus, share_table
from .errors import InconsistentPackets, ValueOutOfRange
from .field import PrimeModulus, check_int, consecutive_weights, lagrange_coeff
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
ADVERSARY = "E"

PassName = Literal["secret", "hash"]

VERDICT_ACCEPTED = "accepted"
VERDICT_ABORT_ANCILLA = "abort_ancilla"
VERDICT_ABORT_HASH = "abort_hash"
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
    adversary, when set, adds the adversary's register E (ADVERSARY) of the
    same dimension, which hooks may entangle with T, and measures it right
    after P1's uncopy, before P1's checks; that outcome is filed with hop
    None. Such a channel always measures, so a batch refuses it.

    A step cannot see an outcome, so an adaptive hook, one that acts on its
    own measurement, cannot be written; no attack here needs one.
    """

    hooks: Mapping[int, tuple[Step, ...]] = dataclass_field(default_factory=dict)
    adversary: bool = False


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

    However it is built (a deal, shadows, with_shadow or dataclasses.replace),
    an instance checks its shadows here: one per player and pass, each an int
    (check_int), stored reduced mod d.
    """

    modulus: PrimeModulus
    xs: tuple[int, ...]
    shadows_secret: tuple[int, ...]
    shadows_hash: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.xs:
            raise ValueError("an instance needs at least one player")
        for key in ("shadows_secret", "shadows_hash"):
            values = getattr(self, key)
            if len(values) != len(self.xs):
                raise InconsistentPackets(f"{len(values)} {key} for {len(self.xs)} players")
            object.__setattr__(self, key, tuple(check_int("shadow", v) % self.modulus.d for v in values))

    @property
    def t(self) -> int:
        return len(self.shadows_secret)

    def with_shadow(self, position: int, value: int, pass_name: PassName = "secret") -> "ProtocolInstance":
        """Copy of this instance with one player's shadow forced (1-based position)."""
        if not 1 <= check_int("position", position) <= self.t:
            raise ValueOutOfRange(f"position {position} not in [1, {self.t}]")
        key = "shadows_secret" if pass_name == "secret" else "shadows_hash"
        values = list(getattr(self, key))
        values[position - 1] = value
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
        # One shot makes one run, and takes one leaf in each pass it ran.
        (run,) = series.runs
        return ProtocolTranscript(
            d=self.modulus.d, t=self.t, xs=self.xs,
            shadows_secret=self.shadows_secret, shadows_hash=self.shadows_hash,
            **run._asdict(), seed=seed if isinstance(seed, int) else None,
            hook_events=tuple(e for p, _ in series.secret + series.hashed for e in p.events),
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
    weights = [lagrange_coeff(x, xs, modulus) for x in xs]
    return ProtocolInstance(
        modulus=modulus,
        xs=tuple(xs),
        shadows_secret=tuple(p.f_share * w for p, w in zip(packets, weights)),
        shadows_hash=tuple(p.g_share * w for p, w in zip(packets, weights)),
    )


def instance_from_deal(config: DealerConfig) -> ProtocolInstance:
    """P1..Pt of the config's deal: instances_from_deals with one config."""
    return instances_from_deals([config])[0]


def instances_from_deals(configs: Sequence[DealerConfig]) -> list[ProtocolInstance]:
    """instance_from_players(deal(config)[:t]) for each config, for configs
    whose moduli resolve to one d, dealt as arrays. Checks every config's t
    and the register cap before any deal, then deals P1..Pt only (with d
    fixed, their packets do not depend on n): the shares of every config are
    one share_table, and the weights of the points 1..t (consecutive_weights)
    are computed once per t."""
    moduli = {resolve_modulus(config) for config in configs}
    if len(moduli) != 1:
        raise ValueError("the configs of one deal must resolve to one modulus")
    (modulus,) = moduli
    RegisterLayout(d=modulus.d, registers=(HOME, TRANSMITTED))
    shares = share_table(configs, modulus)
    weights = {t: np.array(consecutive_weights(t, modulus)) for t in {c.t for c in configs}}
    instances = []
    for config, (f, g) in zip(configs, shares):
        t = config.t
        w = weights[t]
        instances.append(ProtocolInstance(
            modulus=modulus,
            xs=tuple(range(1, t + 1)),
            shadows_secret=tuple((f[:t] * w).tolist()),
            shadows_hash=tuple((g[:t] * w).tolist()),
        ))
    return instances


def instance_from_shadows(
    d: int,
    shadows_secret: tuple[int, ...],
    shadows_hash: tuple[int, ...] | None = None,
) -> ProtocolInstance:
    """Shadow-level instance for harness runs that bypass the dealing phase,
    players at x = 1..t, the hash shadows 0 unless given."""
    xs = tuple(range(1, len(shadows_secret) + 1))
    hashed = (0,) * len(xs) if shadows_hash is None else shadows_hash
    return ProtocolInstance(PrimeModulus(d), xs, shadows_secret, hashed)


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
    to the hash pass, whose leaves come with theirs in `hashed`. `runs`
    counts the shots per RunOutcome: what a transcript records of a run, but
    its hook events."""

    instance: ProtocolInstance
    secret: list[tuple[PassResult, int]]
    hashed: list[tuple[PassResult, int]]
    runs: Counter


def shot_series(
    instance: ProtocolInstance, secret: list[tuple[PassResult, int]],
    hashed: list[tuple[PassResult, int]], rng: np.random.Generator,
) -> ShotSeries:
    """The series of these pass leaves, its passes paired by key. The passed
    secret-pass shots are grouped by f(0)', the hash-pass shots by (ancilla,
    g(0)'), and the hash-pass groups are dealt out to the f(0)' groups, in
    order of first appearance, by one multivariate hypergeometric draw per
    f(0)' but the last. That is a uniformly random matching of the shots of
    the two passes, which are independent, summed over the groups. The
    verdict rule runs once per f(0)': one hash, compared with each g(0)'."""
    runs: Counter = Counter()
    f0s: Counter = Counter()
    for p, n in secret:
        if p.ancilla:
            runs[RunOutcome(VERDICT_ABORT_ANCILLA, None, None, (p.ancilla,))] += n
        else:
            f0s[p.value] += n
    groups: Counter = Counter()
    for q, n in hashed:
        groups[q.ancilla, q.value] += n
    keys, left = list(groups), np.array(list(groups.values()), dtype=np.int64)
    for k, (f0, n) in enumerate(f0s.items(), 1):
        dealt = rng.multivariate_hypergeometric(left, n) if k < len(f0s) else left
        left = left - dealt
        h = hash_to_field(f0, instance.modulus)
        for i in dealt.nonzero()[0].tolist():
            ancilla, g0 = keys[i]
            verdict = (VERDICT_ABORT_ANCILLA if ancilla else
                       VERDICT_ACCEPTED if g0 == h else VERDICT_ABORT_HASH)
            runs[RunOutcome(verdict, f0, g0, (0, ancilla))] += int(dealt[i])
    return ShotSeries(instance, secret, hashed, runs)


def split_shot_series(
    instance: ProtocolInstance,
    shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    channel: Channel | None = None,
) -> ShotSeries:
    """`shots` runs of the instance, simulated once per distinct measurement
    branch and drawn from one generator seeded once; a Generator passed as
    `seed` is drawn from as it is. The series has the law of
    adversary.run_shot_series with the same arguments but for one known
    difference: the engine snaps each law to a 1e-12 grid (_split), so the
    laws agree only to 5e-13 per outcome. A pairing draw takes at most
    MAX_PAIRED_SHOTS shots; a series that needs one, its passed shots holding
    more than one f(0)', raises ValueOutOfRange before its hash pass runs."""
    return split_batch([instance], [shots], [np.random.default_rng(seed)], channel)[0]


def split_batch(
    instances: Sequence[ProtocolInstance], shots: Sequence[int],
    rngs: Sequence[np.random.Generator], channel: Channel | None = None,
) -> list[ShotSeries]:
    """split_shot_series(instances[b], shots[b], rngs[b], channel) for each
    member b of a batch sharing d, and t too unless the channel has neither
    hooks nor an adversary (see run_pass), one walk per pass. Members sharing a
    generator draw from it in batch order, pass by pass (see run_pass).
    Raises ValueOutOfRange before any gate for a shot count that is not an
    int in [1, MAX_SHOTS]."""
    check_shots(shots)
    channel = channel or Channel()
    policies = [partial(_split, rng) for rng in rngs]
    secrets = run_pass(instances, channel, "secret", shots, policies)
    # Only shots whose secret-pass ancilla read 0 go on to the hash pass.
    passed = [[(p.value, n) for p, n in secret if p.ancilla == 0] for secret in secrets]
    hash_shots = [sum(n for _, n in p) for p in passed]
    for p, n in zip(passed, hash_shots):
        f0s = len({value for value, _ in p})
        if f0s > 1 and n > MAX_PAIRED_SHOTS:
            raise ValueOutOfRange(f"{n} shots pass the secret pass with {f0s} values of f(0)'; pairing "
                                  f"them with the hash pass takes at most {MAX_PAIRED_SHOTS} shots")
    go = [b for b, p in enumerate(passed) if p]
    hashed = dict(zip(go, run_pass(
        [instances[b] for b in go], channel, "hash", [hash_shots[b] for b in go],
        [policies[b] for b in go]) if go else []))
    return [shot_series(instance, secret, hashed.get(b, []), rng)
            for b, (instance, rng, secret) in enumerate(zip(instances, rngs, secrets))]


def secret_pass(
    instance: ProtocolInstance, shots: int, rng: np.random.Generator, channel: Channel
) -> list[tuple[PassResult, int]]:
    """The secret-pass leaves of `shots` runs, the engine's first draws from
    rng: what split_shot_series pairs, and all an attacker observes. Takes
    the shot counts split_batch takes."""
    check_shots([shots])
    return run_pass([instance], channel, "secret", [shots], [partial(_split, rng)])[0]


def check_shots(shots: Sequence[int]) -> None:
    """Refuse each shot count that is not an int (check_int) in [1,
    MAX_SHOTS], the counts a split can draw."""
    for n in shots:
        if not 1 <= check_int("shots", n) <= MAX_SHOTS:
            raise ValueOutOfRange(f"shots must be an int in [1, {MAX_SHOTS}], got {n!r}")


def _split(rng: np.random.Generator, probs: np.ndarray, shots: int) -> list[tuple[int, int]]:
    """The engine's branch policy: one multinomial draw splits the shots over
    the law snapped to a 1e-12 grid, so that the last bits of the arithmetic
    that computed it do not reach the draw. numpy draws each outcome by a
    binomial that takes another branch above p = 0.5, where one ulp of a
    uniform law can fall."""
    # Whole units of 1e-12 are exact integers, so the law drawn from them
    # depends on the units alone.
    units = np.rint(probs * (1e12 / probs.sum()))
    counts = rng.multinomial(shots, units / units.sum())
    hit = counts.nonzero()[0]
    return list(zip(hit.tolist(), counts[hit].tolist()))


def run_pass(
    instances: Sequence[ProtocolInstance],
    channel: Channel,
    pass_name: PassName,
    shots: Sequence[int],
    branches: Sequence[Callable[[np.ndarray, int], list[tuple[int, int]]]],
) -> list[list[tuple[PassResult, int]]]:
    """One pass of the ring on the secret or hash shadows for a batch of
    instances sharing d, member b with shots[b] shots, walked depth first.
    On a channel with no hooks and no adversary the members may differ in t:
    the walk takes the largest t, and a shorter ring's shadows are padded
    with 0, a phase of exactly 1, so each member keeps its lone state, law
    and draws. A channel with either raises ValueError before any gate for
    members of unequal t. At each Measure, P1's checks included,
    branches[b](probs, shots) splits member b's shots as [(outcome, shots),
    ...] in increasing outcome order; H and a nonzero ancilla at P1's check
    end the pass as leaves, and each other outcome is walked on in turn with
    the members that got shots on it. A batch takes each step in one gate
    call, and each policy is called as in a walk of its member alone. A batch
    of two or more raises ValueError before any gate if a step before P1's
    checks measures: a part of it would meet a shadow phase that takes the
    whole batch's shadows. The rule takes the adversary's read-out too, though
    no shadow phase follows it. Returns, per member, (pass result, shots) per
    leaf in walk order, the leaves a measurement ends after those of the
    outcomes it walks on."""
    if not instances or not len(instances) == len(shots) == len(branches):
        raise ValueError("a batch takes one shot count and one branch policy per member")
    d, t = instances[0].modulus.d, max(inst.t for inst in instances)
    if any(inst.modulus.d != d for inst in instances):
        raise ValueError("the instances of a batch must share d")
    if (channel.hooks or channel.adversary) and any(inst.t != t for inst in instances):
        raise ValueError("the instances of a batch on a channel with hooks or an adversary "
                         "must share t")
    hops = t if t > 1 else 0
    stray = [k for k in channel.hooks if k not in range(hops)]
    if stray:
        raise ValueError(f"channel hooks {stray} lie outside the {hops} hops of a t={t} ring")
    registers = (HOME, TRANSMITTED, ADVERSARY) if channel.adversary else (HOME, TRANSMITTED)
    layout = RegisterLayout(d=d, registers=registers)
    table = [i.shadows_secret if pass_name == "secret" else i.shadows_hash for i in instances]
    # A lone walk holds its shadows as values, a batch as lists. A shorter
    # ring's shadows are padded with 0, whose phase, _roots(d)[0], is exactly
    # 1: its member takes the extra hops as it would take no step at all.
    shadows = (table[0] if len(instances) == 1
               else [list(c) for c in zip_longest(*table, fillvalue=0)])
    # (hop, step, args), from P1's preparation on; hop files a hook's Measure.
    steps: list[tuple[int | None, Step, tuple]] = [
        (None, apply_qft, (HOME,)), (None, apply_copy, (HOME, TRANSMITTED))]
    for hop_index in range(hops):
        for step in channel.hooks.get(hop_index, ()):
            steps.append((hop_index, step, ()))
        if hop_index < t - 1:
            steps.append((hop_index, apply_shadow_phase, (TRANSMITTED, shadows[hop_index + 1])))
    steps.append((None, apply_copy, (HOME, TRANSMITTED)))
    if channel.adversary:
        steps.append((None, Measure(ADVERSARY), ()))
    if len(instances) > 1 and any(isinstance(step, Measure) for _, step, _ in steps):
        raise ValueError("a batch of two or more instances takes no measuring hook: its members "
                         "would part before a shadow phase that takes the whole batch's shadows")
    # P1's checks: the ancilla T, whose nonzero outcomes end the pass, then H.
    check = len(steps)
    steps += [(None, Measure(TRANSMITTED), ()), (None, apply_iqft, (HOME,)), (None, Measure(HOME), ())]
    leaves: list[list[tuple[PassResult, int]]] = [[] for _ in instances]
    # A branch (first step, state, collapse args, {member: shots}, events) is
    # collapsed when popped. A measurement pushes the (member, leaf) list it
    # ended, then its outcomes in reverse: depth first, without recursing.
    state = basis_state(layout, {**dict.fromkeys(registers, 0), HOME: shadows[0]})
    stack: list = [(0, state, None, dict(enumerate(shots)), ())]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            for b, leaf in entry:
                leaves[b].append(leaf)
            continue
        start, state, collapsed, n, events = entry
        if collapsed is not None:
            state = collapse(state, *collapsed)
        for i in range(start, len(steps)):
            hop_index, step, args = steps[i]
            if not isinstance(step, Measure):
                state = step(state, *args)
                continue
            probs = outcome_probabilities(state, step.register)
            ended, onward = [], {}
            for law, (b, m) in zip(probs if state.batch else [probs], n.items()):
                for value, k in branches[b](law, m):
                    if i > check:
                        ended.append((b, (PassResult(0, value, events), k)))
                    elif i == check and value:
                        ended.append((b, (PassResult(value, None, events), k)))
                    else:
                        onward.setdefault(value, {})[b] = k
            if ended:
                stack.append(ended)
            for value, got in sorted(onward.items(), reverse=True):
                onto = {p: value for p, b in enumerate(n) if b in got} if state.batch else value
                stack.append((i + 1, state, (step.register, onto, probs), got,
                              events if i == check else (*events, (pass_name, hop_index, {"value": value}))))
            break
    return leaves
