import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import qss.adversary
import qss.dealer
import qss.protocol
from qss.adversary import (
    ATTACK_KINDS,
    AttackSpec,
    _chi2_sf,
    _entangle_hook,
    _fourier_intercept_hook,
    _measure_resend_hook,
    run_attack,
    run_shot_series,
    series_digest,
    split_shot_series,
    tv_distance,
    uniformity_pvalue,
)
from qss.cli import main
from qss.dealer import DealerConfig, SharePacket, hash_to_field
from qss.errors import ValueOutOfRange
from qss.field import PrimeModulus, eval_poly
from qss.protocol import (
    Channel, ProtocolTranscript, instance_from_deal, instance_from_shadows, run_pass,
)


def instance(n=4, t=3, secret=1, seed=5, d=5):
    return instance_from_deal(
        DealerConfig(n=n, t=t, secret=secret, rng_seed=seed, d_override=d)
    )


def joint(series):
    """(transcript, shots) per run of one series or of a list of them, read
    from each series' runs, the verdict worked out here from the ancillas,
    f(0)' and g(0)'. Only a one-shot series knows which pass leaves its shot
    took, so only its transcript carries their hook events. The reports'
    counters are checked against it."""
    out = []
    for part in series if isinstance(series, list) else [series]:
        inst = part.instance
        one_shot = sum(n for _, n in part.secret) == 1
        events = tuple(e for p, _ in part.secret + part.hashed for e in p.events) if one_shot else ()
        for run, n in part.runs.items():
            if any(run.ancilla):
                verdict = "abort_ancilla"
            elif hash_to_field(run.f0, inst.modulus) == run.g0:
                verdict = "accepted"
            else:
                verdict = "abort_hash"
            out.append((ProtocolTranscript(
                d=inst.modulus.d, t=inst.t, xs=inst.xs,
                shadows_secret=inst.shadows_secret, shadows_hash=inst.shadows_hash,
                ancilla=run.ancilla, f0=run.f0, g0=run.g0, verdict=verdict, seed=None,
                hook_events=events,
            ), n))
    return out


def tally(leaves, key):
    """Shots per key(transcript) over (transcript, shots) leaves."""
    out = Counter()
    for tr, n in leaves:
        out[key(tr)] += n
    return out


def within_binomial_4sigma(rate, p, shots):
    sigma = math.sqrt(p * (1 - p) / shots)
    return abs(rate - p) <= 4 * sigma


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="replay")

    def test_shots_positive(self):
        with pytest.raises(ValueOutOfRange):
            AttackSpec(kind="forgery", shots=0)

    @pytest.mark.parametrize("kind, fields", [
        ("intercept_resend", {"hop_index": 1.0}),
        ("intercept_resend", {"hop_index": True}),
        ("forgery", {"player_id": True}),
        ("collusion_probe", {"player_id": 3.0}),
        ("intercept_resend", {"hypotheses": (1.5, 2)}),
        ("collusion_probe", {"hypotheses": (1, True)}),
    ])
    def test_int_fields_take_ints_only(self, kind, fields):
        # Each was echoed in the report while the run truncated it or read
        # True as 1.
        with pytest.raises(ValueOutOfRange, match="must be an int"):
            AttackSpec(kind=kind, shots=4, **fields)

    def test_int_fields_take_numpy_ints(self):
        spec = AttackSpec(kind="intercept_resend", shots=np.int64(4), hop_index=np.int64(1),
                          hypotheses=(np.int64(1), 2))
        forgery = AttackSpec(kind="forgery", shots=4, player_id=np.int64(2))
        # A spec keeps the ints it checked.
        kept = (spec.shots, spec.hop_index, *spec.hypotheses, forgery.player_id)
        assert kept == (4, 1, 1, 2, 2) and all(type(v) is int for v in kept)

    def test_numpy_int_spec_reports_serialise(self):
        # The numpy ints were stored as given and reached the report's JSON.
        inst = instance_from_shadows(5, (1, 2, 3))
        spec = AttackSpec(kind="intercept_resend", shots=np.int64(4), hop_index=np.int64(1), seed=1)
        blob = json.loads(json.dumps(run_attack(inst, spec).to_json()))
        assert blob["shots"] == 4 and blob["extra"]["hop_index"] == 1

    def test_hop_out_of_range(self):
        with pytest.raises(ValueError):
            run_attack(instance(), AttackSpec(kind="intercept_resend", hop_index=3, shots=2))

    def test_intercept_needs_a_hop(self):
        single = instance_from_deal(DealerConfig(n=3, t=1, secret=0, rng_seed=0))
        with pytest.raises(ValueError):
            run_attack(single, AttackSpec(kind="intercept_resend", shots=2))

    def test_fields_are_what_an_attack_takes(self):
        assert [f.name for f in dataclasses.fields(AttackSpec)] == [
            "kind", "hop_index", "player_id", "shots", "seed", "hypotheses", "escalate",
        ]

    def test_escalate_only_for_collusion(self):
        AttackSpec(kind="collusion_probe", shots=4, escalate=True)
        for kind in ("intercept_resend", "intercept_iqft", "entangle_measure", "forgery"):
            with pytest.raises(ValueError, match="escalate"):
                AttackSpec(kind=kind, shots=4, escalate=True)

    def test_intercepts_target_no_player(self):
        for kind in ("forgery", "collusion_probe"):
            AttackSpec(kind=kind, shots=4, player_id=3)
        for kind in ("intercept_resend", "intercept_iqft", "entangle_measure"):
            with pytest.raises(ValueError, match="player"):
                AttackSpec(kind=kind, shots=4, player_id=1)

    def test_player_attacks_intercept_no_hop(self):
        for kind in ("intercept_resend", "intercept_iqft", "entangle_measure"):
            AttackSpec(kind=kind, shots=4, hop_index=2)
        for kind in ("forgery", "collusion_probe"):
            AttackSpec(kind=kind, shots=4, hop_index=0)
            with pytest.raises(ValueError, match="hop"):
                AttackSpec(kind=kind, shots=4, hop_index=1)

    def test_forgery_takes_no_hypotheses(self):
        # Forgery reports no leakage statistic, so hypotheses would be ignored.
        with pytest.raises(ValueError, match="hypotheses"):
            AttackSpec(kind="forgery", shots=4, hypotheses=(0, 1))

    def test_exactly_two_hypotheses(self):
        # One value would crash _observe; a third would run a series that
        # leakage leaves out.
        AttackSpec(kind="intercept_resend", shots=4, hypotheses=(1, 2))
        for hypotheses in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="two shadow values"):
                AttackSpec(kind="intercept_resend", shots=4, hypotheses=hypotheses)

    def test_hypotheses_in_field_range(self, monkeypatch):
        # Rejected before any series runs; 0 and d - 1 are accepted.
        inst = instance(n=4, t=4, d=5)
        for kind in ("intercept_resend", "collusion_probe"):
            report = run_attack(inst, AttackSpec(kind=kind, shots=4, hypotheses=(0, 4)))
            assert report.extra["hypotheses"] == [0, 4]

        def no_series(*args, **kwargs):
            raise AssertionError("a series ran")

        monkeypatch.setattr("qss.adversary.split_shot_series", no_series)
        for kind in ("intercept_resend", "collusion_probe"):
            for hypotheses in ((9, 1), (1, 5), (-1, 2)):
                with pytest.raises(ValueOutOfRange, match="hypothesis"):
                    run_attack(inst, AttackSpec(kind=kind, shots=4, hypotheses=hypotheses))


class TestEntryPoint:
    def test_run_attack_is_the_only_runner(self):
        # run_shot_series is the per-shot reference sampler, not an attack.
        public = {
            name
            for name, value in vars(qss.adversary).items()
            if name.startswith("run_") and getattr(value, "__module__", None) == "qss.adversary"
        }
        assert public == {"run_attack", "run_shot_series"}

    def test_report_kind_is_spec_kind(self):
        inst = instance(n=4, t=4, d=5)
        for kind in ATTACK_KINDS:
            report = run_attack(inst, AttackSpec(kind=kind, shots=4, seed=1))
            assert report.kind == kind


class TestShotSeries:
    """A series draws from one generator: five shots in one series are five
    one-shot series drawing in turn from a shared Generator."""

    def test_one_generator_per_series(self):
        inst = instance()
        channel = Channel(hooks={0: _measure_resend_hook})
        for s in (0, 7, np.random.SeedSequence([3, 1])):
            series = run_shot_series(inst, 5, seed=s, channel=channel)
            g = np.random.default_rng(s)
            manual = [part for _ in range(5) for part in run_shot_series(inst, 1, g, channel)]
            assert series_digest(series) == series_digest(manual)
            assert [tr.hook_events for tr, _ in joint(series)] == [
                tr.hook_events for tr, _ in joint(manual)
            ]

    def test_reference_is_independent_of_the_engine(self, monkeypatch):
        # The reference draws every shot itself; were it to go through the
        # splitting engine, checking the engine against it would prove nothing.
        def engine(*args, **kwargs):
            raise AssertionError("the per-shot reference used the splitting engine")

        monkeypatch.setattr(qss.protocol, "_split", engine)
        monkeypatch.setattr(qss.protocol, "split_shot_series", engine)
        monkeypatch.setattr("qss.adversary.split_shot_series", engine)
        monkeypatch.setattr(qss.protocol.ProtocolInstance, "run", engine)
        series = run_shot_series(instance(), 20, 3, Channel(hooks={0: _measure_resend_hook}))
        leaves = joint(series)
        assert len(series) == len(leaves) == 20 and all(n == 1 for _, n in leaves)


def secret_pass_values(tr):
    return tuple(payload["value"] for name, _, payload in tr.hook_events if name == "secret")


def tv_bound(categories, shots):
    """A bound, fixed before sampling, on the TV distance between two
    empirical laws of `shots` draws each from one law over `categories`
    values. The expected distance is sum_k sqrt(p_k (1 - p_k) / (pi shots))
    <= sqrt(categories / (pi shots)); the bound is 3.5 times that."""
    return 2 * math.sqrt(categories / shots)


class TestSplitSeriesMatchesPerShot:
    """The shot-splitting engine against the per-shot reference: same law of
    observations and of verdicts, and every shot accounted for."""

    SHOTS = 4000
    INTERCEPT = Channel(hooks={0: _measure_resend_hook})
    IQFT = Channel(hooks={0: _fourier_intercept_hook})
    ENTANGLE = Channel(hooks={0: _entangle_hook}, adversary=True)
    COLLUDE = Channel(hooks={1: _measure_resend_hook, 2: _measure_resend_hook})

    # measured: hook measurements per secret pass
    CASES = [
        ("intercept_resend d=5", instance(), INTERCEPT, 1),
        ("intercept_iqft d=3", instance(n=2, t=2, secret=2, seed=8, d=3), IQFT, 1),
        ("intercept_iqft d=5", instance(), IQFT, 1),
        ("entangle_measure d=3", instance(n=2, t=2, secret=1, seed=11, d=3), ENTANGLE, 1),
        ("collusion_probe d=3 t=4", instance_from_shadows(3, (1, 2, 0, 1), (1, 1, 1, 1)),
         COLLUDE, 2),
    ]

    @pytest.mark.parametrize("label, inst, channel, measured", CASES)
    def test_channel_series(self, label, inst, channel, measured):
        d, shots = inst.modulus.d, self.SHOTS
        series = split_shot_series(inst, shots, seed=90, channel=channel)
        leaves = joint(series)
        assert sum(n for _, n in leaves) == shots, label
        assert all(n > 0 for _, n in leaves), label
        reference = joint(run_shot_series(inst, shots, seed=91, channel=channel))
        for engine, by_shot, categories in (
            (qss.adversary.tally(series.secret, observed), tally(reference, secret_pass_values),
             d**measured),
            (tally(leaves, lambda tr: tr.verdict), tally(reference, lambda tr: tr.verdict), 3),
        ):
            tv = tv_distance(engine, by_shot, shots, shots)
            assert tv <= tv_bound(categories, shots), (label, tv)

    @pytest.mark.parametrize("label, inst, channel, measured", CASES)
    def test_run_is_one_shot_series(self, label, inst, channel, measured):
        # One engine: a run is the single leaf of a one-shot series, hook
        # events included, and records its int seed.
        for s in range(20):
            ((leaf, n),) = joint(split_shot_series(inst, 1, s, channel))
            run = inst.run(channel=channel, seed=s)
            assert n == 1 and run == dataclasses.replace(leaf, seed=s), (label, s)

    def test_forgery(self):
        inst, shots = instance(), self.SHOTS
        position, d = 2, inst.modulus.d
        true_value = inst.shadows_secret[position - 1]

        def forge(base, rng):
            return base.with_shadow(position, (true_value + 1 + int(rng.integers(d - 1))) % d)

        report = run_attack(inst, AttackSpec(kind="forgery", shots=shots, seed=92))
        assert sum(report.outcome_histogram.values()) == shots
        # Per shot, one draw of the forged shadow, then the run, from one generator.
        g = np.random.default_rng(93)
        reference = joint([
            part for _ in range(shots) for part in run_shot_series(forge(inst, g), 1, g)
        ])
        f0s = tally(reference, lambda tr: tr.f0)
        assert tv_distance(Counter(report.outcome_histogram), f0s, shots, shots) <= tv_bound(
            d, shots
        )
        verdicts = tally(reference, lambda tr: tr.verdict)
        rates = {
            "accepted": 1 - report.detection_rate,
            "abort_ancilla": report.ancilla_abort_rate,
            "abort_hash": report.hash_abort_rate,
        }
        tv = 0.5 * sum(abs(rates[v] - verdicts[v] / shots) for v in rates)
        assert tv <= tv_bound(3, shots)


def exact(probs, weight):
    """Branch policy of the exact law: every outcome takes its probability
    times the weight reaching it, so a pass walked with one unit of weight
    gives each leaf its probability."""
    return [(v, weight * p / math.fsum(probs)) for v, p in enumerate(probs) if p > 1e-20]


def exact_pass(inst, channel, pass_name):
    return run_pass([inst], channel, pass_name, [1.0], [exact])[0]


class TestExactLaws:
    """Laws computed by walking every branch with its probability, pinned to
    1e-12 beside the sampled 4-sigma windows of the other classes."""

    TOL = 1e-12

    @pytest.mark.parametrize("d", [7, 31])
    def test_player_view_is_maximally_mixed(self, d):
        # What crosses a hop of an honest ring is T, whose reduced state is
        # I/d whatever the secret and the shadows: T alone tells its holder
        # nothing.
        t, worst, seen = 5, [], []

        def record(state):
            psi = state.amplitudes.reshape(d, d)  # [H, T]
            rho = psi.T @ psi.conj()
            worst.append(float(np.abs(rho - np.eye(d) / d).max()))
            return state

        channel = Channel(hooks={hop: (record,) for hop in range(t)})
        for secret in (0, 3, d - 1):
            inst = instance(n=6, t=t, secret=secret, seed=secret + 1, d=d)
            for pass_name in ("secret", "hash"):
                exact_pass(inst, channel, pass_name)
                seen.append(len(worst))
        assert seen == [t * k for k in range(1, 7)]
        assert max(worst) <= self.TOL

    @pytest.mark.parametrize("d", [7, 31])
    def test_each_hop_carries_the_shadows_so_far(self, d):
        # Hop j carries T from P_{j+1} to P_{j+2}, after P1..P_{j+1} have
        # each phased it by their shadow: the state in transit is
        # sum_k w^((s_1 + ... + s_{j+1}) k) |k>_H |k>_T / sqrt d.
        t, seen = 5, {}

        def record(hop):
            def step(state):
                seen[hop] = state.amplitudes.reshape(d, d)  # [H, T]
                return state
            return step

        channel = Channel(hooks={hop: (record(hop),) for hop in range(t)})
        inst = instance(n=6, t=t, secret=3, seed=4, d=d)
        for pass_name, shadows in (("secret", inst.shadows_secret), ("hash", inst.shadows_hash)):
            seen.clear()
            exact_pass(inst, channel, pass_name)
            for hop in range(t):
                phase = sum(shadows[:hop + 1]) % d
                want = np.diag(np.exp(2j * np.pi * phase * np.arange(d) / d)) / math.sqrt(d)
                assert np.abs(seen[hop] - want).max() <= self.TOL, (pass_name, hop)

    @pytest.mark.parametrize("d", [7, 31])
    def test_honest_pass_has_one_leaf_on_the_secret(self, d):
        for secret in (0, 3, d - 1):
            inst = instance(n=6, t=5, secret=secret, seed=secret + 1, d=d)
            values = {"secret": secret, "hash": hash_to_field(secret, inst.modulus)}
            for pass_name, value in values.items():
                [(leaf, weight)] = exact_pass(inst, Channel(), pass_name)
                assert (leaf.ancilla, leaf.value, leaf.events) == (0, value, ())
                assert abs(weight - 1) <= self.TOL

    @staticmethod
    def detection(inst, channel):
        """The exact detection rate. The passes are independent: a run is
        accepted when both ancillas read 0 and the hash pass reads the hash
        of the secret pass's f(0)'."""
        law = {}
        for pass_name in ("secret", "hash"):
            law[pass_name] = Counter()
            for leaf, weight in exact_pass(inst, channel, pass_name):
                if leaf.ancilla == 0:
                    law[pass_name][leaf.value] += weight
        accept = math.fsum(
            p * law["hash"][hash_to_field(f, inst.modulus)] for f, p in law["secret"].items()
        )
        return 1 - accept

    @pytest.mark.parametrize("d", [7, 31])
    @pytest.mark.parametrize("channel", [
        TestSplitSeriesMatchesPerShot.INTERCEPT, TestSplitSeriesMatchesPerShot.ENTANGLE,
    ], ids=["intercept_resend", "entangle_measure"])
    def test_detection_is_one_minus_one_over_d(self, d, channel):
        inst = instance(secret=1, seed=1, d=d)
        assert abs(self.detection(inst, channel) - (d - 1) / d) <= self.TOL

    @pytest.mark.parametrize("d", [7, 31])
    def test_intercept_iqft_detection(self, d):
        # The Fourier intercept trips the secret-pass ancilla with probability
        # (d - 1)/d; a run is accepted only if both ancillas read 0 and the
        # hash pass, disturbed too, lands on the hash: 1/d^3 in all.
        inst, channel = instance(secret=1, seed=1, d=d), TestSplitSeriesMatchesPerShot.IQFT
        aborted = math.fsum(w for leaf, w in exact_pass(inst, channel, "secret") if leaf.ancilla)
        assert abs(aborted - (d - 1) / d) <= self.TOL
        assert abs(self.detection(inst, channel) - (1 - 1 / d**3)) <= self.TOL

    INTERCEPTS = [
        TestSplitSeriesMatchesPerShot.INTERCEPT, TestSplitSeriesMatchesPerShot.IQFT,
        TestSplitSeriesMatchesPerShot.ENTANGLE,
    ]
    INTERCEPT_IDS = ["intercept_resend", "intercept_iqft", "entangle_measure"]

    @staticmethod
    def observation_law(inst, channel):
        """The exact law of what the hooks measure in the secret pass, every
        leaf counted, aborted or not, as tally counts them."""
        law = Counter()
        for leaf, weight in exact_pass(inst, channel, "secret"):
            law[tuple(payload["value"] for _, _, payload in leaf.events)] += weight
        return law

    @pytest.mark.parametrize("d", [7, 31])
    @pytest.mark.parametrize("channel", INTERCEPTS, ids=INTERCEPT_IDS)
    def test_intercepted_outcome_is_uniform(self, d, channel):
        law = self.observation_law(instance(secret=1, seed=1, d=d), channel)
        assert set(law) == {(v,) for v in range(d)}
        assert max(abs(p - 1 / d) for p in law.values()) <= self.TOL

    @pytest.mark.parametrize("d", [7, 31])
    @pytest.mark.parametrize("label, channel", [
        *zip(INTERCEPT_IDS, INTERCEPTS),
        ("collusion_probe", TestSplitSeriesMatchesPerShot.COLLUDE),
        ("collusion_probe escalated",
         Channel(hooks={1: _fourier_intercept_hook, 2: _measure_resend_hook})),
    ])
    def test_observation_is_blind_to_the_forced_shadow(self, d, label, channel):
        # Zero leakage: the attacker's view in the secret pass has one exact
        # law whatever the shadow the hypothesis series force (P1's for an
        # intercept, the middle player's for collusion's joint view).
        collusion = label.startswith("collusion")
        inst = instance(n=5, t=4, secret=2, seed=3, d=d) if collusion else instance(seed=1, d=d)
        position = 3 if collusion else 1
        for a, b in ((1, 2), (0, d - 1)):
            law_a = self.observation_law(inst.with_shadow(position, a), channel)
            law_b = self.observation_law(inst.with_shadow(position, b), channel)
            assert law_a, label
            assert max(abs(law_a[k] - law_b[k]) for k in law_a.keys() | law_b.keys()) <= self.TOL


class TestWorkPerSeries:
    """A series walks each distinct measurement branch once and never replays
    a pass, so each pass builds its state once (one basis_state call) however
    many shots and branches it has."""

    @staticmethod
    def passes(monkeypatch, action):
        calls = []
        real = qss.protocol.basis_state

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(qss.protocol, "basis_state", counting)
            action()
        return len(calls)

    def test_simulate_preset(self, monkeypatch):
        def simulate(shots):
            return lambda: main(
                ["simulate", "--preset", "players-4", "--shots", str(shots), "--seed", "3"]
            )

        one = self.passes(monkeypatch, simulate(1))
        million = self.passes(monkeypatch, simulate(1_000_000))
        assert one == million == 2

    def test_intercept_resend_series(self, monkeypatch):
        channel = Channel(hooks={0: _measure_resend_hook})

        def series(shots):
            return lambda: split_shot_series(instance(), shots, seed=5, channel=channel)

        thousand = self.passes(monkeypatch, series(10**3))
        million = self.passes(monkeypatch, series(10**6))
        # five intercepted values times five H outcomes share one state per pass
        assert thousand == million == 2

    def test_one_shot_follows_one_path(self, monkeypatch):
        channel = Channel(hooks={0: _entangle_hook}, adversary=True)
        split = self.passes(monkeypatch, lambda: split_shot_series(instance(), 1, 6, channel))
        run = self.passes(monkeypatch, lambda: instance().run(channel=channel, seed=6))
        assert split == run == 2

    def test_one_hash_per_f0(self, monkeypatch):
        # The hash check depends only on f(0)', so a collusion series takes
        # one SHA1 per value of f(0)' that passed, not one per pass leaf.
        calls = []

        def sha1(data):
            calls.append(data)
            return hashlib.sha1(data)

        inst = instance(n=4, t=4, d=5)
        channel = Channel(hooks={1: _measure_resend_hook, 2: _measure_resend_hook})
        monkeypatch.setattr(qss.dealer, "hashlib", SimpleNamespace(sha1=sha1))
        series = split_shot_series(inst, 4000, 17, channel)
        passed = [p.value for p, _ in series.secret if p.ancilla == 0]
        assert 0 < len(calls) == len(set(passed)) < len(passed)


class TestControlRuns:
    def test_every_runner_reproduces_honest_transcripts(self):
        secret = 1
        insts = {
            "intercept_resend": instance(secret=secret),
            "intercept_iqft": instance(secret=secret),
            "entangle_measure": instance(secret=secret),
            "forgery": instance(secret=secret),
            "collusion_probe": instance(n=4, t=4, secret=secret, d=5),
        }
        for kind, inst in insts.items():
            # With no hook installed every shot is accepted on the secret,
            # and the split engine matches the per-shot reference exactly.
            series = split_shot_series(inst, 40, 33)
            leaves = joint(series)
            assert all(tr.accepted for tr, _ in leaves), kind
            assert tally(leaves, lambda tr: tr.f0) == {secret: 40}, kind
            assert series_digest([series]) == series_digest(run_shot_series(inst, 40, 33)), kind

    def test_control_detection_rate_zero_d2(self):
        # d=2 control: the only d=2 ring lives at the shadow level, so build
        # shadow lists consistent with secret 1 and its hash.
        h = hash_to_field(1, PrimeModulus(2))
        inst = instance_from_shadows(2, (1, 0), (h, 0))
        leaves = joint(split_shot_series(inst, 64, 1))
        assert sum(n for _, n in leaves) == 64
        assert all(tr.accepted and tr.ancilla == (0, 0) for tr, _ in leaves)


def digest_of_leaves(leaves):
    """series_digest's fingerprint, computed transcript by transcript."""
    counts = Counter()
    for tr, n in leaves:
        counts[
            f"{tr.verdict}|{tr.f0}|{tr.g0}|{tr.ancilla}|{tr.shadows_secret}|{tr.shadows_hash}"
        ] += n
    h = hashlib.sha1()
    for line, n in sorted(counts.items()):
        h.update(f"{line}|{n}\n".encode())
    return h.hexdigest()


def observed(leaf):
    """What a hook measured in a secret pass, from its pass leaf."""
    return tuple(payload["value"] for _, _, payload in leaf.events)


class TestTableMatchesLeaves:
    """A report counts shots from the pass leaves and the series' runs; every
    count must equal the per-transcript formula over the series' transcripts
    (joint)."""

    CASES = [(label, inst, channel) for label, inst, channel, _ in TestSplitSeriesMatchesPerShot.CASES]
    CASES += [
        ("honest d=5", instance(), None),
        ("forged d=5", instance(secret=0).with_shadow(2, 1), None),
    ]

    @pytest.mark.parametrize("label, inst, channel", CASES, ids=[c[0] for c in CASES])
    def test_counts(self, label, inst, channel):
        for seed, shots in itertools.product(range(5), (1, 7, 500)):
            series = split_shot_series(inst, shots, seed, channel)
            leaves = joint(series)
            assert sum(n for _, n in leaves) == shots, (label, seed, shots)
            keys = [(lambda leaf: leaf.value, lambda tr: tr.f0)]
            if shots == 1:  # only a one-shot transcript carries hook events
                keys.append((observed, secret_pass_values))
            for leaf_key, transcript_key in keys:
                table = qss.adversary.tally(series.secret, leaf_key)
                reference = tally(leaves, transcript_key)
                # Same counts, keys first seen in the same order.
                assert list(table.items()) == list(reference.items()), (label, seed, shots)
            report = qss.adversary._summarize(
                AttackSpec(kind="intercept_resend", shots=shots), [series], Counter(), None, None, {}
            )
            detected = sum(n for tr, n in leaves if not tr.accepted)
            ancilla = sum(n for tr, n in leaves if tr.ancilla and tr.ancilla[0] != 0)
            hashes = sum(n for tr, n in leaves if tr.verdict == "abort_hash")
            assert (report.detection_rate, report.ancilla_abort_rate, report.hash_abort_rate) == (
                detected / shots, ancilla / shots, hashes / shots
            ), (label, seed, shots)
            assert series_digest([series]) == digest_of_leaves(leaves), (label, seed, shots)

    def test_forgery_report(self, monkeypatch):
        # Forgery at d=5 on secret 0: the forged f(0)' = 4 hashes like 0, so
        # about a quarter of the shots are residual collisions.
        recorded = []
        real = qss.adversary.split_batch

        def recording(*args, **kwargs):
            recorded.append(real(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(qss.adversary, "split_batch", recording)
        residuals = 0
        for seed, shots in itertools.product(range(5), (1, 7, 500)):
            recorded.clear()
            report = run_attack(instance(secret=0), AttackSpec(kind="forgery", shots=shots, seed=seed))
            (batch,) = recorded  # one batch of every forged ring
            leaves = joint(batch)
            assert sum(n for _, n in leaves) == shots
            residual = sum(n for tr, n in leaves if tr.accepted)
            assert report.extra["residual_collision_shots"] == residual, (seed, shots)
            assert report.detection_rate == sum(n for tr, n in leaves if not tr.accepted) / shots
            assert report.outcome_histogram == tally(leaves, lambda tr: tr.f0)
            assert report.extra["series_digest"] == digest_of_leaves(leaves)
            residuals += residual
        assert residuals > 0


class RecordingGenerator(np.random.Generator):
    """default_rng(seed)'s stream, recording the number of groups of each
    multivariate hypergeometric draw it makes."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = []

    def multivariate_hypergeometric(self, colors, nsample, *args, **kwargs):
        self.draws.append(len(colors))
        return super().multivariate_hypergeometric(colors, nsample, *args, **kwargs)


class TestPairing:
    """A series pairs its passes by key: the passed secret-pass shots, grouped
    by f(0)', are matched at random with the hash-pass shots, grouped by
    (ancilla, g(0)')."""

    INTERCEPTS = [TestSplitSeriesMatchesPerShot.INTERCEPT, TestSplitSeriesMatchesPerShot.ENTANGLE]

    @pytest.mark.parametrize("label, inst, channel", TestTableMatchesLeaves.CASES,
                             ids=[c[0] for c in TestTableMatchesLeaves.CASES])
    def test_runs_add_up_to_the_pass_leaves(self, label, inst, channel):
        for seed, shots in itertools.product(range(3), (1, 7, 500)):
            series = split_shot_series(inst, shots, seed, channel)
            aborts, f0s, groups = Counter(), Counter(), Counter()
            for p, n in series.secret:
                if p.ancilla:
                    aborts[p.ancilla] += n
                else:
                    f0s[p.value] += n
            for q, n in series.hashed:
                groups[q.ancilla, q.value] += n
            marginals = Counter(), Counter(), Counter()
            for run, n in series.runs.items():
                if len(run.ancilla) == 1:
                    marginals[0][run.ancilla[0]] += n
                else:
                    marginals[1][run.f0] += n
                    marginals[2][run.ancilla[1], run.g0] += n
            assert marginals == (aborts, f0s, groups), (label, seed, shots)
            assert sum(f0s.values()) == sum(groups.values()), (label, seed, shots)

    @pytest.mark.parametrize("d", [5, 7])
    @pytest.mark.parametrize("channel", INTERCEPTS, ids=["intercept_resend", "entangle_measure"])
    def test_runs_follow_the_product_law(self, d, channel):
        # The passes are independent, so a run's law is the product of the
        # two pass laws: P(f(0)') P(hash ancilla, g(0)') once the secret pass
        # passed, and P(accepted) = sum over f(0)' of P_s(0, f(0)') P_h(0, h(f(0)')).
        inst, shots = instance(secret=1, seed=1, d=d), 10**6
        law, accepted = Counter(), 0.0
        hashed = [(q.ancilla, q.value, w) for q, w in exact_pass(inst, channel, "hash")]
        for p, w in exact_pass(inst, channel, "secret"):
            if p.ancilla:
                law["abort", p.ancilla] += w
                continue
            h = hash_to_field(p.value, inst.modulus)
            for ancilla, g0, v in hashed:
                law[p.value, ancilla, g0] += w * v
                if (ancilla, g0) == (0, h):
                    accepted += w * v
        series = split_shot_series(inst, shots, 5, channel)
        counts = Counter()
        for run, n in series.runs.items():
            key = ("abort", run.ancilla[0]) if len(run.ancilla) == 1 else (run.f0, run.ancilla[1], run.g0)
            counts[key] += n
        rate = sum(n for run, n in series.runs.items() if run.verdict == "accepted") / shots
        assert within_binomial_4sigma(rate, accepted, shots), (rate, accepted)
        assert set(counts) <= set(law)
        chi2 = sum((counts[k] - shots * p) ** 2 / (shots * p) for k, p in law.items())
        assert _chi2_sf(chi2, len(law) - 1) > 1e-4, chi2

    CASES = [
        ("intercept_resend d=5", instance(), TestSplitSeriesMatchesPerShot.INTERCEPT),
        ("entangle_measure d=5", instance(), TestSplitSeriesMatchesPerShot.ENTANGLE),
        ("collusion_probe d=5 t=4", instance(n=4, t=4, d=5), TestSplitSeriesMatchesPerShot.COLLUDE),
        ("intercept_resend d=31", instance(d=31), TestSplitSeriesMatchesPerShot.INTERCEPT),
    ]

    @pytest.mark.parametrize("label, inst, channel", CASES, ids=[c[0] for c in CASES])
    def test_one_draw_per_f0_but_the_last(self, label, inst, channel):
        # Each draw deals the hash-pass groups, at most 2d - 1 of them, to one
        # f(0)'; the last f(0)' takes what is left.
        rng = RecordingGenerator(8)
        series = split_shot_series(inst, 5000, rng, channel)
        passed = [p.value for p, _ in series.secret if p.ancilla == 0]
        assert len(rng.draws) == len(set(passed)) - 1 < len(passed) - 1, label
        assert max(rng.draws) <= 2 * inst.modulus.d, label

    def test_one_f0_makes_no_draw(self):
        channel = TestSplitSeriesMatchesPerShot.INTERCEPT
        for draw in (
            lambda rng: split_shot_series(instance(), 5000, rng),
            lambda rng: split_shot_series(instance(), 1, rng, channel),
            lambda rng: instance().run(channel, rng),
            lambda rng: run_shot_series(instance(), 50, rng, channel),
        ):
            rng = RecordingGenerator(3)
            draw(rng)
            assert rng.draws == []


def full_series_tally(forced, shots, seed, salt, channel, key):
    """A hypothesis histogram by the route that runs the whole series (both
    passes and the pairing) and reads its secret-pass leaves: the aborts
    first, then the leaves that passed, each in walk order."""
    series = split_shot_series(forced, shots, np.random.SeedSequence([seed, salt]), channel)
    out = Counter()
    for leaf, n in sorted(series.secret, key=lambda leaf_n: leaf_n[0].ancilla == 0):
        out[key(leaf)] += n
    return out


class TestHypothesisSeries:
    """A hypothesis series draws its secret pass only. Those are the first
    draws of its generator, so leakage and the hypothesis histograms are
    those of the whole two-pass series, bit for bit, and the attacked series
    is the only one that runs the hash pass and the pairing."""

    ESCALATED = Channel(hooks={1: _fourier_intercept_hook, 2: _measure_resend_hook})
    CASES = [
        ("intercept_resend", {}, TestSplitSeriesMatchesPerShot.INTERCEPT),
        ("intercept_iqft", {}, TestSplitSeriesMatchesPerShot.IQFT),
        ("entangle_measure", {}, TestSplitSeriesMatchesPerShot.ENTANGLE),
        ("collusion_probe", {}, TestSplitSeriesMatchesPerShot.COLLUDE),
        ("collusion_probe", {"escalate": True}, ESCALATED),
    ]
    IDS = ["intercept_resend", "intercept_iqft", "entangle_measure", "collusion", "escalated"]

    @staticmethod
    def setting(kind):
        """Instance, forced position and observation key of a kind."""
        if kind == "collusion_probe":
            return instance(n=4, t=4, secret=2, d=5), 3, observed
        return instance(), 1, lambda leaf: observed(leaf)[0]

    @pytest.mark.parametrize("kind, fields, channel", CASES, ids=IDS)
    def test_matches_the_full_series(self, kind, fields, channel):
        inst, position, key = self.setting(kind)
        hypotheses = (0, 2)
        for seed, shots in itertools.product(range(5), (1, 7, 500)):
            spec = AttackSpec(kind=kind, shots=shots, seed=seed, hypotheses=hypotheses, **fields)
            report = run_attack(inst, spec)
            histograms = [
                full_series_tally(inst.with_shadow(position, value), shots, seed, salt, channel, key)
                for salt, value in enumerate(hypotheses, start=1)
            ]
            assert report.leakage == tv_distance(*histograms, shots, shots), (kind, seed, shots)
            if kind != "collusion_probe":
                assert report.extra["hypothesis_histograms"] == [
                    {str(k): v for k, v in sorted(h.items())} for h in histograms
                ], (kind, seed, shots)

    @pytest.mark.parametrize("kind, fields", [case[:2] for case in CASES], ids=IDS)
    def test_one_hash_pass_and_one_pairing(self, monkeypatch, kind, fields):
        calls = Counter()
        real_run_pass, real_shot_series = qss.protocol.run_pass, qss.protocol.shot_series

        def run_pass(instance, channel, pass_name, *args):
            calls[pass_name] += 1
            return real_run_pass(instance, channel, pass_name, *args)

        def shot_series(*args):
            calls["shot_series"] += 1
            return real_shot_series(*args)

        monkeypatch.setattr(qss.protocol, "run_pass", run_pass)
        monkeypatch.setattr(qss.protocol, "shot_series", shot_series)
        inst, _, _ = self.setting(kind)
        run_attack(inst, AttackSpec(kind=kind, shots=500, seed=3, hypotheses=(0, 2), **fields))
        assert calls == {"secret": 3, "hash": 1, "shot_series": 1}

    def test_only_the_attacked_series_meets_the_pairing_bound(self, monkeypatch):
        # The bound guards a pairing draw, and only the attacked series makes
        # one. At seed 4 it passes 98 shots to the hash pass and the two
        # hypothesis series would pass 110 and 103.
        inst = instance()
        spec = AttackSpec(kind="intercept_iqft", shots=500, seed=4, hypotheses=(0, 2))
        series = split_shot_series(inst, 500, 4, TestSplitSeriesMatchesPerShot.IQFT)
        paired = sum(n for _, n in series.hashed)
        assert paired == 98
        monkeypatch.setattr(qss.protocol, "MAX_PAIRED_SHOTS", paired)
        assert run_attack(inst, spec).extra["series_digest"] == series_digest([series])
        monkeypatch.setattr(qss.protocol, "MAX_PAIRED_SHOTS", paired - 1)
        with pytest.raises(ValueOutOfRange, match="pairing"):
            run_attack(inst, spec)


class TestNoTranscriptPerPair:
    """Reports and simulate count shots from the pass leaves and the runs:
    they build no ProtocolTranscript at all."""

    @staticmethod
    def transcripts(monkeypatch, action):
        built = []
        real = qss.protocol.ProtocolTranscript.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(qss.protocol.ProtocolTranscript, "__init__", counting)
            action()
        return len(built)

    def test_attack(self, monkeypatch):
        spec = AttackSpec(kind="intercept_resend", shots=500, seed=1, hypotheses=(1, 3))
        assert self.transcripts(monkeypatch, lambda: run_attack(instance(), spec)) == 0

    def test_simulate(self, monkeypatch, capsys):
        argv = ["simulate", "--preset", "players-4", "--shots", "500"]
        assert self.transcripts(monkeypatch, lambda: main(argv)) == 0

    def test_sweep(self, monkeypatch, capsys):
        argv = ["sweep", "--d-max", "13", "--t-max", "4", "--n-max", "6", "--seed", "3"]
        assert self.transcripts(monkeypatch, lambda: main(argv)) == 0

    def test_counter_sees_a_run(self, monkeypatch):
        def runs():
            for seed in range(3):
                instance().run(seed=seed)

        assert self.transcripts(monkeypatch, runs) == 3


class TestInterceptResend:
    def test_outcomes_uniform(self):
        shots = 4000
        report = run_attack(
            instance(), AttackSpec(kind="intercept_resend", shots=shots, seed=2)
        )
        assert sum(report.outcome_histogram.values()) == shots
        assert report.chi2_pvalue > 1e-3
        for v in range(5):
            assert within_binomial_4sigma(
                report.outcome_histogram.get(v, 0) / shots, 1 / 5, shots
            )

    def test_leakage_independent_of_s1(self):
        report = run_attack(
            instance(),
            AttackSpec(kind="intercept_resend", shots=4000, seed=3, hypotheses=(1, 3)),
        )
        assert report.leakage is not None and report.leakage < 0.05

    def test_ancilla_check_blind_to_resend(self):
        # Measuring T in the computational basis collapses H along with it,
        # so the ancilla check passes and only the hash comparison catches
        # the attack.
        report = run_attack(
            instance(), AttackSpec(kind="intercept_resend", shots=1500, seed=4)
        )
        assert report.ancilla_abort_rate == 0.0
        assert within_binomial_4sigma(report.detection_rate, 4 / 5, 1500)

    def test_interception_at_later_hop(self):
        report = run_attack(
            instance(), AttackSpec(kind="intercept_resend", hop_index=2, shots=1000, seed=5)
        )
        assert sum(report.outcome_histogram.values()) == 1000
        assert report.chi2_pvalue > 1e-3


class TestInterceptIqft:
    @staticmethod
    def hand_evolved_d2_failure_probability(s1, s2):
        """Evolve the 4-dim (H, T) state with plain numpy: QFT, copy,
        adversary iQFT on T, then for each T outcome finish the pass and
        accumulate the probability that the final T measurement is nonzero."""
        h_mat = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        amp = np.zeros((2, 2), dtype=complex)
        amp[s1, 0] = 1.0
        amp = np.einsum("hs,st->ht", h_mat, amp)  # QFT_H (dummy T index rides along)
        amp = np.stack([amp[0, [0, 1]], amp[1, [1, 0]]])  # copy: t -> h xor t
        amp = amp @ h_mat.conj().T  # iQFT on T
        fail = 0.0
        for m in (0, 1):
            branch = np.zeros_like(amp)
            branch[:, m] = amp[:, m]
            p_m = np.sum(np.abs(branch) ** 2)
            branch = branch / math.sqrt(p_m)
            branch[:, m] *= np.exp(2j * np.pi * s2 * m / 2)  # P2's phase, global
            uncopied = np.stack([branch[0, [0, 1]], branch[1, [1, 0]]])
            fail += p_m * np.sum(np.abs(uncopied[:, 1]) ** 2)
        return fail

    def test_d2_oracle_gives_half(self):
        for s1 in (0, 1):
            for s2 in (0, 1):
                assert abs(self.hand_evolved_d2_failure_probability(s1, s2) - 0.5) < 1e-12

    def test_ancilla_failure_rate_d2(self):
        from qss.protocol import instance_from_shadows

        inst = instance_from_shadows(2, (1, 0), (1, 1))
        shots = 3000
        report = run_attack(
            inst, AttackSpec(kind="intercept_iqft", shots=shots, seed=6)
        )
        assert within_binomial_4sigma(report.ancilla_abort_rate, 0.5, shots)

    def test_ancilla_failure_rate_d5(self):
        shots = 3000
        report = run_attack(
            instance(), AttackSpec(kind="intercept_iqft", shots=shots, seed=7)
        )
        assert within_binomial_4sigma(report.ancilla_abort_rate, 4 / 5, shots)

    def test_outcomes_match_analytic_marginal(self):
        # T marginal of the post-copy state is uniform: the state is
        # (1/sqrt d) sum_k w^(s1 k) |k>|k>, so each T value carries mass 1/d.
        d, shots = 3, 3000
        inst = instance(n=2, t=2, secret=2, seed=8, d=3)
        report = run_attack(
            inst, AttackSpec(kind="intercept_iqft", shots=shots, seed=8)
        )
        marginal = [1 / d] * d
        for v in range(d):
            assert within_binomial_4sigma(
                report.outcome_histogram.get(v, 0) / shots, marginal[v], shots
            )
        assert report.chi2_pvalue > 1e-3

    def test_leakage_small(self):
        report = run_attack(
            instance(),
            AttackSpec(kind="intercept_iqft", shots=3000, seed=9, hypotheses=(0, 2)),
        )
        assert report.leakage < 0.06


class TestEntangleMeasure:
    def test_adversary_outcomes_uniform(self):
        shots = 3000
        report = run_attack(
            instance(), AttackSpec(kind="entangle_measure", shots=shots, seed=10)
        )
        assert sum(report.outcome_histogram.values()) == shots
        for v in range(5):
            assert within_binomial_4sigma(
                report.outcome_histogram.get(v, 0) / shots, 1 / 5, shots
            )

    def test_leakage_small(self):
        inst = instance(n=2, t=2, secret=1, seed=11, d=3)
        report = run_attack(
            inst,
            AttackSpec(kind="entangle_measure", shots=3000, seed=11, hypotheses=(0, 1)),
        )
        assert report.leakage < 0.06

    def test_leakage_small_d2(self):
        # d=2 with two players only exists at the shadow level.
        from qss.protocol import instance_from_shadows

        inst = instance_from_shadows(2, (1, 0), (0, 0))
        report = run_attack(
            inst,
            AttackSpec(kind="entangle_measure", shots=2000, seed=24, hypotheses=(0, 1)),
        )
        assert report.leakage < 0.06
        for v in (0, 1):
            assert within_binomial_4sigma(
                report.outcome_histogram.get(v, 0) / 2000, 0.5, 2000
            )

    def test_disturbance_shows_in_hash_not_ancilla(self):
        shots = 2000
        report = run_attack(
            instance(), AttackSpec(kind="entangle_measure", shots=shots, seed=12)
        )
        assert report.ancilla_abort_rate == 0.0
        assert within_binomial_4sigma(report.hash_abort_rate, 4 / 5, shots)


class TestForgery:
    def test_detection_matches_exhaustive_oracle(self):
        # d=5, S=1: enumerate every fake shadow delta; none collides, so the
        # empirical detection rate must be exactly 1.
        d, secret = 5, 1
        h = hash_to_field(secret, PrimeModulus(d))
        ground_truth = sum(
            1
            for delta in range(1, d)
            if hash_to_field((secret + delta) % d, PrimeModulus(d)) != h
        ) / (d - 1)
        assert ground_truth == 1.0
        report = run_attack(
            instance(secret=secret), AttackSpec(kind="forgery", shots=2000, seed=13)
        )
        assert report.detection_rate == 1.0
        assert report.ancilla_abort_rate == 0.0
        assert report.extra["residual_collision_shots"] == 0

    def test_residual_collision_search_d3(self):
        # Exhaustive over all (fake_f, fake_g) pairs at d=3, t=2: the run is
        # accepted exactly when the forged f(0)' and g(0)' still satisfy the
        # hash equation, and the report must flag those shots.
        d = 3
        inst = instance(n=2, t=2, secret=1, seed=15, d=d)
        mod = PrimeModulus(d)
        s_true = inst.shadows_secret[1]
        h_true = inst.shadows_hash[1]
        base_f = sum(inst.shadows_secret) % d
        base_g = sum(inst.shadows_hash) % d
        found_residual = 0
        for fake_f, fake_g in itertools.product(range(d), repeat=2):
            if fake_f == s_true:
                continue
            f0 = (base_f - s_true + fake_f) % d
            g0 = (base_g - h_true + fake_g) % d
            oracle_accepts = hash_to_field(f0, mod) == g0
            forged = inst.with_shadow(2, fake_f).with_shadow(2, fake_g, "hash")
            leaves = joint(split_shot_series(forged, 8, 16))
            accepted = sum(n for tr, n in leaves if tr.accepted)
            assert accepted == (8 if oracle_accepts else 0)
            found_residual += oracle_accepts
        # SHA1 of the small inputs is constant mod 3, so exactly the
        # fake_g == true hash shadow column collides.
        assert found_residual == 2

    def test_uniform_forgery_always_collides_d3(self):
        # SHA1 of 0, 1 and 2 is 2 mod 3, so every forged f(0)' still matches
        # the untouched hash shadow sum and no shot is detected.
        mod = PrimeModulus(3)
        assert {hash_to_field(v, mod) for v in range(3)} == {2}
        inst = instance(n=2, t=2, secret=1, seed=15, d=3)
        report = run_attack(inst, AttackSpec(kind="forgery", shots=300, seed=16))
        assert report.detection_rate == 0.0
        assert report.extra["residual_collision_shots"] == 300

    def test_partial_collision_set(self):
        # d=5, S=0: of the forged values f(0)' = 1..4, only 4 hashes as 0
        # does, so only its shots are accepted and detection is 3/4.
        d, shots = 5, 4000
        mod = PrimeModulus(d)
        colliding = [v for v in range(1, d) if hash_to_field(v, mod) == hash_to_field(0, mod)]
        assert colliding == [4]
        report = run_attack(instance(secret=0), AttackSpec(kind="forgery", shots=shots, seed=21))
        assert set(report.outcome_histogram) == {1, 2, 3, 4}
        assert report.extra["residual_collision_shots"] == report.outcome_histogram[4]
        assert report.ancilla_abort_rate == 0.0
        assert within_binomial_4sigma(report.detection_rate, 3 / 4, shots)

    def test_target_position_validated(self):
        with pytest.raises(ValueError):
            run_attack(instance(), AttackSpec(kind="forgery", shots=2, player_id=9))

    @pytest.mark.parametrize("d", [5, 31])
    def test_walks_each_pass_once(self, d, monkeypatch):
        # The forged rings run as one batch: one QFT per pass, however many
        # forged values get shots.
        calls = []
        real = qss.protocol.apply_qft
        monkeypatch.setattr(qss.protocol, "apply_qft", lambda *a: calls.append(a) or real(*a))
        for shots in (1, 40, 5000):
            calls.clear()
            report = run_attack(instance(d=d), AttackSpec(kind="forgery", shots=shots, seed=3))
            assert len(calls) == 2, (d, shots)
        # 5000 shots reach every forged value.
        assert len(report.outcome_histogram) == d - 1


class TestCollusionProbe:
    def test_joint_views_identical_across_hypotheses(self):
        inst = instance(n=4, t=4, secret=2, seed=17, d=5)
        report = run_attack(
            inst,
            AttackSpec(kind="collusion_probe", shots=3000, seed=18, hypotheses=(0, 2)),
        )
        assert report.leakage < 0.06
        assert sum(report.outcome_histogram.values()) == 3000
        # both colluders see the same collapsed value
        assert all(a == b for (a, b) in report.outcome_histogram)

    def test_no_middle_player_rejected(self):
        inst = instance(n=2, t=2, secret=1, seed=19, d=5)
        with pytest.raises(ValueError):
            run_attack(inst, AttackSpec(kind="collusion_probe", shots=2))

    def test_escalated_colluders_trip_ancilla(self):
        inst = instance(n=4, t=4, secret=2, seed=20, d=5)
        shots = 2000
        report = run_attack(
            inst, AttackSpec(kind="collusion_probe", shots=shots, seed=21, escalate=True)
        )
        assert within_binomial_4sigma(report.ancilla_abort_rate, 4 / 5, shots)


class TestReportShape:
    def test_json_fields(self):
        report = run_attack(
            instance(), AttackSpec(kind="intercept_resend", shots=500, seed=22, hypotheses=(0, 1))
        )
        blob = report.to_json()
        for key in (
            "kind", "shots", "outcome_histogram", "detection_rate",
            "ancilla_abort_rate", "hash_abort_rate", "leakage", "chi2_pvalue", "extra",
        ):
            assert key in blob
        assert all(isinstance(k, str) for k in blob["outcome_histogram"])

    def test_tv_distance(self):
        a = Counter({0: 50, 1: 50})
        b = Counter({0: 100})
        assert tv_distance(a, b, 100, 100) == 0.5
        assert tv_distance(a, a, 100, 100) == 0.0

    def test_uniformity_pvalue_detects_bias(self):
        biased = Counter({0: 900, 1: 50, 2: 50})
        assert uniformity_pvalue(biased, 3) < 1e-3
        flat = Counter({0: 333, 1: 333, 2: 334})
        assert uniformity_pvalue(flat, 3) > 0.9


class TestChiSquareSurvival:
    """The closed-form chi-square survival function behind uniformity_pvalue."""

    DOF = list(range(1, 40)) + [100, 126, 250, 506, 1008, 1022]
    # Upper-tail probabilities from 1e-12 to 1 - 1e-6.
    TAILS = [10.0**e for e in range(-12, 0)] + [0.25, 0.5, 0.75] + [1 - 10.0**-e for e in range(1, 7)]

    @pytest.mark.parametrize(
        "x, k, p",
        [
            (3.8414588206941285, 1, 0.05),
            (18.30703805327515, 10, 0.05),
            (135.80672317102676, 100, 0.01),
            (96.12556491301818, 39, 1e-6),
            (70.83842825582607, 7, 1e-12),
            (1021.3334107000704, 1022, 0.5),
        ],
    )
    def test_table_values(self, x, k, p):
        assert _chi2_sf(x, k) == pytest.approx(p, rel=1e-9)

    def test_even_dof_is_poisson_tail(self):
        for x in (0.1, 1.0, 7.5, 40.0):
            assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
            assert _chi2_sf(x, 4) == pytest.approx(math.exp(-x / 2) * (1 + x / 2), rel=1e-14)

    def test_limits(self):
        for k in (1, 2, 3, 1022):
            assert _chi2_sf(0.0, k) == 1.0
            assert _chi2_sf(1e6, k) == 0.0
        assert 0.0 <= _chi2_sf(1e-300, 1) <= 1.0

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for k in self.DOF:
            for p in self.TAILS:
                x = float(stats.chi2.isf(p, k))
                assert _chi2_sf(x, k) == pytest.approx(stats.chi2.sf(x, k), rel=1e-9), (x, k)

    def test_uniformity_pvalue_matches_scipy_chisquare(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        for d in (2, 3, 5, 7, 127):
            for weights in (np.ones(d), rng.random(d)):
                draws = rng.choice(d, size=500, p=weights / weights.sum())
                counts = Counter(int(v) for v in draws)
                observed = [counts.get(v, 0) for v in range(d)]
                want = stats.chisquare(observed).pvalue
                assert uniformity_pvalue(counts, d) == pytest.approx(want, rel=1e-9, abs=1e-300)


class TestCollisionResistanceStructure:
    """The hash value itself is never handed to anyone: each party holds only
    a share of it, and a single share is uniform whatever the hash value is."""

    def test_packet_fields_do_not_carry_hash(self):
        fields = [f.name for f in dataclasses.fields(SharePacket)]
        assert fields == ["player_id", "modulus", "f_share", "g_share"]

    def test_transcript_reveals_hash_only_after_joint_run(self):
        tr = instance().run(seed=23)
        blob = tr.to_json()
        # g0 appears only as the jointly reconstructed value; no per-player
        # hash material is serialized.
        assert set(blob) == {"d", "t", "xs", "verdict", "f0", "g0", "ancilla", "shots", "seed"}

    def test_single_g_share_uniform_for_every_hash_value(self):
        d, t = 5, 2
        mod = PrimeModulus(d)
        for hash_value in range(d):
            seen = Counter()
            for b1 in range(d):
                seen[eval_poly((hash_value, b1), 1, mod)] += 1
            assert set(seen.values()) == {1}  # exactly uniform
