import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qss
import qss.cli
import qss.protocol
import qss.qudit
from qss.cli import main, resolve_preset
from qss.dealer import deal
from qss.errors import PresetInfeasible, QssError
from qss.protocol import instance_from_deal, instances_from_deals
from test_cli_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_accepted_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--n", "5", "--t", "3", "--secret", "4", "--seed", "1"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["transcript"]["verdict"] == "accepted"
        assert blob["transcript"]["f0"] == 4
        assert blob["version"] and blob["config"]["n"] == 5 and blob["seed"] == 1
        assert "format" not in blob["config"]

    def test_single_player_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "3", "--t", "1", "--secret", "0")
        assert code == 0
        assert json.loads(out)["transcript"]["f0"] == 0

    def test_invalid_threshold_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "5", "--t", "6", "--secret", "0")
        assert code == 2
        assert "error" in err

    def test_secret_out_of_range_exits_2(self, capsys):
        # simulate rejects the secret too, rather than running it mod d.
        for argv in (
            ("run", "--n", "3", "--t", "2", "--secret", "99"),
            ("simulate", "--n", "4", "--t", "2", "--d", "7", "--secret", "9", "--shots", "8"),
            ("simulate", "--n", "4", "--t", "2", "--d", "7", "--secret", "-1", "--shots", "8"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert "secret" in err

    def test_modulus_above_cap_exits_2_before_dealing(self, capsys, monkeypatch):
        def no_deal(*args):
            raise AssertionError("dealt despite an oversized modulus")

        monkeypatch.setattr(qss.protocol, "share_table", no_deal)
        for argv in (("--n", "400000", "--t", "2"), ("--n", "3", "--t", "2", "--d", "1031")):
            code, out, err = run_cli(capsys, "run", *argv, "--secret", "1")
            assert code == 2 and out == ""
            assert "1024" in err

    def test_rerun_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        contents = []
        for _ in range(2):
            code, _, _ = run_cli(
                capsys, "run", "--n", "4", "--t", "2", "--secret", "1",
                "--seed", "9", "--out", str(path),
            )
            assert code == 0
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "x.out")
        for argv in (
            ("run", "--n", "4", "--t", "2", "--secret", "1", "--out", path),
            ("sweep", "--d-max", "5", "--t-max", "2", "--n-max", "2", "--out", path),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "missing" in err

    def test_out_checked_before_any_work(self, capsys, tmp_path, monkeypatch):
        # A parent that is missing or is a file fails before the series runs,
        # and nothing is created.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(qss.cli, "split_shot_series", no_work)
        (tmp_path / "file").write_text("")
        for parent in ("missing", "file"):
            path = str(tmp_path / parent / "x.json")
            code, out, err = run_cli(
                capsys, "simulate", "--n", "4", "--t", "2", "--d", "7", "--shots", "4",
                "--out", path,
            )
            assert code == 2 and out == ""
            assert err.startswith("error: ") and parent in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_out_directory_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(qss.cli, "instances_from_deals", calls.append)
        code, out, err = run_cli(
            capsys, "sweep", "--d-max", "5", "--t-max", "2", "--n-max", "2",
            "--out", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: --out {str(tmp_path)!r} is a directory\n"
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "tr.json"
        run_cli(capsys, "run", "--n", "4", "--t", "2", "--secret", "1", "--out", str(path))
        blob = json.loads(path.read_text())
        assert set(blob["transcript"]) == {
            "d", "t", "xs", "verdict", "f0", "g0", "ancilla", "shots", "seed",
        }


class TestSharedParser:
    """main parses with the one parser built when qss.cli is imported."""

    RUN_ARGV, _, RUN_DIGEST = GOLDEN[0]

    def golden_run(self, capsys):
        code, out, err = run_cli(capsys, *self.RUN_ARGV.split())
        return code, err, hashlib.sha256(out.encode()).hexdigest()

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(qss.cli, "build_parser", no_parser)
        assert self.golden_run(capsys) == (0, "", self.RUN_DIGEST)

    def test_rejected_argv_leaves_no_state(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--attack", "replay", "--n", "4", "--t", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert self.golden_run(capsys) == (0, "", self.RUN_DIGEST)

    def test_help_matches_a_fresh_parser(self, capsys):
        for argv, usage in (
            (["--help"], "usage: qss "), (["attack", "--help"], "usage: qss attack "),
        ):
            texts = []
            for parse in (main, qss.cli.build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1]
            assert texts[0].startswith(usage)


class TestPresetResolution:
    def test_direct_choices(self):
        assert resolve_preset(3, 3) == (7, 3, False)
        assert resolve_preset(4, 3) == (7, 3, False)

    def test_fallback_records_new_width(self):
        # No prime above 3 players fits in 2 qubits; fall back to d=5, c=3.
        assert resolve_preset(3, 2) == (5, 3, True)
        assert resolve_preset(3, 1) == (5, 3, True)
        assert resolve_preset(4, 2) == (5, 3, True)

    def test_fifteen_players_infeasible(self):
        for c in (1, 2, 3):
            with pytest.raises(PresetInfeasible):
                resolve_preset(15, c)


class TestSimulate:
    def test_preset_with_fallback(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "players-3", "--c", "2",
            "--shots", "256", "--seed", "5",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["resolved"] == {
            "n": 3, "t": 3, "d": 5, "c": 3, "fallback": True, "secret": 1,
        }
        assert blob["all_correct"] and blob["ancilla_all_zero"]
        assert sum(blob["histogram"].values()) == 256
        assert blob["histogram"] == {str(blob["expected"]): 256}

    def test_preset_players4_direct(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "players-4", "--c", "3",
            "--shots", "128", "--seed", "6",
        )
        blob = json.loads(out)
        assert code == 0
        assert blob["resolved"]["d"] == 7 and not blob["resolved"]["fallback"]
        assert blob["histogram"] == {str(blob["expected"]): 128}

    def test_players15_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "players-15", "--c", "1")
        assert code == 2
        assert "qubits" in err

    def test_explicit_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "4", "--t", "2", "--d", "7",
            "--secret", "3", "--shots", "64", "--seed", "8",
        )
        blob = json.loads(out)
        assert code == 0
        assert blob["histogram"] == {"3": 64}

    def test_explicit_needs_all_three(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "4", "--shots", "8")
        assert code == 2

    def test_preset_rejects_explicit_parameters(self, capsys, monkeypatch):
        # A preset fixes n, t and d; an explicit one would be silently ignored.
        def no_deal(*args):
            raise AssertionError("dealt despite a rejected flag")

        monkeypatch.setattr(qss.protocol, "share_table", no_deal)
        base = ("simulate", "--preset", "players-3", "--shots", "4")
        for extra in (
            ("--n", "9"), ("--t", "2"), ("--d", "11"), ("--n", "9", "--t", "2", "--d", "11"),
        ):
            code, out, err = run_cli(capsys, *base, *extra)
            assert code == 2 and out == ""
            assert "--preset" in err

    def test_shots_below_one_exits_2(self, capsys):
        for shots in ("0", "-3"):
            code, out, err = run_cli(
                capsys, "simulate", "--preset", "players-3", "--shots", shots
            )
            assert code == 2 and out == ""
            assert "shots" in err


class TestShotBounds:
    """Shot counts the draws cannot take exit 2 with an error line naming the
    bound, before the work that would fail."""

    ATTACK = ("attack", "--n", "4", "--t", "3", "--d", "5", "--seed", "1", "--attack")

    def test_shots_above_int64_exit_2(self, capsys, monkeypatch):
        def no_series(*args, **kwargs):
            raise AssertionError("a series ran")

        monkeypatch.setattr(qss.protocol, "run_pass", no_series)
        too_many = str(2**63)
        for argv in (
            ("simulate", "--n", "4", "--t", "2", "--d", "7", "--shots", too_many),
            (*self.ATTACK, "forgery", "--shots", too_many),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and str(2**63 - 1) in err, argv

    def test_pairing_above_its_bound_exits_2_before_the_hash_pass(self, capsys, monkeypatch):
        passes = []
        real = qss.protocol.run_pass

        def recording(instance, channel, pass_name, *args):
            passes.append(pass_name)
            return real(instance, channel, pass_name, *args)

        monkeypatch.setattr(qss.protocol, "run_pass", recording)
        code, out, err = run_cli(capsys, *self.ATTACK, "entangle_measure", "--shots", "6000000000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(qss.protocol.MAX_PAIRED_SHOTS) in err
        assert passes == ["secret"]

    def test_largest_shot_counts_in_range_run(self, capsys):
        # Forgery rings pass one value of f(0)' each, so they make no
        # pairing draw; an iqft intercept passes about 1/d of its shots.
        for kind, shots in (("forgery", 4_000_000_000), ("intercept_iqft", 999_999_999)):
            code, out, _ = run_cli(capsys, *self.ATTACK, kind, "--shots", str(shots))
            assert code == 0 and json.loads(out)["report"]["shots"] == shots, kind


class TestFourierArithmeticIsFree:
    """The engine snaps each law to a 1e-12 grid before it draws, so the
    attack goldens give the same bytes whether the Fourier gates run as a
    dense product at every d, as an FFT at every d, or switch at d = 41."""

    ATTACKS = [argv for argv, _, _ in GOLDEN if argv.startswith("attack")]

    @pytest.mark.parametrize("argv", ATTACKS)
    def test_same_output_at_every_threshold(self, capsys, monkeypatch, argv):
        outputs = []
        for threshold in (41, 2, 1025):
            monkeypatch.setattr(qss.qudit, "_FFT_MIN_D", threshold)
            code, out, _ = run_cli(capsys, *argv.split())
            outputs.append((code, hashlib.sha256(out.encode()).hexdigest()))
        assert outputs[1:] == outputs[:1] * 2


class TestAttack:
    def test_intercept_resend_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--attack", "intercept_resend", "--n", "4", "--t", "3",
            "--d", "5", "--shots", "400", "--seed", "3", "--hypotheses", "1", "3",
        )
        assert code == 0
        blob = json.loads(out)
        report = blob["report"]
        assert report["kind"] == "intercept_resend"
        assert sum(report["outcome_histogram"].values()) == 400
        assert report["chi2_pvalue"] > 1e-3
        assert report["leakage"] < 0.1

    def test_forgery_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--attack", "forgery", "--n", "4", "--t", "3",
            "--d", "5", "--shots", "200", "--seed", "4",
        )
        blob = json.loads(out)
        assert code == 0
        assert blob["report"]["detection_rate"] == 1.0

    def test_unknown_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--attack", "replay", "--n", "4", "--t", "3"])
        assert exc.value.code == 2

    def test_bad_hop_exits_2(self, capsys):
        base = ["attack", "--n", "4", "--t", "3", "--d", "5", "--shots", "4"]
        # A hypothesis outside [0, d) is rejected the same way, not reduced mod
        # d; forgery, which has no leakage statistic, takes no hypotheses; only
        # colluders escalate, and an intercept targets a hop, not a player,
        # while forgery and collusion target a player, not a hop.
        for kind, extra in (
            ("intercept_resend", ["--hop", "7"]),
            ("intercept_resend", ["--hypotheses", "9", "1"]),
            ("forgery", ["--hypotheses", "0", "1"]),
            ("forgery", ["--escalate"]),
            ("intercept_iqft", ["--escalate"]),
            ("intercept_resend", ["--player", "2"]),
            ("entangle_measure", ["--player", "2"]),
            ("forgery", ["--hop", "2"]),
            ("collusion_probe", ["--t", "4", "--hop", "1"]),
        ):
            code, out, _ = run_cli(capsys, *base, "--attack", kind, *extra)
            assert code == 2 and out == ""
        code, out, _ = run_cli(
            capsys, *base, "--attack", "intercept_resend", "--hypotheses", "0", "4"
        )
        assert code == 0 and json.loads(out)["report"]["extra"]["hypotheses"] == [0, 4]

    def test_csv_format_rejected_for_reports(self, capsys):
        # Reports are JSON only; --format exists only on sweep.
        for argv in (
            ["attack", "--attack", "forgery", "--n", "4", "--t", "3", "--shots", "4",
             "--format", "csv"],
            ["run", "--n", "4", "--t", "2", "--secret", "1", "--format", "json"],
            ["simulate", "--preset", "players-3", "--shots", "4", "--format", "json"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--format" in capsys.readouterr().err

    def test_entangle_measure_at_d1009(self, capsys, monkeypatch):
        # choose_modulus(1000) = 1009. The three registers hold their
        # support, about d**2 entries at most here, never a 1009**3 state.
        moduli = []

        def record(config):
            instance = instance_from_deal(config)
            moduli.append(instance.modulus.d)
            return instance

        monkeypatch.setattr(qss.cli, "instance_from_deal", record)
        code, out, _ = run_cli(
            capsys, "attack", "--attack", "entangle_measure", "--n", "1000", "--t", "2",
            "--shots", "64", "--seed", "1",
        )
        assert code == 0 and moduli == [1009]
        report = json.loads(out)["report"]
        assert report["kind"] == "entangle_measure"
        assert sum(report["outcome_histogram"].values()) == 64


class TestSweep:
    def test_small_sweep_all_correct(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d-max", "7", "--t-max", "3", "--n-max", "4", "--seed", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,t,n,seed,verdict,f0,expected,correct"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "accepted"
            assert fields[7] == "True"
            assert int(fields[0]) > int(fields[2])  # d > n in every cell

    def test_empty_sweep_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d-max", "1", "--t-max", "3", "--n-max", "4"
        )
        assert code == 0
        assert out == "d,t,n,seed,verdict,f0,expected,correct\r\n"

    def test_modulus_above_cap_exits_2_before_any_cell(self, capsys, monkeypatch):
        def no_cell(configs):
            raise AssertionError("ran a cell despite an oversized modulus")

        monkeypatch.setattr(qss.cli, "instances_from_deals", no_cell)
        code, out, err = run_cli(
            capsys, "sweep", "--d-max", "1100", "--t-max", "1", "--n-max", "1"
        )
        assert code == 2 and out == ""
        assert "1024" in err

    def test_oversized_bound_checked_before_listing_primes(self, capsys, monkeypatch):
        # The largest prime is found by searching down from --d-max, so the
        # check costs about one prime gap of tests, not one per integer.
        calls = []
        is_prime = qss.cli.is_prime

        def counting(p):
            calls.append(p)
            return is_prime(p)

        monkeypatch.setattr(qss.cli, "is_prime", counting)
        code, out, err = run_cli(
            capsys, "sweep", "--d-max", "1000000", "--t-max", "1", "--n-max", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: register dimension capped at 1024\n"
        assert len(calls) <= 200

    def test_cell_cap_checked_before_any_cell(self, capsys, monkeypatch):
        def no_cell(configs):
            raise AssertionError("ran a cell above the cell cap")

        # Primes 2, 3, 5 and 7 give 1 + 3 + 9 + 9 = 22 cells.
        argv = ("sweep", "--d-max", "7", "--t-max", "3", "--n-max", "4")
        monkeypatch.setattr(qss.cli, "MAX_SWEEP_CELLS", 21)
        monkeypatch.setattr(qss.cli, "instances_from_deals", no_cell)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: sweep has 22 cells, above the cap of 21\n"
        monkeypatch.setattr(qss.cli, "MAX_SWEEP_CELLS", 22)
        monkeypatch.setattr(qss.cli, "instances_from_deals", instances_from_deals)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.count("\n") == 1 + 22

    def test_largest_sweep_refused_before_listing_cells(self, capsys):
        # About 26.7M cells, which would need about 12 GB before the first
        # ran; the count is taken from the primes alone.
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "sweep", "--d-max", "1021", "--t-max", "1020", "--n-max", "1020"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "26695121 cells" in err
        assert peak < 16 * 2**20

    def test_cell_loops_stop_below_d(self, capsys):
        # t and n never reach d, so bounds past d - 1 list the same cells.
        outs = [
            run_cli(
                capsys, "sweep", "--d-max", "11", "--t-max", bound, "--n-max", bound,
                "--seed", "3",
            )
            for bound in ("3000", "10")
        ]
        assert outs[0] == outs[1]
        assert outs[0][1].count("\n") > 1

    def test_sweep_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        contents = []
        for _ in range(2):
            run_cli(
                capsys, "sweep", "--d-max", "5", "--t-max", "2", "--n-max", "3",
                "--seed", "11", "--out", str(path),
            )
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]

    def test_dealer_seed_independent_of_secret(self, capsys, monkeypatch):
        # At t=2 the first coefficient a1 = f(1) - s; were it the secret, the
        # single share f(1) = 2s would reveal it.
        configs = []

        def record(batch):
            configs.extend(batch)
            return instances_from_deals(batch)

        monkeypatch.setattr(qss.cli, "instances_from_deals", record)
        code, _, _ = run_cli(
            capsys, "sweep", "--d-max", "13", "--t-max", "2", "--n-max", "6", "--seed", "4"
        )
        assert code == 0
        pairs = [c for c in configs if c.t == 2]
        assert len(pairs) > 10
        same = sum((deal(c)[0].f_share - c.secret) % c.d_override == c.secret for c in pairs)
        assert same < len(pairs) / 2

    def test_one_batch_per_d_up_to_the_point_cap(self, capsys, monkeypatch):
        # The cells of one d, whatever their t, run as one batch of at most
        # MAX_BATCH_POINTS // d cells; smaller batches give the same rows.
        sizes = []
        real = qss.cli.split_batch

        def spy(instances, *args):
            sizes.append(len(instances))
            return real(instances, *args)

        monkeypatch.setattr(qss.cli, "split_batch", spy)
        argv = ("sweep", "--d-max", "13", "--t-max", "4", "--n-max", "12", "--seed", "3")
        whole = run_cli(capsys, *argv)
        assert sizes == [1, 3, 10, 18, 34, 42]
        sizes.clear()
        monkeypatch.setattr(qss.cli, "MAX_BATCH_POINTS", 100)
        assert run_cli(capsys, *argv) == whole
        assert sizes == [1, 3, 10, 14, 4, 9, 9, 9, 7, *[7] * 6]
        assert whole[0] == 0 and whole[1].count("\n") == 1 + 108

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d-max", "3", "--t-max", "2", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        blob = json.loads(out)
        assert all(row["correct"] for row in blob["rows"])


# The benchmark's sweep_grid invocation: 2055 cells, enough for a pool.
POOLED_SWEEP = ("sweep", "--d-max", "97", "--t-max", "8", "--n-max", "16")


@pytest.fixture
def pools(monkeypatch):
    """ProcessPoolExecutor calls from here on; each still starts a pool."""
    calls = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return calls


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestSweepWorkers:
    def test_pooled_sweep_matches_serial(self, capsys, monkeypatch, pools):
        cpus(monkeypatch, 2)
        pooled = run_cli(capsys, *POOLED_SWEEP, "--seed", "1")
        assert pools == [(2,)]
        assert multiprocessing.active_children() == []
        cpus(monkeypatch, 1)
        serial = run_cli(capsys, *POOLED_SWEEP, "--seed", "1")
        assert pools == [(2,)]
        assert pooled == serial
        assert pooled[0] == 0 and pooled[1].count("\n") == 1 + 2055

    def test_worker_error_exits_2_and_leaves_no_child(self, capsys, monkeypatch, pools):
        def no_cell(configs):
            raise QssError("no cell")

        # Forked workers inherit the patch.
        monkeypatch.setattr(qss.cli, "instances_from_deals", no_cell)
        results = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            results.append(run_cli(capsys, *POOLED_SWEEP))
        assert pools == [(2,)]
        assert results[0] == results[1] == (2, "", "error: no cell\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("argv", [
        "sweep --d-max 13 --t-max 4 --n-max 6 --seed 3",
        "sweep --d-max 7 --t-max 3 --n-max 4 --seed 2 --format json",
        "sweep --d-max 5 --t-max 2 --n-max 3 --seed 11",
    ])
    def test_golden_and_small_sweeps_start_no_pool(self, capsys, monkeypatch, pools, argv):
        cpus(monkeypatch, 64)
        assert run_cli(capsys, *argv.split())[0] == 0
        assert pools == []

    @pytest.mark.parametrize("seed", [1, 7])
    def test_chunks_cut_inside_stretches_give_the_serial_rows(self, seed):
        # The cells of one d run as one batch, whatever their t; a chunk
        # boundary that cuts such a d-batch splits it into two batches, each
        # of whose cells still draws from its own generator. Cuts 7, 257,
        # 1000 and 1003 fall inside a d-batch (1000 between two values of t),
        # 1 and 955 between two.
        cells = qss.cli._sweep_cells(97, 8, 16)
        cuts = [0, 1, 7, 257, 955, 1000, 1003, len(cells)]
        inside = [c for c in cuts[1:-1] if cells[c - 1][0] == cells[c][0]]
        assert inside == [7, 257, 1000, 1003]
        assert cells[999][1] < cells[1000][1]
        chunks = [qss.cli._sweep_rows(seed, a, cells[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert [row for chunk in chunks for row in chunk] == qss.cli._sweep_rows(seed, 0, cells)

    def test_negative_seed_fails_before_any_worker(self, capsys, monkeypatch, pools):
        def no_cell(configs):
            raise AssertionError("ran a cell despite a negative seed")

        monkeypatch.setattr(qss.cli, "instances_from_deals", no_cell)
        cpus(monkeypatch, 2)
        code, out, err = run_cli(capsys, *POOLED_SWEEP, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: expected non-negative integer\n")
        assert pools == []


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(qss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # Nor the pool modules, which a sweep imports only when it starts workers.
    probe = (
        "import sys, qss.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
