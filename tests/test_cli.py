import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qss
import qss.cli
import qss.protocol
from qss.cli import main, resolve_preset
from qss.dealer import deal
from qss.errors import PresetInfeasible
from qss.protocol import instance_from_deal


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

        monkeypatch.setattr(qss.protocol, "_deal", no_deal)
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

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "tr.json"
        run_cli(capsys, "run", "--n", "4", "--t", "2", "--secret", "1", "--out", str(path))
        blob = json.loads(path.read_text())
        assert set(blob["transcript"]) == {
            "d", "t", "xs", "verdict", "f0", "g0", "ancilla", "shots", "seed",
        }


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

        monkeypatch.setattr(qss.protocol, "_deal", no_deal)
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
        def no_cell(config):
            raise AssertionError("ran a cell despite an oversized modulus")

        monkeypatch.setattr(qss.cli, "instance_from_deal", no_cell)
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
        def no_cell(config):
            raise AssertionError("ran a cell above the cell cap")

        # Primes 2, 3, 5 and 7 give 1 + 3 + 9 + 9 = 22 cells.
        argv = ("sweep", "--d-max", "7", "--t-max", "3", "--n-max", "4")
        monkeypatch.setattr(qss.cli, "MAX_SWEEP_CELLS", 21)
        monkeypatch.setattr(qss.cli, "instance_from_deal", no_cell)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: sweep has 22 cells, above the cap of 21\n"
        monkeypatch.setattr(qss.cli, "MAX_SWEEP_CELLS", 22)
        monkeypatch.setattr(qss.cli, "instance_from_deal", instance_from_deal)
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

        def record(config):
            configs.append(config)
            return instance_from_deal(config)

        monkeypatch.setattr(qss.cli, "instance_from_deal", record)
        code, _, _ = run_cli(
            capsys, "sweep", "--d-max", "13", "--t-max", "2", "--n-max", "6", "--seed", "4"
        )
        assert code == 0
        pairs = [c for c in configs if c.t == 2]
        assert len(pairs) > 10
        same = sum((deal(c)[0].f_share - c.secret) % c.d_override == c.secret for c in pairs)
        assert same < len(pairs) / 2

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d-max", "3", "--t-max", "2", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        blob = json.loads(out)
        assert all(row["correct"] for row in blob["rows"])


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(qss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, qss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
