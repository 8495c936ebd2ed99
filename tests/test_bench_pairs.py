"""`scripts/bench_pairs.py` checks that the parent and the working tree give
the same outputs, and says when a bound can be read; check its digest
comparison and its summary on synthetic records."""
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SCRIPT_NAMES = runpy.run_path(str(SCRIPT))
compare_digests = SCRIPT_NAMES["compare_digests"]
summarize = SCRIPT_NAMES["summarize"]
pair_line = SCRIPT_NAMES["pair_line"]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def pairs(count):
    """`count` pairs in which the change reads setup_s 30% worse and
    runs_per_s 10% better."""
    def side(setup_s, runs_per_s):
        return {"metrics": {"setup_s": setup_s, "runs_per_s": runs_per_s}, "failed": 0}

    out = []
    for k in range(count):
        setup_s, runs_per_s = 0.100 + k / 1000, 1000.0 + k
        out.append({
            "first": "parent" if k % 2 == 0 else "change",
            "parent": side(setup_s, runs_per_s),
            "change": side(1.3 * setup_s, 1.1 * runs_per_s),
            "digests": {"compared": 4, "mismatched": []},
        })
    return out


def test_compares_only_indices_both_sides_reached():
    parent = {"w/1/0": "aa", "w/1/1": "bb", "w/1/2": "cc"}
    change = {"w/1/0": "aa", "w/1/1": "bb"}
    assert compare_digests(parent, change) == {"compared": 2, "mismatched": []}


def test_names_every_differing_key():
    parent = {"w/1/0": "aa", "w/1/1": "bb", "w/1/2": "cc", "w/1/3": "dd"}
    change = {"w/1/0": "aa", "w/1/1": "xx", "w/1/2": "yy"}
    assert compare_digests(parent, change) == {
        "compared": 3, "mismatched": ["w/1/1", "w/1/2"],
    }


def test_few_pairs_leave_a_bound_unchecked():
    few = summarize(pairs(3), END_TO_END)["metrics"]
    assert few["setup_s"]["within_bound"] is False
    assert [few[m]["bound_checked"] for m in ("setup_s", "runs_per_s")] == [False, False]
    ten = summarize(pairs(10), END_TO_END)["metrics"]
    assert [ten[m]["bound_checked"] for m in ("setup_s", "runs_per_s")] == [True, True]
    assert ten["setup_s"]["within_bound"] is False
    assert ten["runs_per_s"]["gain_claimable"] is True


def test_pair_line_says_whether_the_bound_is_checked():
    for count, checked in ((3, False), (10, True)):
        history = pairs(count)
        line = pair_line("w/seed1", history[-1], summarize(history, END_TO_END))
        assert line.startswith(f"w/seed1 pair {count}: runs_per_s ")
        assert f"bound_checked {checked}, digests 0/4 mismatched" in line
