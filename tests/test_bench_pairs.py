"""`scripts/bench_pairs.py` checks that the parent and the working tree give
the same outputs; check its digest comparison on synthetic records."""
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
compare_digests = runpy.run_path(str(SCRIPT))["compare_digests"]


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
