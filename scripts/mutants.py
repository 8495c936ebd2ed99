"""Mutation check: every named mutant of the engine must fail a law test.

    python3 scripts/mutants.py

A mutant is a list of text patches (file, old text, new text), each old text
found exactly once. For each mutant the script copies the repository,
without `.git` and caches, into a temporary directory, applies the patches
there and runs the tier-1 suite on the copy, leaving out the tests that
compare output with pinned digests: `tests/test_cli_golden.py`,
`TestStateGolden` and the two `TestSharedParser` tests that read a golden
digest. A pinned digest moves under any change, so only a test of a law, a
count or an equality between two routes can tell whether the mutant broke
the simulation. The unpatched copy is run first and must pass. The script
prints one line per mutant with the tests that failed, and exits 1 if the
unpatched copy fails or any mutant is not killed: a mutant is killed when
the suite reports a failed test, not when it stops without one. Each run
takes about as long as the tier-1 suite. Standard library only; the tier-1
test extras must be installed.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL, QUDIT, ADVERSARY = "src/qss/protocol.py", "src/qss/qudit.py", "src/qss/adversary.py"
CLI, DEALER = "src/qss/cli.py", "src/qss/dealer.py"
# What the copy leaves out: version control, caches and benchmark results.
LEFT_OUT = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "results", "*.egg-info")
PINNED = [
    "--ignore=tests/test_cli_golden.py",
    "--deselect=tests/test_qudit.py::TestStateGolden",
    "--deselect=tests/test_cli.py::TestSharedParser::test_main_builds_no_parser",
    "--deselect=tests/test_cli.py::TestSharedParser::test_rejected_argv_leaves_no_state",
]

MUTANTS: dict[str, list[tuple[str, str, str]]] = {
    # The hash-pass groups dealt to the f(0)' groups in order, with no draw.
    "in-order group dealing": [(
        PROTOCOL,
        "dealt = rng.multivariate_hypergeometric(left, n) if k < len(f0s) else left",
        "dealt = np.minimum(left, np.maximum(n - (np.cumsum(left) - left), 0)) "
        "if k < len(f0s) else left",
    )],
    # Every run whose ancillas read 0 is accepted, whatever its g(0)'.
    "hash comparison skipped": [(
        PROTOCOL,
        "VERDICT_ACCEPTED if g0 == h else VERDICT_ABORT_HASH",
        "VERDICT_ACCEPTED",
    )],
    # Each law drawn as computed, its last bits included.
    "snap removed": [(
        PROTOCOL,
        "counts = rng.multinomial(shots, units / units.sum())",
        "counts = rng.multinomial(shots, probs / probs.sum())",
    )],
    # exp(-2 pi i s q / d) for the QFT, on the dense path, the FFT and the
    # gathered one-point rows.
    "QFT sign flipped": [
        (QUDIT, "m = _qft_matrix(d).conj() if inverse else _qft_matrix(d)",
         "m = _qft_matrix(d) if inverse else _qft_matrix(d).conj()"),
        (QUDIT, "transform = np.fft.fft if inverse else np.fft.ifft",
         "transform = np.fft.ifft if inverse else np.fft.fft"),
        (QUDIT, "sign = -1 if inverse else 1", "sign = 1 if inverse else -1"),
    ],
    # A fiber of one point transforms under the inverse QFT as under the QFT.
    "one-point rows take the forward sign in the inverse gate": [(
        QUDIT, "sign = -1 if inverse else 1", "sign = 1",
    )],
    # P_{j+2}'s shadow phases T after hop j + 1's hooks, not before them.
    "shadow one hop late": [(
        PROTOCOL,
        "        if hop_index < t - 1:\n"
        "            steps.append((hop_index, apply_shadow_phase, "
        "(TRANSMITTED, shadows[hop_index + 1])))",
        "        if 0 < hop_index < t:\n"
        "            steps.append((hop_index, apply_shadow_phase, "
        "(TRANSMITTED, shadows[hop_index])))",
    )],
    # A channel with an adversary never reads out its register E.
    "the adversary register is never read out": [(
        PROTOCOL,
        "    if channel.adversary:\n        steps.append((None, Measure(ADVERSARY), ()))\n",
        "",
    )],
    # Batch mutants: a batch member no longer acts as that member alone.
    "batch renormalised by member 0's law": [(
        QUDIT,
        "scale = np.sqrt(probs[np.arange(state.batch), onto])[members]",
        "scale = np.sqrt(probs[0, onto])[members]",
    )],
    "member left out of the FFT key": [(
        QUDIT,
        "key = np.ravel_multi_index(others, shape) if others else np.zeros_like(column)",
        "key = (np.ravel_multi_index(others[batch is not None:], shape[batch is not None:])\n"
        "                   if others[batch is not None:] else np.zeros_like(column))",
    )],
    "a batch's phases take member 0's shadow": [(
        QUDIT, "np.array(shadow)[state.digits[0]]", "shadow[0]",
    )],
    "batch members draw from member 0's law": [(
        PROTOCOL,
        "zip(probs if state.batch else [probs], n.items())",
        "zip([probs[0]] * len(n) if state.batch else [probs], n.items())",
    )],
    # P1's aborts filed before the leaves of the shots that passed its check.
    "aborts filed before the passed leaves": [
        (PROTOCOL,
         "            if ended:\n                stack.append(ended)\n            for value, got in",
         "            for value, got in"),
        (PROTOCOL, "            break\n    return leaves",
         "            if ended:\n                stack.append(ended)\n            break\n    return leaves"),
    ],
    # Every forged ring gets the first forged shadow, whatever value its shots drew.
    "forged rings share the first forged shadow": [(
        ADVERSARY,
        "forged = [instance.with_shadow(position, true_value + 1 + k) for k in hit]",
        "forged = [instance.with_shadow(position, true_value + 1 + hit[0]) for k in hit]",
    )],
    # An instance stores a shadow of 1.5 or True as given, reduced mod d.
    "an instance skips the int rule": [(
        PROTOCOL, 'check_int("shadow", v) % self.modulus.d', "v % self.modulus.d",
    )],
    # A member of a batch of longer rings meets a phase of shadow 1 at each extra hop.
    "a shorter ring pads with shadow 1": [(
        PROTOCOL, "zip_longest(*table, fillvalue=0)", "zip_longest(*table, fillvalue=1)",
    )],
    # The array deal evaluates at x = 0..T-1: P1 holds f(0), the secret itself.
    "Vandermonde rows start at x = 0": [(
        DEALER, "x = np.arange(1, width + 1)", "x = np.arange(width)",
    )],
    # Every sweep cell reads the first member's run of its batch.
    "sweep cells read the first member's run": [(
        CLI, "(run,) = part.runs", "(run,) = series[0].runs",
    )],
}


def patched_copy(dest: Path, patches: list[tuple[str, str, str]]) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*LEFT_OUT))
    for name, old, new in patches:
        path = dest / name
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"patch text found {text.count(old)} times in {name}: {old!r}")
        path.write_text(text.replace(old, new))


def run_suite(tree: Path) -> tuple[int, list[str]]:
    """Exit code of the tier-1 suite on `tree`, without the pinned tests, and
    the ids of the tests that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *PINNED],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)
    return done.returncode, failed


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="qss-mutants-") as scratch:
        for i, name in enumerate([None, *MUTANTS]):
            tree = Path(scratch, str(i))
            patched_copy(tree, MUTANTS[name] if name else [])
            code, failed = run_suite(tree)
            if name is None:
                ok = code == 0
                print(f"unpatched: {'passes' if ok else 'FAILS ' + '; '.join(failed)}", flush=True)
            else:  # a session that stops before it reports a failure kills nothing
                ok = code != 0 and bool(failed)
                shown = "; ".join(failed[:5]) + (f" (+{len(failed) - 5})" if len(failed) > 5 else "")
                print(f"{name}: {f'killed by {len(failed)}: {shown}' if ok else 'SURVIVED'}",
                      flush=True)
            bad += not ok
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
