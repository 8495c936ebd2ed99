"""Pinned CLI output: the SHA-256 of stdout and the exit code of fixed-seed
invocations of every command and attack kind. A refactor that claims
byte-identical output keeps every entry here unchanged."""
import hashlib

import pytest

from qss.cli import main

GOLDEN = [
    ("run --n 5 --t 3 --secret 4 --seed 1", 0, "5d6e44a883aaf7c7440071ee7fa90b8f7b55a778ad357dd77ee5c2b988cbd7ef"),
    ("run --n 4 --t 2 --secret 1 --d 41 --seed 9", 0, "f5d92bc96418d7334f6b03bf47c49576073691c2c05efae62527c66a36194ddf"),
    ("run --n 3 --t 3 --secret 100 --d 509 --seed 2", 0, "0a84eff5b441706c5b54e9079012501d828c49992fd8862666e550983214083c"),
    ("simulate --preset players-3 --c 2 --shots 256 --seed 5", 0, "418ac0f4bc5ae4c371db60fbfb707f6ff7516f854af54cc8cf7d2b99bffcbc1c"),
    ("simulate --preset players-4 --shots 1000000 --seed 6", 0, "1ecc99dcddd0d096dfe16d412ccebf2613b1a6b930c69cbf4ee0cbca515b4978"),
    ("simulate --n 4 --t 2 --d 7 --secret 3 --shots 64 --seed 8", 0, "1c18da88622f546aa11bda07059f518a80118989e5966cf4c819f82e3a9ad3c0"),
    ("sweep --d-max 13 --t-max 4 --n-max 6 --seed 3", 0, "69630262d54e42e1aa877a810d193a1cae233225eaf0a61116de54fa2f3687e3"),
    ("sweep --d-max 7 --t-max 3 --n-max 4 --seed 2 --format json", 0, "46406856114e1a552a0d7c0c037caba43903a1c22ac0c86b9db0073c4bca1feb"),
    ("attack --attack intercept_resend --n 4 --t 3 --d 5 --shots 400 --seed 3 --hypotheses 1 3", 0, "d487099d0face57956770f943adcfa03f3759380a437757953195363e181e116"),
    ("attack --attack intercept_resend --n 3 --t 3 --d 13 --shots 100000 --seed 8 --hop 1", 0, "1818989a8c3bb4ed638c43e7535be161604baadc9df590f4ed72b9ee1d8ecbe9"),
    ("attack --attack intercept_iqft --n 4 --t 3 --d 7 --shots 1000 --seed 5 --hop 1 --hypotheses 0 6", 0, "0f14ead69ae874b7ac26f65eabcaf716e56d161f009c20756d63795e715bf251"),
    ("attack --attack entangle_measure --n 4 --t 3 --d 5 --shots 300 --seed 2 --hypotheses 2 4", 0, "062b8424dab67f0a0e0098c30c7bc83d8a237c5d74bff811e8be53f7b3d4b270"),
    ("attack --attack forgery --n 4 --t 3 --d 5 --shots 200 --seed 4", 0, "0c2290b256667ee7db18ac91faa30715f7cb2c953dfbb2a6cfb49e7aa926bc9e"),
    ("attack --attack forgery --n 5 --t 4 --d 31 --shots 5000 --seed 7 --player 3", 0, "cc768f858b836cd0f3f67cc56f4ff7a2085df9eb4085a7c1286e21a822e6543b"),
    ("attack --attack collusion_probe --n 5 --t 4 --d 7 --shots 3000 --seed 1 --hypotheses 1 5", 0, "250f0e5c8102ecbd7c6cb2ebd1e02da7f424937e8905c099eead739a164990c9"),
    ("attack --attack collusion_probe --n 5 --t 4 --d 7 --shots 2000 --seed 2 --player 3 --escalate --hypotheses 0 3", 0, "fb5e8552eb180a9fddedff5ec911fdfa3ee19964db28759b878c448e01398e8f"),
    # Series with many measurement branches (d = 31).
    ("attack --attack entangle_measure --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "47ec30f937b16a6745a020a50111bb7178f49b4b63207c2470f28fb86c18ac48"),
    ("attack --attack intercept_iqft --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "b8c849950650a14e0ab07ea5f0fdd47991b36933e1aba4dd8119427ae6e34156"),
    # About d**2 hash-pass leaves: the intercept kind with the most pairs.
    ("attack --attack intercept_resend --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "5d21b3f6c48e2214a1743516ef81b56e3d76c8398dcb1d7e81760e192e21f816"),
    # About 6400 leaves in each pass of each series (d = 127).
    ("attack --attack intercept_resend --n 4 --t 3 --d 127 --shots 8192 --hypotheses 1 2 --seed 1", 0, "b09b3b13e7a4ee1f6d6fb49e85070d5e3cf0cfb1450caa7049b89bc07e8dd5a3"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
