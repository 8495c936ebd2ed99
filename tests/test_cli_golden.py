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
    ("attack --attack intercept_resend --n 4 --t 3 --d 5 --shots 400 --seed 3 --hypotheses 1 3", 0, "3432cbfd236ec2f6ab648a8207af39dc8862ff5e48d447eb1eb5c5a44ba59193"),
    ("attack --attack intercept_resend --n 3 --t 3 --d 13 --shots 100000 --seed 8 --hop 1", 0, "70ee37887a885b6bf8b717bb7f359d061f00097e600553dbcfd2cd7f2cad12cf"),
    ("attack --attack intercept_iqft --n 4 --t 3 --d 7 --shots 1000 --seed 5 --hop 1 --hypotheses 0 6", 0, "4a43b8b48c0e8be4521f350330c9e54c78e6ce2663e9c617bc44786f21756160"),
    ("attack --attack entangle_measure --n 4 --t 3 --d 5 --shots 300 --seed 2 --hypotheses 2 4", 0, "f52aa4fba0d2be7e770ae610a5fa4652281062564ec1f6678ab018b94d4ebd43"),
    ("attack --attack forgery --n 4 --t 3 --d 5 --shots 200 --seed 4", 0, "0c2290b256667ee7db18ac91faa30715f7cb2c953dfbb2a6cfb49e7aa926bc9e"),
    ("attack --attack forgery --n 5 --t 4 --d 31 --shots 5000 --seed 7 --player 3", 0, "cc768f858b836cd0f3f67cc56f4ff7a2085df9eb4085a7c1286e21a822e6543b"),
    ("attack --attack collusion_probe --n 5 --t 4 --d 7 --shots 3000 --seed 1 --hypotheses 1 5", 0, "667752f67557b31f0317cf6e75b9ee03cebd4cdd99ad04fc1c2044de0c15e489"),
    ("attack --attack collusion_probe --n 5 --t 4 --d 7 --shots 2000 --seed 2 --player 3 --escalate --hypotheses 0 3", 0, "59bd80f8ae5b34307b016f89aa576a93ee5ec4fcd198b60e0ddb1bdf75f974d3"),
    # Series with many measurement branches (d = 31).
    ("attack --attack entangle_measure --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "ce94b921559b3a8eef884b74bdb7ce77fd67701fe2d548203e6fefbe6f188dcd"),
    ("attack --attack intercept_iqft --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "28af1e8bd1d8aeccde1d937abf92866ec85270a26f85b6330e9682b05b9d7fe5"),
    # About d**2 hash-pass leaves: the intercept kind with the most pairs.
    ("attack --attack intercept_resend --n 4 --t 3 --d 31 --shots 8192 --hypotheses 1 2 --seed 1", 0, "fe49d2b375fcf983129ae69e6aeafa935c2bcdc7b87c0403e14481ddb9e064b9"),
    # About 6400 leaves in each pass of each series (d = 127).
    ("attack --attack intercept_resend --n 4 --t 3 --d 127 --shots 8192 --hypotheses 1 2 --seed 1", 0, "40861ebea210021c0db4f437093a3434e553f492533737ee8c250add7b3e30d9"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
