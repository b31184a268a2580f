"""Golden outputs: fixed-config CLI runs must reproduce these CSVs byte for
byte.  A refactor that changes a digest changes the program's output; if the
change is deliberate (say, a new RNG keying), update the digest and say why.

Cascade coverage is a mixture, whose node draws use only Philox ``random()``;
Dirichlet draws depend on numpy's sampler, so they are left out.  The two
oracle tables (the default battery, and d = 2, k = 3 at grid 500) pin every
grid maximum and golden-section polish of the brute force to the last digit.
"""

import hashlib
import json

import pytest

from porodim.cli import main

MIXTURE = {"d": 1, "seed": 101, "generator": {"type": "mixture", "mixture": [
    {"weights": [0.5, 0.5], "prob": 0.5}, {"weights": [0.1, 0.9], "prob": 0.5}]}}

RUNS = {
    "simulate_bernoulli": (
        ["simulate", "--gen", "bernoulli", "--weights", "0.25,0.75", "--k", "1",
         "--eps", "0.1", "--depth", "200", "--paths", "3", "--seed", "5",
         "--trajectories", "{dir}/simulate_bernoulli_trajectories.csv"],
        "7e39d8c41dfa76e61c7eae454ed7d0b463c98f4bf4f2b7fa9df412d6a9f1602f",
    ),
    "simulate_bernoulli_trajectories": (
        None,
        "5fcbe541ea402aa5b8dd0ae30331f8a09dcfd9ca7d0f9e8617bdb06d5ec9a477",
    ),
    "simulate_mixture": (
        ["simulate", "--config", "{dir}/mixture.json", "--k", "2", "--eps", "0.01",
         "--depth", "150", "--paths", "2"],
        "1cd33183bae7e785a1044962ed721d67dc6982b1a98594b1d2c36ba717aebca5",
    ),
    "translate_cantor": (
        ["translate", "--gen", "cantor_middle_half", "--eta", "1", "--seed", "2024",
         "--trials", "20"],
        "c71d17aa9f5dcc21c42bea6a6513c0a91e30a9cae86910fa2ca9f20776cd49d1",
    ),
    "solve": (
        ["solve", "--d", "2", "--k", "1", "--points", "11"],
        "65e74841b879169599def23178f09d09f40b3a0c262c95ef79957d1bcecdca1c",
    ),
    "hmin": (
        ["hmin", "--d", "2", "--points", "9"],
        "36bcca213b001ec4439e7e3b3bb4efc9dd7b18a65003af96e87cad4725ef5533",
    ),
    "oracle": (
        ["oracle"],
        "ae1d6763a9db6591af00ccc6a35576a82b111fe0057200dcccb688d828ce4b56",
    ),
    "oracle_d2k3": (
        ["oracle", "--d", "2", "--k", "3", "--eps", "0.0009765625"],
        "abaebf3e208a14f7ff685a0906142a4d26ad90f237496cf9e916f5491cc483b9",
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map each output name to its file."""
    out = tmp_path_factory.mktemp("golden")
    (out / "mixture.json").write_text(json.dumps(MIXTURE))
    for name, (argv, _) in RUNS.items():
        if argv is not None:
            argv = [a.format(dir=out) for a in argv] + ["--out", str(out / f"{name}.csv")]
            assert main(argv) == 0
    return out


@pytest.mark.parametrize("name", RUNS)
def test_csv_digest(outputs, name):
    digest = hashlib.sha256((outputs / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == RUNS[name][1]
