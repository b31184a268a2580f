"""Golden outputs: fixed-config CLI runs must reproduce these CSVs byte for
byte.  A refactor that changes a digest changes the program's output; if the
change is deliberate (say, a new RNG keying), update the digest and say why.

Cascade coverage is two mixtures, at d = 1 and d = 2, whose node draws use
only Philox ``random()``, and two d = 2 Dirichlet runs, whose draws follow
numpy's gamma sampler: equal concentrations draw a node's four gammas in one
``standard_gamma`` call, unequal ones through ``Generator.dirichlet``.  All
four pin the node keying, a BLAKE2b digest of each node's address: its
level as 8 bytes and each coordinate as max(1, ceil(level / 8)) bytes.  The
d = 2 Bernoulli translate run (k = 4) pins the pushforward and its porosity
tests in two dimensions, and the d = 1 mixture translate runs pin a
pushforward of a cascade source, whose nodes each draw their own weights.
At eps 0 (``translate_mixture``) the CSV did not move when the node key's
tag was changed; at eps 0.002 (``translate_mixture_eps``, fractions 0.7 to
1) it did.  The three oracle tables (the default battery, d = 2, k = 3 at
grid 500, and d = 1, k = 3 at grid 1000, where the brute force skips the
most grid tiles) pin every grid maximum and golden-section polish of the
brute force to the last digit.
"""

import hashlib
import json

import pytest

from porodim.cli import main

MIXTURE = {"d": 1, "seed": 101, "generator": {"type": "mixture", "mixture": [
    {"weights": [0.5, 0.5], "prob": 0.5}, {"weights": [0.1, 0.9], "prob": 0.5}]}}

#: A d = 2 mixture whose eta_hat (about 0.32) leaves both porous and
#: non-porous steps on its paths, so the k = 2 frontiers are pinned at d = 2.
MIXTURE_D2 = {"d": 2, "seed": 11, "generator": {"type": "mixture", "mixture": [
    {"weights": [0.1, 0.4, 0.4, 0.1], "prob": 0.5},
    {"weights": [0.25, 0.25, 0.25, 0.25], "prob": 0.5}]}}

DIRICHLET_EQUAL = {"d": 2, "seed": 106, "generator": {
    "type": "dirichlet", "concentration": [0.5, 0.5, 0.5, 0.5]}}

DIRICHLET_UNEQUAL = {"d": 2, "seed": 107, "generator": {
    "type": "dirichlet", "concentration": [0.3, 1.7, 2.5, 0.9]}}

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
        "7ed063e12c403dc3f9e02539021b655cc8e8bf229b7e4fc750b0c55901416159",
    ),
    "simulate_mixture_d2": (
        ["simulate", "--config", "{dir}/mixture_d2.json", "--k", "2", "--eps", "0.02",
         "--depth", "120", "--paths", "2"],
        "bd292da87b28e771e798375cb7eb33e79210e83f3424e1cced217a0a7cef3f43",
    ),
    "simulate_dirichlet_equal": (
        ["simulate", "--config", "{dir}/dirichlet_equal.json", "--k", "2", "--eps", "0.01",
         "--depth", "200", "--paths", "2"],
        "0b8cc90042ba76f264dbdbc7ec1484331801173d320e91b8430c6e16b873f714",
    ),
    "simulate_dirichlet_unequal": (
        ["simulate", "--config", "{dir}/dirichlet_unequal.json", "--k", "2", "--eps", "0.01",
         "--depth", "200", "--paths", "2"],
        "5eb3c7dbbf92c26beb6b8c52514d20e3ce0a78b006c11b5a7a4aa62682d1d821",
    ),
    "translate_cantor": (
        ["translate", "--gen", "cantor_middle_half", "--eta", "1", "--seed", "2024",
         "--trials", "20"],
        "c71d17aa9f5dcc21c42bea6a6513c0a91e30a9cae86910fa2ca9f20776cd49d1",
    ),
    "translate_mixture": (
        ["translate", "--config", "{dir}/mixture.json", "--depth", "10", "--trials", "5"],
        "e26bf69bc9a11c1c6ebfd0aa721ee5bcdfaaeaff3a92e3b9a57ad7bc4430fec8",
    ),
    "translate_mixture_eps": (
        ["translate", "--config", "{dir}/mixture.json", "--depth", "10", "--trials", "5",
         "--eps", "0.002"],
        "51e6db82b60b4edf6e8d294fa04e6246bc82790b9abb6ddbe61cff7e467ae2a1",
    ),
    "translate_bernoulli_d2": (
        ["translate", "--gen", "bernoulli", "--d", "2", "--weights", "0.1,0.4,0.4,0.1",
         "--alpha", "0.5", "--eps", "0.002", "--depth", "8", "--trials", "3",
         "--seed", "7"],
        "95740c9275c2dca4e0ea878d15f244b763d1b935fda5e56eb0e2dc98efcfe8ed",
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
    "oracle_d1k3_grid1000": (
        ["oracle", "--d", "1", "--k", "3", "--grid", "1000", "--eps", "0.05"],
        "fc94e3183fd576a7bf02b663669e95870c979ef4b09e7a0e4ea0a40cf33c021d",
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map each output name to its file."""
    out = tmp_path_factory.mktemp("golden")
    (out / "mixture.json").write_text(json.dumps(MIXTURE))
    (out / "mixture_d2.json").write_text(json.dumps(MIXTURE_D2))
    (out / "dirichlet_equal.json").write_text(json.dumps(DIRICHLET_EQUAL))
    (out / "dirichlet_unequal.json").write_text(json.dumps(DIRICHLET_UNEQUAL))
    for name, (argv, _) in RUNS.items():
        if argv is not None:
            argv = [a.format(dir=out) for a in argv] + ["--out", str(out / f"{name}.csv")]
            assert main(argv) == 0
    return out


@pytest.mark.parametrize("name", RUNS)
def test_csv_digest(outputs, name):
    digest = hashlib.sha256((outputs / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == RUNS[name][1]
