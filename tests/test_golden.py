"""Golden traces: short fixed-seed runs whose output bytes must not change.

A refactor that keeps every random draw in its order and with its arguments
leaves these digests as they are. A change that alters the random stream on
purpose records new digests here, and says why in CHANGES.md. Float
formatting and the generators' algorithms can differ between numpy releases,
so digests are kept per numpy ``major.minor``; a version without an entry is
skipped. ``PYTHONPATH=src python tests/test_golden.py`` prints every case's
digests for the running numpy in the layout of the two tables below, ready to
paste.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pdgsbr import cli

# experiment, sampler, selection prior, sampler overrides, and the chain's
# horizon per series (None keeps the config's). The horizon-3 case pins
# out-of-sample paths longer than one point, which no bundled config reaches;
# its data keep their bundled horizon (simulated with 3 held-out points per
# series, 4A's second series leaves the map's basin at this data seed).
CASES = {
    "4a-strong": ("4a", "pdgsbr", "dirichlet_alpha_strong", {}, None),
    "4c-checkpointed": ("4c", "pdgsbr", "dirichlet_alpha_strong", {"checkpoint_interval": 40}, None),
    "4a-parametric": ("4a", "parametric", "dirichlet_alpha", {}, None),
    "4a-parametric-h3": ("4a", "parametric", "dirichlet_alpha", {}, 3),
}

# SHA-256 of each pinned file in the run directory, per case: the trace
# files, and the last checkpoint of a case that checkpoints along the way.
GOLDEN = {
    "2.4": {
        "4a-strong": {
            "trace.jsonl": "ad4860488cacd539b825c59a5396aebd6ee5357daeeab452248fc5a5a2302aab",
            "trace.csv": "b6f8fcbb37b1c646caa4e6104cf076d762efa8e38cd9df521a45f7c4593e7aa2",
        },
        "4c-checkpointed": {
            "trace.jsonl": "e67a32d281e036bb6f8ebe2870fd1a6330b741b15eb4bac4d237d0bc4633c40d",
            "trace.csv": "3388d6c57f347e0d44d77ca07b139c6b6d8457fa7bf8bbd31ff1d89098466380",
            "checkpoint.json": "8ba1957776cc44ec913c24e28cab463adf23cfa575965a0b3af689f343e12249",
        },
        "4a-parametric": {
            "trace.jsonl": "5cfbbc85eb5633dfe6943d8cd1e5b360252438ff02537d946ded782cbf27ae87",
            "trace.csv": "34db92af87a7f01f13831258e292006a215fcc4f69b72ce702903465a5cc651e",
        },
        "4a-parametric-h3": {
            "trace.jsonl": "e7eaefc9d500ead958d21505ff18d067c2eededf70dc44ddc97503657a32f122",
            "trace.csv": "b7ef89f5caf9c562fd0e384c92d256d26968f44ff27ddb8583fc57ce297747ae",
        },
    },
}

# SHA-256 of every file `report` writes from a case's trace, per case. These
# chains run 140 sweeps, so their 120 retained draws reach the future HPDI.
# 4c-checkpointed reports with its config's kde_bounds, the explicit noise
# grid that `reproduce` uses; the other cases take the default range.
GOLDEN_REPORT = {
    "2.4": {
        "4a-strong": {
            "ergodic_theta_1.csv": "a4854c415ec82b650d00e69e5fa74642685d8b8339d3ec69779b705dd444685e",
            "ergodic_theta_2.csv": "11949b32b792c1439344c3c011ddb0299ec7cf37733d01746f915aefb65c6403",
            "kde_future_1.csv": "646e9e4610e56c8f2dace301570c7698fb545abed7ef6e5c06d973b07c11b8c6",
            "kde_future_2.csv": "4f99c722903c710ecabdb9717b3fb4a45a1459e1560532cfef830a6ca123b46e",
            "kde_noise_1.csv": "ed6ee03f0993a2760f0cd653cca369d74d159574c6b255632bda02abbc2b6598",
            "kde_noise_2.csv": "6eb01649586b90245c9eedf0c7281973748efee36d05c8dbe22a1bed63a98087",
            "kde_x0_1.csv": "af32ec219910fdf7b65b1f053c42747cf8ecdf60fd5ea2734e5f3439badbca3d",
            "kde_x0_2.csv": "69c0183f5110a80a77b1b8b7996d19f84bdcfebd40b516f5cdeac09d5aa7b9bb",
            "pare_table.csv": "964069674ad0d9611b3e2d4af0c901d268e78065d8e098313e27165e09747d83",
            "summary.json": "d9762becdfff8d21ef29d79a6c1e1cc8f7b2c371e1493e7d9a9b70034f4bcee9",
        },
        "4a-parametric-h3": {
            "ergodic_theta_1.csv": "3716ae6a6b59074b67f7e8e870caf46004af9435d38bcc4a1b57db3a4b3d725e",
            "ergodic_theta_2.csv": "5c38211336b7571161fc893217f88eee01859a5d9959a11eb68bdb6eb1f0f24c",
            "kde_future_1.csv": "82c0d5d659d2a907c227de7eb9641e0608bb7cc5fed262fb3ed7f042ad7f893c",
            "kde_future_2.csv": "48f0d353f93dac92d0e9a4fe3557425f8d9d4e2129b1e3e02bbe576979bbe684",
            "kde_noise_1.csv": "bedaa8654a7dd3984c85d075603ddd0aec7965688da502a881c19033b3b248ef",
            "kde_noise_2.csv": "04c05d1648e14c6242ea14c34b426a974b2887d5ec46fddfd707a392304eb1a6",
            "kde_x0_1.csv": "2a443dc0f0abbd69bf9e2bcd298bdb70d85b4c0ed47e93872f14d4cd14da9a58",
            "kde_x0_2.csv": "d3241d3563023d96819887978bdde55ad36f27190429fc7ae521e46eeb0fbd2a",
            "pare_table.csv": "829af7944e77c3be6f2c27617cd066ea39741ab2e9a2396235a4bceaa98d97d8",
            "summary.json": "a5097da31a876da05aaca329bb9e5254c778af69364de138e74f9dee8e278d4e",
        },
        "4c-checkpointed": {
            "ergodic_theta_1.csv": "18902ecd77e5c121ab1d93c3542cc64d31061bb4fb3a29b5592c58e816b85b81",
            "ergodic_theta_2.csv": "67f8a510d1715d9cc5d47aca09b302ed12e0fc135e562b626b245e5f6a84bf6c",
            "ergodic_theta_3.csv": "3916550005b1fd0f80698a1c91607106634512ed849e365901d145dacd0aafae",
            "kde_future_1.csv": "ac0be0189d56dcc7bc952b0a8fbd29af79df07ea943388c68f5b6bccbbd4b2f2",
            "kde_future_2.csv": "1edbc92c3420a2ebd9e4a183824d7b00b6c1d54d4450ef1c960e50a63bd737cc",
            "kde_future_3.csv": "212874172ab9407d7b226026d60caebc811e45fc0fbc340fe26591558396ef60",
            "kde_noise_1.csv": "f28573b65cd1e6ef31209b010664bfa5c302c0ad33347ae06fb720605e6ae5c3",
            "kde_noise_2.csv": "9a610f9fae12fade7a4503385551b5defb0040acfff69291b6f11d817e1a3751",
            "kde_noise_3.csv": "38e6ab8922443257e6857ecba86004598934d0bb5ced4c5537fb2c0f9948d4ca",
            "kde_x0_1.csv": "8182d7219edf7f1f1c680810d5eff33bb833929efe675590949a92607baf73af",
            "kde_x0_2.csv": "9135d5c9d6db64793694051c6238ed9a7bbb6b576a5e70bdcfec676cd53080f4",
            "kde_x0_3.csv": "d5b5c7a9aa5a6b8c59e517510ca09b693bcf2d501af726decceb8e443fa97935",
            "pare_table.csv": "08538e93875fc4dc9572720b5c84a5f3ec0d9637a819be79c331449793d1277d",
            "summary.json": "4799875e5a5d8c99bcaf73c3dd855115b88d58768ee092314d66b22c2567f03f",
        },
    },
}

# Whether each report case passes its config's kde_bounds to `report`.
REPORT_CASES = {"4a-strong": False, "4a-parametric-h3": False, "4c-checkpointed": True}

NUMPY_MINOR = ".".join(np.__version__.split(".")[:2])


def digests_or_skip(table: dict) -> dict:
    digests = table.get(NUMPY_MINOR)
    if digests is None:
        pytest.skip(f"no golden digests for numpy {NUMPY_MINOR}")
    return digests


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_files(case) -> tuple:
    """The run-directory files GOLDEN pins for ``case``."""
    checkpoints = "checkpoint_interval" in CASES[case][3]
    return ("trace.jsonl", "trace.csv") + (("checkpoint.json",) if checkpoints else ())


def run_case(case, tmp_path, iterations=100):
    """Simulate the case's data and run its chain; returns the run directory."""
    experiment, sampler, alpha_key, overrides, horizon = CASES[case]
    doc = cli.bundled_config(experiment)
    if horizon is not None:
        doc["prior"]["horizon"] = [horizon] * len(doc["data"]["maps"])
    doc["sampler"].update(iterations=iterations, burn_in=20, thinning=1, **overrides)
    cli.cmd_simulate(doc, tmp_path / "data")
    cli.cmd_run(doc, tmp_path / "data" / "data.json", tmp_path / "run", sampler=sampler,
                seed_override=2024, alpha_key=alpha_key)
    return tmp_path / "run"


def report_case(case, tmp_path):
    """Run the case's 140-sweep chain and report it; returns the report directory."""
    run = run_case(case, tmp_path, iterations=140)
    bounds = cli.bundled_config(CASES[case][0])["reproduce"]["kde_bounds"]
    out = tmp_path / "report"
    cli.cmd_report(run / "trace.jsonl", tmp_path / "data" / "data.json", out,
                   kde_bounds=bounds if REPORT_CASES[case] else None)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_digest(case, tmp_path):
    digests = digests_or_skip(GOLDEN)
    run = run_case(case, tmp_path)
    assert {name: sha256(run / name) for name in pinned_files(case)} == digests[case]


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_matches_golden_digest(case, tmp_path):
    digests = digests_or_skip(GOLDEN_REPORT)
    out = report_case(case, tmp_path)
    assert {path.name: sha256(path) for path in sorted(out.iterdir())} == digests[case]


def print_table(name, cases, digests_of) -> None:
    """Print ``name`` as a GOLDEN-style table of the running numpy's digests."""
    print(f'{name} = {{\n    "{NUMPY_MINOR}": {{')
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            digests = digests_of(case, Path(tmp))
        print(f'        "{case}": {{')
        for file, digest in digests.items():
            print(f'            "{file}": "{digest}",')
        print("        },")
    print("    },\n}")


if __name__ == "__main__":
    print_table("GOLDEN", CASES, lambda case, tmp: {
        name: sha256(run_case(case, tmp) / name) for name in pinned_files(case)})
    print_table("GOLDEN_REPORT", REPORT_CASES, lambda case, tmp: {
        path.name: sha256(path) for path in sorted(report_case(case, tmp).iterdir())})
