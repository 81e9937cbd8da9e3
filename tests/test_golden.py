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
            "trace.jsonl": "47167ff25cc8db37a28b6e3f742f0b66f7e6a3729bd9993a65ffdfe2321308b2",
            "trace.csv": "de45a94b342192f47abdc76c3cd971ca2098cca27c5517cc5ae367c1231ef476",
        },
        "4c-checkpointed": {
            "trace.jsonl": "7aed6138bc1ca85e1631265bb03bb0f894f9a9be0ec7e3786c191a696d4ead42",
            "trace.csv": "7f0a9691d8006d9f20c946af6e628eed127d32e32da1be68ecdf1dbfac5788d9",
            "checkpoint.json": "e81d32bb0e66ce9f2be1e7972cf6864baedd79f76fc1db476c5ade53e5e5fa63",
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
            "boi.json": "1379637f4588ad8125c54a6e53e5ffb88476a24f74461d0c160c2dc25d657598",
            "ergodic_theta_1.csv": "6fb359237bd8632952a6a86123d2a6582fbf3da6b4bd621a70d648f216b8cea9",
            "ergodic_theta_2.csv": "9b07931226064fd71d511aefa57099c7322b35ed599cb38d3daca34b97f88e0f",
            "hpdi.json": "53d78cea3fdee8f1f5f1056116a0c8b9e0be0cf915ec6f3c52bb90eeaa6d866c",
            "kde_future_1.csv": "8bea82f698967cfcde63532020132b24ebc38af5d82dfb8e72f95a9e22985125",
            "kde_future_2.csv": "cfb21b56588defde2c18781d4e2b08fa09e779fa85f49335126d6cef39194cad",
            "kde_noise_1.csv": "bf3ad1567710e47a908caedf775116f05c35b505629af784e92cf117c0857fc0",
            "kde_noise_2.csv": "fd5dc594c55f7cc7b0da8508ed6e8f2cec6228d763bc241628221203e0742e32",
            "kde_x0_1.csv": "3d8f43940bb16e338087cd6a585772ea8904493bffb85548ddd4929f9233c039",
            "kde_x0_2.csv": "cd614c512338f90e824370010f2dc8f68b4f2f61003e8cded228de7903a5105b",
            "pare_table.csv": "0b6c2e4c30caf33534874d7bdb4b409ffb62644711b6a5bc809379ea38dadd6a",
            "posterior_mean_lambda.csv": "9abd08a92fcd657066ab1c81b45dfaf35cfc1dd672217f2bb4a127dcc89fc444",
            "posterior_mean_p.csv": "d1000140e0a916ddcabe25f27110a97df87f844d2200688b8313c8bc90e20700",
            "summary.json": "954bbe5eada226eb8d9784a148965278e0948485a0b6b3f7be769312bf08a647",
        },
        "4a-parametric-h3": {
            "ergodic_theta_1.csv": "3716ae6a6b59074b67f7e8e870caf46004af9435d38bcc4a1b57db3a4b3d725e",
            "ergodic_theta_2.csv": "5c38211336b7571161fc893217f88eee01859a5d9959a11eb68bdb6eb1f0f24c",
            "hpdi.json": "0db3871e7c1ea08fef04a10eadd082fe3be0e3b7c2f42f0ab9572745d83f16be",
            "kde_future_1.csv": "82c0d5d659d2a907c227de7eb9641e0608bb7cc5fed262fb3ed7f042ad7f893c",
            "kde_future_2.csv": "48f0d353f93dac92d0e9a4fe3557425f8d9d4e2129b1e3e02bbe576979bbe684",
            "kde_noise_1.csv": "bedaa8654a7dd3984c85d075603ddd0aec7965688da502a881c19033b3b248ef",
            "kde_noise_2.csv": "04c05d1648e14c6242ea14c34b426a974b2887d5ec46fddfd707a392304eb1a6",
            "kde_x0_1.csv": "2a443dc0f0abbd69bf9e2bcd298bdb70d85b4c0ed47e93872f14d4cd14da9a58",
            "kde_x0_2.csv": "d3241d3563023d96819887978bdde55ad36f27190429fc7ae521e46eeb0fbd2a",
            "pare_table.csv": "65a5729319c2c206793e658fc8571427920cbaf3b3541a5204fec1b631a38292",
            "summary.json": "ca05cad9551f350abb2d9c7651da7412e593b26d180cb31631d8209418d45f6e",
        },
        "4c-checkpointed": {
            "boi.json": "b40c1866797b873128e749e1bbcca5fdc17629eb385b017e971a0e4585690dd2",
            "ergodic_theta_1.csv": "59259c346c3687c8f3e76141155ef7cc4d5f2dbe3e1f44b95931d8bac0d4f7ab",
            "ergodic_theta_2.csv": "14a769be062b493039f830c146cd79b01bc3149366d48650042d512691ef3617",
            "ergodic_theta_3.csv": "3481d6e6451ab212dfb700848e6aed92e92b1486775b0bf8e3db97db195c30c1",
            "hpdi.json": "daeaa7dc3da0d2a40b50aac017e4224ab2be7b2853118b85adfe2a1095822872",
            "kde_future_1.csv": "9312b60210c979d27249d54bcad58ce33023f3547fa4ce14216147220bee0e5b",
            "kde_future_2.csv": "04d62b51b23936f51f93b4d0b4605f70076a5ab78a9bd3690aa18ffd0a15da5e",
            "kde_future_3.csv": "b78cbc21ba8a60ab8fa0b007990a653129abc7ccbd0a9d90d685bd2232e1e833",
            "kde_noise_1.csv": "1a13d3302266179555b1de98fd622d21a797accf839d11ce3b0f2c277235398a",
            "kde_noise_2.csv": "614434026885530e21a3aa2f2f54359da404fcf8ec84f277e25ea363e5ba5c9e",
            "kde_noise_3.csv": "d144e400d9bd8124860caf53fe45556dddb6c81293e5e37c39a5de19023179d7",
            "kde_x0_1.csv": "ae21e9dcdf0ac96eb0ae3fa03ad41c922d9057e7d47754a08ffa390b1dfe34d4",
            "kde_x0_2.csv": "d8b065cb42f32b65f9d72b01109efade390dd7947bebdb7807af3918ebcf6536",
            "kde_x0_3.csv": "a25260fd001b0ffa9c31ae821cec6022d22834496f625f1956d9285bb6866279",
            "pare_table.csv": "e4ba27a362f8a4d62abd74ee49a60e0aa1b27f83c395ee1657d4ad2692d974bc",
            "posterior_mean_lambda.csv": "ee0aa9e47c13933d61e6859dcbd5e00f12aa115c3132cf41f79fcdc589214540",
            "posterior_mean_p.csv": "25539948bae5d406201ee31d50771538db7df54a5990ac3c29353c30cc5af089",
            "summary.json": "97bafa989d7d09f461138f63c14df20346026a137f8469c1b5911364940ae541",
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
    bounds = cli.bundled_config(CASES[case][0])["outputs"]["kde_bounds"]
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
