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
            "trace.jsonl": "bfb78be75c0cbb4d3d0a44d9ef3a3b72d1b32a23de4dbb6447e64889e5f7affd",
            "trace.csv": "a8fbb0ebfe8bbd58cab985507ba169b67e452b016cc91e3b4f0d0c5ecca0c30a",
        },
        "4c-checkpointed": {
            "trace.jsonl": "891800483fea720f08521d9c2eb26a6c0ce4358aa19cd3b83c10cae4698dbf9e",
            "trace.csv": "880876b84711eb49263647d2740a243eb4a7c56cc7ce535094ba181ce04c65af",
            "checkpoint.json": "937703378a59b02d465ba18fee567c5982bd2439d8f2532a14f99b12646a3222",
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
            "ergodic_theta_1.csv": "af17a399f296f896c6d634654b324e6d3af2032a081adc52d1db04b44b1d1560",
            "ergodic_theta_2.csv": "bbefb9f80fee97128a8c273cad692ee57e404b545c0d352678f3ab5a208b67c6",
            "kde_future_1.csv": "75c9ff9250e2d877054df0be4e025081433588a2612c1a3ac70db18120e7cd4d",
            "kde_future_2.csv": "bad6d417fd50f5afb4c4b40cae5758dc25a3ee5b4dcfbe6b492900b323286333",
            "kde_noise_1.csv": "985c26765c26f046212824440972fd6522e3941ab393ac799b98e8a1d5445978",
            "kde_noise_2.csv": "e4f8fe744fbf99fd3004f25709068f70f95cae4fc187c661a83ff9fff33fa3ce",
            "kde_x0_1.csv": "9841fbc1465108d9813609cf928f93be6e39908a83744648b5b3614128161c9a",
            "kde_x0_2.csv": "7934c903822842b1b57cb2365967a46f177b778d849b405098890413727d9da3",
            "pare_table.csv": "a484646dbb689e07530a7db8320d700e96dfa0ee5026304744e15310d62d92b6",
            "summary.json": "75af5ec810c93a2a2a138627fc0d59efccc1524ce5942ad1e4116625f9cf967e",
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
            "ergodic_theta_1.csv": "41f4b3b8ee6759cd070f79406be4829fb8206432c460fe6d426a3a86ab5674e4",
            "ergodic_theta_2.csv": "be3b8df12b52d353534d6160ea9c520c3d709424420bdf5c25a20e037f11d6fc",
            "ergodic_theta_3.csv": "a570472f9c0953b7217a9e5941a4aace4ecf1ffb5842e19a2fa6ef676072f24c",
            "kde_future_1.csv": "ab0bbcc9724a6f6b7dad8e68d3c3bb42913867a96428be55c12aeea74e47f2cc",
            "kde_future_2.csv": "765b3e35eb9389f8fd695e34f47cdf1d5c1b9d6dfcb6a492feddf637c7c27bdf",
            "kde_future_3.csv": "226611962c44d7a945c8d45451bb8de88a48ac4863cf5cf91d1147b11b689684",
            "kde_noise_1.csv": "931c0b8d43d43ca704b71b745df4f1b7a7db15edcb12cc2c8572824fa69c1251",
            "kde_noise_2.csv": "594898b242fc0fe143e168f3552449c752ef16970e501c82c7713c4a43dcfd6f",
            "kde_noise_3.csv": "ed8a304b5446081a3943416b8d3321518a23a4f775219641490b723ec8d3e1c0",
            "kde_x0_1.csv": "e16f5e2cd3b76ba16b5861905b93b6b470646c5689bbf5387572e2241f228e5e",
            "kde_x0_2.csv": "290fa9a17e057a38edb72bf645eadaadf25c8c3a0cf1bbb755532bc14912e989",
            "kde_x0_3.csv": "78fec8ea8bd14afece85dca2f3ab91a71c6519594ac8a0c9bfb05fb1ed63b15d",
            "pare_table.csv": "866408077aefd512095fba1e8a3da71016a6d0b435b28c6ff55df95ea754a640",
            "summary.json": "5bb7fd8fab7d9e348aaea8a6c0bc89248067d0ae1a275d0f3cc00e40cfb3dc26",
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
