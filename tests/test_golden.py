"""Golden traces: short fixed-seed runs whose output bytes must not change.

A refactor that keeps every random draw in its order and with its arguments
leaves these digests as they are. A change that alters the random stream on
purpose records new digests here, and says why in CHANGES.md. Float
formatting and the generators' algorithms can differ between numpy releases,
so digests are kept per numpy ``major.minor``; a version without an entry is
skipped.
"""

import hashlib

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

# SHA-256 of each pinned file in the run directory, per case.
GOLDEN = {
    "2.4": {
        "4a-strong": {
            "trace.jsonl": "47167ff25cc8db37a28b6e3f742f0b66f7e6a3729bd9993a65ffdfe2321308b2",
            "trace.csv": "de45a94b342192f47abdc76c3cd971ca2098cca27c5517cc5ae367c1231ef476",
        },
        "4c-checkpointed": {
            "trace.jsonl": "7aed6138bc1ca85e1631265bb03bb0f894f9a9be0ec7e3786c191a696d4ead42",
            "trace.csv": "7f0a9691d8006d9f20c946af6e628eed127d32e32da1be68ecdf1dbfac5788d9",
            "checkpoint.json": "3e36e570dfed0daaf44533529662c4c099081a897306c1f87494f4eccccd46c4",
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

NUMPY_MINOR = ".".join(np.__version__.split(".")[:2])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_digest(case, tmp_path):
    digests = GOLDEN.get(NUMPY_MINOR)
    if digests is None:
        pytest.skip(f"no golden digests for numpy {NUMPY_MINOR}")
    experiment, sampler, alpha_key, overrides, horizon = CASES[case]
    doc = cli.bundled_config(experiment)
    if horizon is not None:
        doc["prior"]["horizon"] = [horizon] * len(doc["data"]["maps"])
    doc["sampler"].update(iterations=100, burn_in=20, thinning=1, **overrides)
    cli.cmd_simulate(doc, tmp_path / "data")
    cli.cmd_run(doc, tmp_path / "data" / "data.json", tmp_path / "run", sampler=sampler,
                seed_override=2024, alpha_key=alpha_key)
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
             for name in digests[case]}
    assert found == digests[case]
