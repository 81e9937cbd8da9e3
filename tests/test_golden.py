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

CASES = {
    "4a-strong": ("4a", "pdgsbr", "dirichlet_alpha_strong", {}),
    "4c-checkpointed": ("4c", "pdgsbr", "dirichlet_alpha_strong", {"checkpoint_interval": 40}),
    "4a-parametric": ("4a", "parametric", "dirichlet_alpha", {}),
}

# SHA-256 of each pinned file in the run directory, per case.
GOLDEN = {
    "2.4": {
        "4a-strong": {
            "trace.jsonl": "30045b43bb003f182509e5e6ec084ea616037720b1b3ad74e8a40acfa92bcc06",
            "trace.csv": "1c77db003a48ea5265ad421280ee3b90ab0c014e41f159d15aa4bf9f5b2acd11",
        },
        "4c-checkpointed": {
            "trace.jsonl": "b97823b4ca45e1f4a8aa7e1193e8c74c6ac1f36a97ec95fdce4dfa34bec36019",
            "trace.csv": "f40388f9fd9cd54972c5b25f950ce820273e1e1d8418aa4949425ffff67b55e5",
            "checkpoint.json": "97be94c08c09e80743a09117fc90d19f87956da2a94ae7de3e73e9b372e5f20e",
        },
        "4a-parametric": {
            "trace.jsonl": "0f3165f2ebd7b9ee20c0a4c5608bc61a48785966930bbfe9e682b078f7a65bb4",
            "trace.csv": "3d722dc7e0fd34d29f1cd05ecfd0aa788377d98481aa10d81ffc56e96f3d5aaa",
        },
    },
}

NUMPY_MINOR = ".".join(np.__version__.split(".")[:2])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_digest(case, tmp_path):
    digests = GOLDEN.get(NUMPY_MINOR)
    if digests is None:
        pytest.skip(f"no golden digests for numpy {NUMPY_MINOR}")
    experiment, sampler, alpha_key, overrides = CASES[case]
    doc = cli.bundled_config(experiment)
    doc["sampler"].update(iterations=100, burn_in=20, thinning=1, **overrides)
    cli.cmd_simulate(doc, tmp_path / "data")
    cli.cmd_run(doc, tmp_path / "data" / "data.json", tmp_path / "run", sampler=sampler,
                seed_override=2024, alpha_key=alpha_key)
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
             for name in digests[case]}
    assert found == digests[case]
