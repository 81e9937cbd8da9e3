import dataclasses
import functools
import importlib.resources
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle import csv_write_table, savetxt_matrix, two_call_default_kde
import pdgsbr
from pdgsbr import cli, model
from pdgsbr.dynamics import MultiSeries
from pdgsbr.errors import ConfigError
from pdgsbr.gibbs import GibbsConfig
from pdgsbr.model import PriorConfig, Trace, read_trace_jsonl
from test_model import EDGE_FLOATS


def base_config(**overrides):
    doc = {
        "name": "smoke",
        "data": {
            "seed": 9,
            "maps": ["Q1", "C1"],
            "n": [40, 25],
            "x0": [1.0, 1.0],
            "horizon": [1, 1],
            "components": {
                "1,1": {"weights": [1.0], "variances": [1.0e-4]},
                "2,2": {"weights": [1.0], "variances": [1.0e-4]},
            },
            "selection": [[1.0, 0.0], [0.0, 1.0]],
        },
        "prior": {
            "poly_degree": 3,
            "horizon": [1, 1],
            "dirichlet_alpha": [[1, 1], [1, 1]],
        },
        # retained records must stay >= 100 so the future HPDI is computable
        "sampler": {"iterations": 150, "burn_in": 30, "thinning": 1, "seed": 5},
        "outputs": {"directory": "out"},
    }
    doc.update(overrides)
    return doc


# one hand-made trace record of each sampler, for two series
MIXTURE = {"iteration": 31, "theta": [[0.1, 0.2], [0.3, 0.4]], "p": [[0.6, 0.4], [0.3, 0.7]],
           "lam": [[0.5, 0.2], [0.2, 0.8]], "x0": [0.1, 0.2], "future": [[0.5], [0.6]],
           "z_pred": [0.01, -0.02], "n_star": 3, "tau_common": None}
PARAMETRIC = dict(MIXTURE, p=None, lam=None, n_star=None, tau_common=2.5)


# each non-finite prior value once exited 1 with a traceback, or ran on an
# infinite support, where a config error (exit 2) is due
NON_FINITE_PRIOR = [(f"{case}-{name}", key, value)
                    for name, x in (("nan", math.nan), ("inf", math.inf), ("neg-inf", -math.inf))
                    for case, key, value in (("gamma-a", "gamma_a", x), ("gamma-b", "gamma_b", x),
                                             ("x0-lo", "x0_support", [[x, 5.0], [-5.0, 5.0]]),
                                             ("x0-hi", "x0_support", [[-5.0, 5.0], [-5.0, x]]))]

# a valid value of each sampler field, given as a one-element list where a number is due
SAMPLER_LISTS = [("iterations", 150), ("burn_in", 30), ("thinning", 1), ("checkpoint_interval", 5),
                 ("seed", 5), ("max_stepout", 16), ("slice_width", 0.25)]

# a value that cannot be read as numbers; each once exited 2 with numpy's text in place of the key
UNREADABLE = [("run", "prior", "x0_support", [[-5, 5], [-5]]),
              ("run", "prior", "dirichlet_alpha", [[1, 1], [1]]),
              ("simulate", "data", "n", ["abc", 50]),
              ("simulate", "data", "selection", [[0.5, 0.5], [1.0]])]

# a malformed data.components key or entry, or data.maps not a list or empty, and the
# words that name it; each once exited 2 with Python's text, or another key, in place of it
ONE_COMPONENT = {"weights": [1.0], "variances": [1e-4]}
UNNAMED = [("component-key-one-number", "components", {"1": ONE_COMPONENT},
            "data.components key '1'"),
           ("component-key-not-numbers", "components", {"a,b": ONE_COMPONENT},
            "data.components key 'a,b'"),
           ("component-key-three-numbers", "components", {"1,2,3": ONE_COMPONENT},
            "data.components key '1,2,3'"),
           ("maps-a-string", "maps", "Q1", "data.maps"),
           ("maps-empty", "maps", [], "data.maps"),
           ("component-weights-a-number", "components",
            {"1,1": {"weights": 1.0, "variances": [1e-4]}, "2,2": ONE_COMPONENT},
            "data.components key '1,1'")]

# a valid pair of reproduce selection priors for two series
ALPHAS = {"dirichlet_alpha_weak": [[1, 1], [1, 1]], "dirichlet_alpha_strong": [[1, 1], [1, 1]]}


def jsonl(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


def two_series_data(maps):
    """A 2-series data.json whose truth holds ``maps`` and one noise per series."""
    return json.dumps({"m": 2, "series": [[0.1, 0.2, 0.3]] * 2, "truth": {
        "x0": [0.1, 0.2], "maps": maps, "noise": [{"weights": [1.0], "variances": [1e-4]}] * 2}})


# a truth map per series is scored against that series' chain; one map for two
# series once crashed report with an IndexError, and four (the two swapped,
# then repeated) once scored series 1 against series 2's map, with exit 0
FEWER_MAPS = two_series_data([[1.0, 0.0, -1.65]])
MORE_MAPS = two_series_data([[1.0, 0.0, -1.71], [1.0, 0.0, -1.65]] * 2)


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_outputs_and_lengths(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data = MultiSeries.load_json(out / "data.json")
        assert data.m == 2
        assert [len(s) for s in data.series] == [40, 25]
        assert [len(f) for f in data.futures_true] == [1, 1]
        for name in ("series_1.csv", "series_2.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["data"]["seed"] == 9

    def test_deterministic_and_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b, c = (tmp_path / d for d in ("a", "b", "c"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert read_bytes(a / "data.json") == read_bytes(b / "data.json")
        assert cli.main(["simulate", "--config", cfg, "--out", str(c), "--seed", "77"]) == 0
        assert read_bytes(a / "data.json") != read_bytes(c / "data.json")

    @pytest.mark.parametrize("seed", [2.7, True, math.nan], ids=["fractional", "bool", "nan"])
    def test_bad_seed_override_is_refused_before_anything_is_written(self, tmp_path, seed):
        # 2.7 once simulated with seed 2, True with seed 1, and NaN raised a bare ValueError
        out = tmp_path / "sim"
        with pytest.raises(ConfigError, match="seed"):
            cli.cmd_simulate(base_config(), out, seed_override=seed)
        assert not out.exists()

    def test_missing_key_is_config_error(self, tmp_path):
        doc = base_config()
        del doc["data"]["selection"]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path / "x")])
        assert code == 2

    def test_escape_is_numeric_failure(self, tmp_path):
        doc = base_config()
        doc["data"]["x0"] = [1.5, 1.0]  # outside the quadratic invariant set
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_allow_escape_keeps_finite_prefix(self, tmp_path):
        doc = base_config()
        doc["data"]["x0"] = [1.5, 1.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "esc"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out), "--allow-escape"])
        assert code == 0
        data = MultiSeries.load_json(out / "data.json")
        assert 2 <= len(data.series[0]) < 40
        assert np.all(np.isfinite(data.series[0]))


@pytest.fixture()
def sim_dir(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


class TestRun:
    def test_trace_files_and_manifest(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        out = tmp_path / "run"
        code = cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(out)])
        assert code == 0
        records = read_trace_jsonl(out / "trace.jsonl")
        assert len(records) == 120  # (150 - 30) / thinning 1
        assert (out / "trace.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sampler"] == "pdgsbr"
        assert manifest["config"]["sampler"]["seed"] == 5

    def test_run_is_deterministic(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        a, b = tmp_path / "r1", tmp_path / "r2"
        for out in (a, b):
            assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                             "--out", str(out)]) == 0
        assert read_bytes(a / "trace.jsonl") == read_bytes(b / "trace.jsonl")
        assert read_bytes(a / "trace.csv") == read_bytes(b / "trace.csv")

    def test_parametric_sampler_dispatch(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        out = tmp_path / "par"
        code = cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(out), "--sampler", "parametric"])
        assert code == 0
        records = read_trace_jsonl(out / "trace.jsonl")
        assert records[0].p is None
        assert records[0].tau_common is not None

    def test_resume_continues_bit_exactly(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        doc = yaml.safe_load(Path(cfg).read_text())
        # one uninterrupted 150-sweep chain as the reference
        full_dir = tmp_path / "full"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(full_dir)]) == 0
        # a 70-sweep chain that checkpoints, then a resumed 150-sweep chain
        doc_half = dict(doc)
        doc_half["sampler"] = dict(doc["sampler"], iterations=70,
                                   checkpoint_interval=70)
        cfg_half = write_config(tmp_path, doc_half, "half.yaml")
        half_dir = tmp_path / "half"
        assert cli.main(["run", "--config", cfg_half, "--data", str(sim / "data.json"),
                         "--out", str(half_dir)]) == 0
        rest_dir = tmp_path / "rest"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(rest_dir), "--resume",
                         str(half_dir / "checkpoint.json")]) == 0
        for name in ("trace.jsonl", "trace.csv"):
            half, rest = read_bytes(half_dir / name), read_bytes(rest_dir / name)
            if name == "trace.csv":  # each file has its own header
                rest = rest.split(b"\r\n", 1)[1]
            assert half + rest == read_bytes(full_dir / name)
        first = read_trace_jsonl(half_dir / "trace.jsonl")
        rest = read_trace_jsonl(rest_dir / "trace.jsonl")
        reference = read_trace_jsonl(full_dir / "trace.jsonl")
        combined = list(first) + list(rest)
        assert len(combined) == len(reference)
        for a, b in zip(combined, reference):
            assert a.iteration == b.iteration
            for j in range(2):
                assert np.array_equal(a.theta[j], b.theta[j])
            assert np.array_equal(a.p, b.p)

    def test_malformed_checkpoint_is_config_error(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        out = tmp_path / "run"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        # atoms as per-pair lists keyed "j,l", not one (P, K) array
        doc["state"]["atoms"] = {"0,0": [1.0], "0,1": [1.0], "1,1": [1.0]}
        (out / "checkpoint.json").write_text(json.dumps(doc))
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(tmp_path / "again"), "--resume",
                         str(out / "checkpoint.json")]) == 2
        assert not (tmp_path / "again").exists()
        # a parametric checkpoint carries a common precision the mixture chain never updates
        par = tmp_path / "par"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(par), "--sampler", "parametric"]) == 0
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(tmp_path / "mixed"), "--resume",
                         str(par / "checkpoint.json")]) == 2
        assert not (tmp_path / "mixed").exists()

    def test_run_that_keeps_no_sweep_exits_2(self, tmp_path, sim_dir, capsys):
        # 20 sweeps, 10 of burn-in, every 50th kept: nothing would be retained
        cfg, sim = sim_dir
        doc = base_config()
        doc["sampler"].update(iterations=20, burn_in=10, thinning=50)
        cfg = write_config(tmp_path, doc, "no_sweep.yaml")
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()  # rejected before the chain starts

    def test_resume_that_keeps_no_sweep_exits_2(self, tmp_path, sim_dir, capsys):
        # a finished run's checkpoint leaves no sweep for the same config to keep
        cfg, sim = sim_dir
        done = tmp_path / "done"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(done)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(tmp_path / "again"), "--resume",
                         str(done / "checkpoint.json")]) == 2
        assert "keeps no sweep" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("case", ["other-m", "points-cut", "d-above-N", "empty-atoms"])
    def test_resume_that_does_not_fit_exits_2(self, tmp_path, sim_dir, capsys, case):
        cfg, sim = sim_dir
        data = sim / "data.json"
        doc = base_config()
        doc["sampler"].update(iterations=40, burn_in=10)
        if case == "other-m":  # the checkpoint of a one-series chain
            doc["data"].update(maps=["Q1"], n=[30], x0=[1.0], horizon=[1], selection=[[1.0]],
                               components={"1,1": {"weights": [1.0], "variances": [1e-4]}})
            doc["prior"].update(horizon=[1], dirichlet_alpha=[[1]])
            assert cli.main(["simulate", "--config", write_config(tmp_path, doc, "m1.yaml"),
                             "--out", str(tmp_path / "sim1")]) == 0
            data = tmp_path / "sim1" / "data.json"
        first = tmp_path / "first"
        assert cli.main(["run", "--config", write_config(tmp_path, doc, "short.yaml"),
                         "--data", str(data), "--out", str(first)]) == 0
        checkpoint = first / "checkpoint.json"
        if case == "points-cut":  # series 2 has lost 5 points since the checkpoint
            series = json.loads((sim / "data.json").read_text())
            series["series"][1] = series["series"][1][:-5]
            (tmp_path / "cut.json").write_text(json.dumps(series))
        if case == "d-above-N":
            state = json.loads(checkpoint.read_text())
            alloc = state["state"]["alloc"]
            alloc["d"][0][0] = alloc["N"][0][0] + 1
            checkpoint.write_text(json.dumps(state))
        if case == "empty-atoms":  # once an IndexError in the first allocation block
            state = json.loads(checkpoint.read_text())
            state["state"]["atoms"] = [[], [], []]
            checkpoint.write_text(json.dumps(state))
        capsys.readouterr()
        data = tmp_path / "cut.json" if case == "points-cut" else sim / "data.json"
        assert cli.main(["run", "--config", cfg, "--data", str(data),
                         "--out", str(tmp_path / "again"), "--resume", str(checkpoint)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("path, value", [
        (("alloc", "N", 0, 0), 2.7), (("alloc", "delta", 0, 0), "1"), (("alloc", "d", 0, 0), True),
        (("p", 0, 0), "0.5"), (("iteration",), 10.5), (("x0", 0), False),
        # each once ran to the end, or failed with a traceback or a misleading message
        (("x0", 0), math.nan), (("x0", 1), -math.inf), (("theta", 0, 0), math.nan),
        (("theta", 1, 2), math.inf), (("future", 0, 0), math.inf), (("future", 1, 0), math.nan),
        (("atoms", 0, 0), math.inf), (("p", 0, 0), math.nan), (("lam", 0, 1), math.nan),
        (("iteration",), -5),
    ])
    def test_resume_refuses_labels_and_values_that_are_not_numbers(
            self, tmp_path, sim_dir, capsys, path, value):
        # each was once read as the number it spells or truncates to
        cfg, sim = sim_dir
        doc = base_config()
        doc["sampler"].update(iterations=40, burn_in=10)
        first = tmp_path / "first"
        assert cli.main(["run", "--config", write_config(tmp_path, doc, "short.yaml"),
                         "--data", str(sim / "data.json"), "--out", str(first)]) == 0
        doc = json.loads((first / "checkpoint.json").read_text())
        *keys, last = path
        functools.reduce(operator.getitem, keys, doc["state"])[last] = value
        (first / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(tmp_path / "again"), "--resume",
                         str(first / "checkpoint.json")]) == 2
        name = [key for key in path if isinstance(key, str)][-1]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name} holds" in err

    def test_unknown_sampler_rejected(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        doc = yaml.safe_load(Path(cfg).read_text())
        with pytest.raises(ConfigError):
            cli.cmd_run(doc, sim / "data.json", tmp_path / "x", sampler="bogus")


@pytest.fixture()
def run_dir(tmp_path, sim_dir):
    cfg, sim = sim_dir
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                     "--out", str(out)]) == 0
    return cfg, sim, out


class TestReport:
    @pytest.mark.parametrize("bounds", [[math.nan, 1.0], [1.0, -1.0], [0.0]],
                             ids=["nan", "reversed", "one-value"])
    def test_bad_kde_bounds_refused_before_anything_is_written(self, tmp_path, run_dir, bounds):
        # as a library call, report once wrote nan grids for [nan, 1], a descending
        # grid for [1, -1], and raised a bare ValueError for [0] after writing files
        _, sim, run = run_dir
        out = tmp_path / "rep"
        with pytest.raises(ConfigError, match="kde_bounds"):
            cli.cmd_report(run / "trace.jsonl", sim / "data.json", out, kde_bounds=bounds)
        assert not out.exists()

    def test_emits_all_diagnostics(self, tmp_path, run_dir):
        _, sim, run = run_dir
        out = tmp_path / "rep"
        code = cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"), "--out", str(out)])
        assert code == 0
        for name in ("pare_table.csv", "boi.json", "posterior_mean_p.csv",
                     "posterior_mean_lambda.csv", "summary.json", "hpdi.json",
                     "ergodic_theta_1.csv", "kde_noise_1.csv", "kde_x0_2.csv"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["boi"]) == {"1", "2"}
        p = np.loadtxt(out / "posterior_mean_p.csv", delimiter=",")
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_kde_grid_reintegrates_to_one(self, tmp_path, run_dir):
        _, sim, run = run_dir
        out = tmp_path / "rep"
        assert cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"), "--out", str(out)]) == 0
        table = np.loadtxt(out / "kde_x0_1.csv", delimiter=",", skiprows=1)
        integral = np.trapezoid(table[:, 1], table[:, 0])
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_parametric_trace_omits_mixture_outputs(self, tmp_path, sim_dir):
        cfg, sim = sim_dir
        run = tmp_path / "par"
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(run), "--sampler", "parametric"]) == 0
        out = tmp_path / "rep"
        assert cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"), "--out", str(out)]) == 0
        assert not (out / "boi.json").exists()
        assert not (out / "posterior_mean_p.csv").exists()
        assert (out / "pare_table.csv").exists()

    def test_pare_table_of_a_truth_longer_than_the_fit(self, tmp_path):
        # a truth map of 8 coefficients beside one of 3, under a quintic fit:
        # report once crashed on rows of 6 and 8 PAREs
        doc = base_config()
        doc["data"]["maps"] = ["Q1", [1.0, 0.0, -1.65, 0.0, 0.0, 0.0, 0.0, 0.0]]
        doc["prior"]["poly_degree"] = 5
        doc["sampler"].update(iterations=40, burn_in=10)
        cfg = write_config(tmp_path, doc)
        sim, run, out = tmp_path / "sim", tmp_path / "run", tmp_path / "rep"
        assert cli.main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        assert cli.main(["run", "--config", cfg, "--data", str(sim / "data.json"),
                         "--out", str(run)]) == 0
        assert cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"), "--out", str(out)]) == 0
        header, *rows = (line.split(",") for line in
                         (out / "pare_table.csv").read_text().splitlines())
        assert header == ["series", *(f"theta_{k}" for k in range(8)), "mean"]
        short, long = (np.array(row[1:], dtype=float) for row in rows)
        assert rows[0][7:9] == ["nan", "nan"] and np.isfinite(short[:6]).all()
        assert np.isfinite(long).all()
        for values, width in ((short, 6), (long, 8)):  # each mean over its own cells
            assert values[-1] == pytest.approx(values[:width].mean(), rel=1e-5)
        summary = json.loads((out / "summary.json").read_text())
        assert [summary["mean_pare"][j] for j in "12"] == pytest.approx([short[-1], long[-1]],
                                                                       rel=1e-5)

    def test_m_mismatch_is_config_error(self, tmp_path, run_dir):
        cfg, sim, run = run_dir
        doc = base_config()
        doc["data"].update(maps=["Q1"], n=[30], x0=[1.0], horizon=[1],
                           selection=[[1.0]],
                           components={"1,1": {"weights": [1.0], "variances": [1e-4]}})
        cfg1 = write_config(tmp_path, doc, "m1.yaml")
        sim1 = tmp_path / "sim1"
        assert cli.main(["simulate", "--config", cfg1, "--out", str(sim1)]) == 0
        code = cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim1 / "data.json"), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_short_trace_skips_the_future_hpdi(self, tmp_path, sim_dir, caplog):
        cfg, sim = sim_dir
        doc = base_config()
        doc["sampler"].update(iterations=60, burn_in=10)  # 50 records, HPDI needs 100
        run = tmp_path / "short"
        cli.cmd_run(doc, sim / "data.json", run)
        out = tmp_path / "rep"
        assert cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"), "--out", str(out)]) == 0
        assert not (out / "hpdi.json").exists()
        assert "hpdi_future" not in json.loads((out / "summary.json").read_text())
        assert (out / "kde_future_2.csv").exists() and (out / "boi.json").exists()
        assert "no future HPDI" in caplog.text
        # one record: no KDE grid either, but the rest is still written
        one = tmp_path / "one" / "trace.jsonl"
        one.parent.mkdir()
        one.write_text((run / "trace.jsonl").read_text().splitlines(keepends=True)[0])
        out = tmp_path / "rep1"
        assert cli.main(["report", "--trace", str(one),
                         "--data", str(sim / "data.json"), "--out", str(out)]) == 0
        assert not list(out.glob("kde_*.csv"))
        assert (out / "summary.json").exists() and (out / "ergodic_theta_2.csv").exists()
        assert "no noise KDE grid" in caplog.text

    @pytest.mark.parametrize("z, reason", [
        ([0.0, 0.01, math.nan, 0.03, 0.04], "need >= 2 samples, all finite; got 5"),
        # finite, but np.std overflows on their squares
        ([1e200, -1e200] * 2 + [1e200], "no finite bandwidth for 5 samples"),
    ], ids=["nan", "spread-past-1e154"])
    def test_samples_without_a_bandwidth_skip_their_grid(self, tmp_path, sim_dir, caplog, z,
                                                         reason):
        # each once ended report with a traceback ("bandwidth holds nan", or inf)
        _, sim = sim_dir
        records = [dict(MIXTURE, iteration=31 + i, x0=[0.1 + 0.01 * i, 0.2 - 0.01 * i],
                        z_pred=[z[i], -0.02 * i]) for i in range(5)]
        trace = tmp_path / "trace.jsonl"
        trace.write_text(jsonl(*records))
        out = tmp_path / "rep"
        assert cli.main(["report", "--trace", str(trace), "--data", str(sim / "data.json"),
                         "--out", str(out)]) == 0
        assert f"series 1: no noise KDE grid: {reason}" in caplog.text
        assert sorted(path.name for path in out.glob("kde_*.csv")) == [
            "kde_future_1.csv", "kde_future_2.csv", "kde_noise_2.csv", "kde_x0_1.csv",
            "kde_x0_2.csv"]
        assert (out / "summary.json").exists()

    def test_hand_made_trace_is_reported(self, tmp_path, sim_dir):
        # each malformed trace below differs from this one in one record or field
        _, sim = sim_dir
        trace = tmp_path / "trace.jsonl"
        trace.write_text(jsonl(MIXTURE, MIXTURE))
        assert cli.main(["report", "--trace", str(trace), "--data", str(sim / "data.json"),
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("verb, name, content, code", [
        ("report", "trace.jsonl", jsonl(MIXTURE, PARAMETRIC), 2),
        ("report", "trace.jsonl", jsonl(PARAMETRIC, MIXTURE), 2),
        ("report", "trace.jsonl", jsonl(MIXTURE, dict(MIXTURE, theta=[[0.1, 0.2], [0.3]])), 2),
        ("report", "trace.jsonl", jsonl(dict(MIXTURE, theta=0.5)), 2),
        ("report", "trace.jsonl", "", 2),
        ("report", "trace.jsonl", jsonl(MIXTURE, dict(MIXTURE, iteration=31.7)), 2),
        ("report", "trace.jsonl", jsonl(dict(MIXTURE, n_star=2.9), MIXTURE), 2),
        ("report", "trace.jsonl", jsonl(MIXTURE, dict(MIXTURE, x0=[0.1, "0.2"])), 2),
        ("report", "trace.jsonl", jsonl(MIXTURE, dict(MIXTURE, z_pred=[True, -0.02])), 2),
        ("run", "data.json", '{"m": 2, "series": [[0.1, 0.2, 0.3], [0.5]]}', 2),
        ("run", "data.json", '{"m": 2, "series": [[0.1, 0.2', 2),
        ("run", "data.json", '{"m": 2}', 2),
        ("run", "data.json", '[1, 2]', 2),
        ("run", "data.json", '{"m": 1, "series": [[0.1, 0.2, 0.3]], "truth": [1]}', 2),
        ("report", "data.json", '{"m": 2, "series": [[0.1, 0.2, 0.3], [0.5]]}', 2),
        ("report", "trace.jsonl", '{"iteration": 31, "theta": [[0.1', 2),
        ("report", "trace.jsonl", '{"iteration": 31}', 2),
        ("run", "data.json", None, 4),
        ("report", "trace.jsonl", None, 4),
        # each once read as a number (0.1, 1.0) or kept as it was, with exit 0
        ("run", "data.json", '{"m": 2, "series": [[0.1, 0.2, 0.3], ["0.1", 0.2, 0.3]]}', 2),
        ("run", "data.json", '{"m": 2, "series": [[0.1, 0.2, 0.3], [true, 0.2, 0.3]]}', 2),
        ("report", "data.json", json.dumps({"m": 2, "series": [[0.1, 0.2, 0.3]] * 2, "truth": {
            "x0": ["a", None], "maps": [[1.0, 0.0, -1.65]] * 2,
            "noise": [{"weights": [1.0], "variances": [1e-4]}] * 2}}), 2),
        ("report", "data.json", FEWER_MAPS, 2),
        ("report", "data.json", MORE_MAPS, 2),
        ("run", "data.json", FEWER_MAPS, 2),
        ("run", "data.json", MORE_MAPS, 2),
    ], ids=["mixture-then-parametric", "parametric-then-mixture",
            "theta-lengths-differ", "theta-a-number", "empty-trace",
            "iteration-fractional", "n-star-fractional", "x0-a-string", "z-pred-a-boolean",
            "one-value-series", "truncated-data", "no-series-key", "data-not-an-object",
            "truth-not-an-object", "report-one-value-series",
            "truncated-trace", "trace-missing-keys", "missing-data", "missing-trace",
            "series-a-string", "series-a-boolean", "truth-x0-a-string",
            "report-fewer-truth-maps", "report-more-truth-maps", "run-fewer-truth-maps",
            "run-more-truth-maps"])
    def test_bad_input_file_exit_code(self, tmp_path, run_dir, capsys, verb, name,
                                          content, code):
        cfg, sim, run = run_dir
        paths = {"data.json": sim / "data.json", "trace.jsonl": run / "trace.jsonl"}
        bad = tmp_path / "bad" / name
        bad.parent.mkdir()
        if content is not None:
            bad.write_text(content)
        paths[name] = bad
        argv = (["run", "--config", cfg] if verb == "run" else
                ["report", "--trace", str(paths["trace.jsonl"])])
        argv += ["--data", str(paths["data.json"]), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith("config error:" if code == 2 else "I/O error:")

    def test_unwritable_output_is_io_error(self, tmp_path, run_dir):
        _, sim, run = run_dir
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        code = cli.main(["report", "--trace", str(run / "trace.jsonl"),
                         "--data", str(sim / "data.json"),
                         "--out", str(blocker / "sub")])
        assert code == 4


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # np.quantile's first call in a process imports numpy.ma, a cost that
    # simulate, run and report need not pay; a fresh interpreter shows it
    doc = base_config()
    doc["sampler"].update(iterations=60, burn_in=10)
    script = ("import json, sys\n"
              "from pdgsbr import cli\n"
              "doc = json.loads(sys.argv[1])\n"
              "cli.cmd_simulate(doc, 'sim')\n"
              "cli.cmd_run(doc, 'sim/data.json', 'run')\n"
              "cli.cmd_report('run/trace.jsonl', 'sim/data.json', 'run')\n"
              "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(pdgsbr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(doc)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
    assert (tmp_path / "run" / "kde_x0_1.csv").exists()  # the default KDE range was taken


class Killed(BaseException):
    """A kill or Ctrl-C, partway through a write."""


def killed_writing(name, writes):
    """An ``open`` for ``model``: the handle on ``name``'s temp file takes
    ``writes`` writes, then writes half of the next text and raises Killed."""
    def killed_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if os.path.basename(file) == f"{name}.tmp":
            done = []

            def write(text):
                if len(done) == writes:
                    type(fh).write(fh, text[: len(text) // 2])
                    raise Killed
                done.append(text)
                return type(fh).write(fh, text)

            fh.write = write
        return fh
    return killed_open


class TestInterruptedWrites:
    # 50 records of a hand-made trace, spread enough for every KDE grid
    TRACE = Trace.stack([dict(MIXTURE, iteration=31 + i, x0=[0.1 + 0.01 * i, 0.2],
                              future=[[0.5 - 0.01 * i], [0.6]], z_pred=[0.001 * i, -0.02])
                         for i in range(50)])

    @pytest.mark.parametrize("command, name, writes", [
        ("trace", "trace.jsonl", 20),  # killed after 20 of the 50 records
        ("trace", "trace.csv", 21),  # the header and 20 records
        ("report", "kde_noise_1.csv", 0),
        ("report", "summary.json", 0),
        ("simulate", "data.json", 0),
    ])
    def test_the_previous_file_stays_whole(self, tmp_path, sim_dir, monkeypatch, command,
                                           name, writes):
        # the part-file of a killed trace write once read back as a valid shorter chain
        _, sim = sim_dir
        trace, out = tmp_path / "trace.jsonl", tmp_path / "out"
        model.write_trace_jsonl(trace, self.TRACE)
        out.mkdir()
        write = {"trace": lambda: model.write_trace_jsonl(out / "trace.jsonl", self.TRACE,
                                                        csv_path=out / "trace.csv"),
                 "report": lambda: cli.cmd_report(trace, sim / "data.json", out),
                 "simulate": lambda: cli.cmd_simulate(base_config(), out)}[command]
        with monkeypatch.context() as patch:
            patch.setattr(model, "open", killed_writing(name, writes), raising=False)
            with pytest.raises(Killed):
                write()
        assert not (out / name).exists() and not list(out.glob("*.tmp"))
        write()
        before = (out / name).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(model, "open", killed_writing(name, writes), raising=False)
            with pytest.raises(Killed):
                write()
        assert (out / name).read_bytes() == before and not list(out.glob("*.tmp"))


class TestReportWritersMatchTheFormerOnes:
    """The one-call report writers give the bytes of the former ones
    (tests/oracle.py): csv.writer over per-row reprs and np.savetxt; the
    one-call KDE range gives the grid and density of two quantile calls."""

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 300), st.integers(1, 6)), elements=EDGE_FLOATS))
    def test_same_bytes(self, table):
        header = [f"c{k}" for k in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cli._write_csv(tmp / "new.csv", header, cli._repr_rows(table))
            csv_write_table(tmp / "old.csv", header, table)
            assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
            cli._write_matrix(tmp / "new.txt", table)
            savetxt_matrix(tmp / "old.txt", table)
            assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, st.integers(2, 300), elements=st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5]), st.floats(-1e3, 1e3))))
    def test_same_default_kde(self, samples):
        new, old = cli._kde_with_bounds(samples, None), two_call_default_kde(samples)
        assert np.array_equal(new.grid, old.grid) and np.array_equal(new.density, old.density)


class TestReproduce:
    def test_desk_pipeline_smoke(self, tmp_path):
        # bundled 4B config shrunk to a smoke-test chain length; scale=None
        # keeps the shortened sampler block instead of the desk preset
        doc = cli.bundled_config("4B")
        doc["sampler"].update(iterations=140, burn_in=30)
        out = tmp_path / "rep4b"
        comparison = cli.cmd_reproduce("4B", None, out, doc=doc)
        assert comparison["experiment"] == "4B"
        assert (out / "comparison.json").exists()
        for label in ("weak", "strong"):
            assert (out / label / "trace.jsonl").exists()
            assert (out / label / "boi.json").exists()
        assert 0.0 <= comparison["boi_weak"] <= 1.0
        assert 0.0 <= comparison["boi_strong"] <= 1.0

    @pytest.mark.parametrize("block", [
        {"short_series": 0}, {"short_series": 3}, {"short_series": 1.5}, {"donors": [0]},
        {"donors": [2]}, {"donors": [1, 3]}, {"short_series": 1, "donors": [1]},
        {"donors": [1, 1]},  # once counted series 1 twice: a BoI above 1
        # whole blocks: each once let the data be simulated, and a bad strong prior let the
        # whole weak chain and its report run, before the run was refused
        pytest.param({"outputs": {"kde_bounds": [math.nan, 1.0]}}, id="kde-bounds-nan"),
        pytest.param({"outputs": {"kde_bounds": [1.0, -1.0]}}, id="kde-bounds-reversed"),
        pytest.param({"prior": dict(ALPHAS, dirichlet_alpha_strong=[[1, 1], [1, math.nan]])},
                     id="alpha-strong-nan"),
        pytest.param({"prior": dict(ALPHAS, dirichlet_alpha_weak=[[1, 1], [-1, 1]])},
                     id="alpha-weak-negative"),
        pytest.param({"prior": ALPHAS, "sampler": {"iterations": 10, "burn_in": 20}},
                     id="sampler-keeps-no-sweep"),
        # once passed these checks, and both chains ran before a TypeError
        pytest.param({"prior": ALPHAS, "reproduce": {"short_series": [2]}},
                     id="short-series-list"),
        # once simulated and ran both chains to report a borrowing index of 0.0
        pytest.param({"prior": ALPHAS, "reproduce": {"donors": []}}, id="donors-empty"),
    ])
    def test_series_numbers_are_checked_before_anything_runs(self, tmp_path, monkeypatch, block):
        # on m = 2, short_series 0 once reported series 2 (index -1 wraps), donors [0]
        # summed series 2, and short_series 3 raised IndexError after both chains had run
        def runs(*args, **kwargs):
            raise AssertionError("simulated or ran a chain")
        monkeypatch.setattr(cli, "cmd_simulate", runs)
        monkeypatch.setattr(cli, "cmd_run", runs)
        out = tmp_path / "rep"
        whole_blocks = set(block) <= cli.CONFIG_KEYS["top level"]
        doc = base_config(**block) if whole_blocks else base_config(reproduce=block)
        with pytest.raises(ConfigError, match="short_series|donors|kde_bounds|"
                                              "dirichlet_alpha_weak|dirichlet_alpha_strong|sampler"):
            cli.cmd_reproduce("4A", None, out, doc=doc)
        assert not out.exists()

    @pytest.mark.parametrize("verb, overrides", [
        ("simulate", {}),
        ("simulate", {"seed_override": 77}),
        ("run", {}),
        ("run", {"seed_override": 7}),
        ("run", {"seed_override": 7, "alpha_key": "dirichlet_alpha_strong"}),
    ], ids=["simulate", "simulate-seed", "run", "run-seed", "run-seed-strong-prior"])
    def test_manifest_replay_is_byte_identical(self, tmp_path, sim_dir, verb, overrides):
        # an override once stayed out of the embedded config: run --seed 7 embedded the
        # config's seed 5 and kept 7 in a side field, so its replay ran another chain
        _, sim = sim_dir
        doc = base_config()
        doc["prior"].update(ALPHAS, dirichlet_alpha_strong=[[5, 1], [1, 5]])
        command = (cli.cmd_simulate if verb == "simulate"
                   else functools.partial(cli.cmd_run, data_path=sim / "data.json"))
        first, replay = tmp_path / "first", tmp_path / "replay"
        command(doc, out_dir=first, **overrides)
        # replay from the embedded config alone
        command(json.loads((first / "manifest.json").read_text())["config"], out_dir=replay)
        assert sorted(os.listdir(first)) == sorted(os.listdir(replay))
        for name in os.listdir(first):
            assert read_bytes(first / name) == read_bytes(replay / name), name


class TestConfigHelpers:
    def test_bundled_configs_load(self):
        for name in ("4A", "4b", "4C"):
            doc = cli.bundled_config(name)
            assert {"data", "prior", "sampler"} <= set(doc)
            cli.check_config_keys(doc)
        cli.check_config_keys(base_config())

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a typo must not silently run the default 10 000 sweeps
        doc = base_config()
        doc["sampler"] = {"iteration": 5}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
        assert "'iteration'" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()
        for block, key in (("data", "sed"), ("prior", "gamma"), ("outputs", "dir"),
                           ("reproduce", "donor"), (None, "samplers")):
            doc = base_config()
            (doc if block is None else doc.setdefault(block, {}))[key] = 1
            with pytest.raises(ConfigError, match=repr(key)):
                cli.check_config_keys(doc)
        with pytest.raises(ConfigError, match="mapping"):
            cli.check_config_keys(base_config(sampler=[1, 2]))

    @pytest.mark.parametrize("verb, block, key, value, extra", [
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variance": [1e-4]}}, []),
        ("simulate", "data", "components", {"1,1": {"weights": [0.5], "variances": [1e-4]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]}}, []),
        ("simulate", "data", "selection", [[0.5, 0.5], [0.0, 1.0]], []),  # no "1,2" component
        ("simulate", "data", "n", [200, 1], []),
        ("simulate", "data", "n", [40.5, 25], []),
        ("run", "prior", "gamma_a", 0, []),
        ("run", "prior", "poly_degree", "abc", []),
        ("run", "prior", "poly_degree", 2.9, []),
        ("run", "prior", "horizon", [1.5, 1], []),
        ("run", "sampler", "iterations", 150.9, []),
        ("run", "sampler", "checkpoint_interval", -5, []),
        ("run", "prior", "beta_a", [[0.5, 0.3], [0.7, 0.5]], []),
        ("run", None, None, None, ["--sampler", "gsbr"]),  # the data have m = 2
        ("simulate", "data", "components", {"1,1": {"weights": [math.nan], "variances": [1e-4]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]}}, []),
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variances": [math.inf]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]}}, []),
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variances": [math.nan]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]}}, []),
        ("run", "prior", "x0_support", [[1.0, -1.0], [-5.0, 5.0]], []),
    ] + [("run", "prior", key, value, []) for _, key, value in NON_FINITE_PRIOR] + [
        # each once exited 3 (divergence, int overflow), 0 (data cut short) or 1 (traceback)
        ("simulate", "data", "x0", [math.nan, 1.0], []),
        ("simulate", "data", "x0", [1.0, math.inf], []),
        ("simulate", "data", "horizon", [-1, 1], []),
        ("simulate", "data", "maps", [[math.nan, 1.0], "C1"], []),
        ("run", "prior", "poly_degree", -1, []),
        ("run", "prior", "poly_degree", -3, []),
        ("run", "sampler", "iterations", math.inf, []),
        # once exited 1 with a TypeError traceback from os.makedirs, or 0 with --out
        ("simulate", "outputs", "directory", 5, []),
        # once exited 4 as an I/O error; the writer would now write into the working directory
        ("simulate", "outputs", "directory", "", []),
        # each once ignored without a word: a component of a series the data do not have
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variances": [1e-4]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]},
                                            "1,5": {"weights": [1.0], "variances": [1e-4]}}, []),
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variances": [1e-4]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]},
                                            "0,1": {"weights": [1.0], "variances": [1e-4]}}, []),
        # once the later of the two silently won
        ("simulate", "data", "components", {"1,1": {"weights": [1.0], "variances": [1e-4]},
                                            "2,2": {"weights": [1.0], "variances": [1e-4]},
                                            "1,2": {"weights": [1.0], "variances": [1e-4]},
                                            "2,1": {"weights": [1.0], "variances": [9.0]}}, []),
        # a list where a number is due: each once ran every sweep and then exited 1 writing
        # the checkpoint, or exited 1 with a TypeError or ValueError traceback
    ] + [("run", "sampler", key, [value], []) for key, value in SAMPLER_LISTS] + [
        ("simulate", "data", "seed", [9], []),
        # a bool where a number is due: each once read as 1 and ran
        ("run", "sampler", "seed", True, []),
        ("run", "prior", "poly_degree", True, []),
    ] + [(*case, []) for case in UNREADABLE]
      + [("simulate", "data", key, value, []) for _, key, value, _ in UNNAMED],
       ids=["component-key-typo", "component-weights-sum", "selection-without-component",
            "one-observation", "n-fractional", "gamma-a-zero", "poly-degree-not-int",
            "poly-degree-fractional", "horizon-fractional", "iterations-fractional",
            "checkpoint-interval-negative", "beta-a-asymmetric",
            "gsbr-on-two-series", "component-weight-nan", "component-variance-inf",
            "component-variance-nan", "x0-support-empty"]
       + [case for case, _, _ in NON_FINITE_PRIOR]
       + ["data-x0-nan", "data-x0-inf", "data-horizon-negative", "map-coefficient-nan",
          "poly-degree-minus-1", "poly-degree-minus-3", "iterations-inf",
          "outputs-directory-int", "outputs-directory-empty", "component-key-series-5",
          "component-key-series-0", "component-pair-named-twice"]
       + [f"sampler-{key}-list" for key, _ in SAMPLER_LISTS]
       + ["data-seed-list", "sampler-seed-bool", "prior-poly_degree-bool"]
       + [f"{block}-{key}-unreadable" for _, block, key, _ in UNREADABLE]
       + [case for case, _, _, _ in UNNAMED])
    def test_malformed_value_exits_2(self, tmp_path, sim_dir, capsys, verb, block, key,
                                     value, extra):
        _, sim = sim_dir
        doc = base_config()
        if block is not None:
            doc[block][key] = value
        cfg = write_config(tmp_path, doc, "bad.yaml")
        out = str(tmp_path / "out")
        argv = (["simulate", "--config", cfg, "--out", out] if verb == "simulate" else
                ["run", "--config", cfg, "--data", str(sim / "data.json"), "--out", out])
        capsys.readouterr()
        assert cli.main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if (verb, block, key, value) in [*UNREADABLE, ("run", "prior", "poly_degree", "abc")]:
            assert f": {key} cannot be read as numbers:" in err
        for _, named_key, named_value, words in UNNAMED:
            if (block, key, value) == ("data", named_key, named_value):
                assert words in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_slice_width_exits_2_without_hanging(self, tmp_path, sim_dir, width):
        # a NaN width once passed `slice_width <= 0` and the run never ended;
        # in a subprocess so that a hang fails the test instead of the suite
        _, sim = sim_dir
        doc = base_config()
        doc["sampler"]["slice_width"] = width
        cfg = write_config(tmp_path, doc, "bad.yaml")
        src = os.path.dirname(os.path.dirname(pdgsbr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from pdgsbr import cli; sys.exit(cli.main())",
             "run", "--config", cfg, "--data", str(sim / "data.json"),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stderr.startswith("config error:"), done.stderr

    def test_null_block_reads_as_empty(self, tmp_path, monkeypatch):
        doc = base_config(outputs=None)
        doc["sampler"].update(iterations=40, burn_in=10)
        cfg = write_config(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert cli.main(["run", "--config", cfg, "--data", "out/data.json"]) == 0
        assert (tmp_path / "out" / "trace.jsonl").exists()

    def test_defaults_live_in_the_dataclasses(self):
        alpha = [[1.0, 2.0], [3.0, 4.0]]
        parsed = cli.parse_prior_block({"dirichlet_alpha": alpha}, 2)
        direct = PriorConfig(2, alpha)
        for field in dataclasses.fields(PriorConfig):
            np.testing.assert_array_equal(getattr(parsed, field.name),
                                          getattr(direct, field.name), err_msg=field.name)
        assert cli.parse_sampler_block({}) == GibbsConfig(**cli.DESK_SCALE)
        # values coerced to the field types keep checkpoint.json typed
        config = cli.parse_sampler_block({"slice_width": 1, "iterations": "100", "burn_in": 0})
        assert type(config.slice_width) is float and type(config.iterations) is int
        # YAML reads 1e-3, without a point, as a string
        assert cli.parse_prior_block({"dirichlet_alpha": alpha, "gamma_a": "1e-3"}, 2).gamma_a == 1e-3

    def test_unparsable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("data: [1, 2\nprior: {}\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse config")

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", ["4a", "4b", "4c"])
    def test_libyaml_reads_the_bundled_configs_as_pyyaml_does(self, name):
        text = importlib.resources.files("pdgsbr.configs").joinpath(f"{name}.yaml").read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_config_loads_without_libyaml(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, base_config())
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert cli.load_config(cfg) == base_config()
        assert cli.bundled_config("4A") == yaml.safe_load(
            importlib.resources.files("pdgsbr.configs").joinpath("4a.yaml").read_text())

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            cli.bundled_config("4D")

    def test_config_hash_is_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert cli.config_hash(a) == cli.config_hash(b)
        assert cli.config_hash(a) != cli.config_hash({"x": 2, "y": [1, 2]})

    def test_bad_selection_row_sum(self, tmp_path):
        doc = base_config()
        doc["data"]["selection"] = [[0.5, 0.4], [0.0, 1.0]]
        with pytest.raises(ConfigError):
            cli.parse_data_block(doc["data"])

    def test_alpha_shape_checked(self):
        doc = base_config()
        with pytest.raises(ConfigError):
            cli.parse_prior_block(doc["prior"], 3)


# a finite value outside each config field's declared domain; None where every
# finite value is inside
OUTSIDE = {
    "m": -1, "dirichlet_alpha": 0.0, "beta_a": -0.5, "beta_b": 0.0, "gamma_a": 0.0,
    "gamma_b": -1e-3, "poly_degree": -1, "horizon": 1.5, "x0_support": None,
    "iterations": -1, "burn_in": 2.5, "thinning": 0, "seed": 0.5, "slice_width": 0.0,
    "max_stepout": 0, "checkpoint_interval": -1,
}
CONFIGS = {PriorConfig: {"m": 2, "dirichlet_alpha": 1.0}, GibbsConfig: {"iterations": 10}}


class TestDeclaredDomains:
    def test_every_config_field_declares_a_domain(self):
        for config in CONFIGS:
            names = [f.name for f in dataclasses.fields(config) if "domain" not in f.metadata]
            assert names == [], f"{config.__name__} fields without a domain: {names}"

    @pytest.mark.parametrize("config, name, value", [
        (config, f.name, value) for config in CONFIGS for f in dataclasses.fields(config)
        for value in (math.nan, math.inf, -math.inf, OUTSIDE[f.name]) if value is not None
    ])
    def test_values_outside_the_domain_are_refused(self, config, name, value):
        with pytest.raises(ValueError, match=f"{name} holds"):
            config(**CONFIGS[config] | {name: value})

    @pytest.mark.parametrize("config, name", [
        (config, f.name) for config in CONFIGS for f in dataclasses.fields(config)
    ])
    def test_a_value_one_axis_deeper_is_refused(self, config, name):
        # a one-element list where a number is due once ran every sweep and then
        # failed writing the checkpoint
        deeper = [getattr(config(**CONFIGS[config]), name)]
        with pytest.raises(ValueError, match=f"{name} has shape"):
            config(**CONFIGS[config] | {name: deeper})

    def test_a_bool_is_refused(self):
        # a bool, bare or in a list, once read as 0 or 1: GibbsConfig(burn_in=True,
        # seed=False) gave burn_in 1 and seed 0
        for config, value in ((GibbsConfig, {"burn_in": True}), (GibbsConfig, {"seed": False}),
                              (PriorConfig, {"poly_degree": True}),
                              (PriorConfig, {"dirichlet_alpha": [[1, True], [1, 1]]}),
                              (PriorConfig, {"x0_support": [np.True_, 5.0]})):
            name, = value
            with pytest.raises(ValueError, match=f"{name} holds a bool where a number is expected"):
                config(**CONFIGS[config] | value)

    def test_whole_numbers_stay_exact(self):
        for seed in (2 ** 63 + 1, 2 ** 70 + 1, -2 ** 63 - 1, "9223372036854775809"):
            config = GibbsConfig(iterations=10, seed=seed)
            assert type(config.seed) is int and config.seed == int(seed)
