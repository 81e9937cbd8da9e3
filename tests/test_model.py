import ast
import copy
import json
import logging
import math
import os
import pickle
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import loop_write_trace_csv, loop_write_trace_jsonl
from pdgsbr import model
from pdgsbr.distributions import RngHandle, draw_gamma
from pdgsbr.dynamics import NAMED_MAPS, MultiSeries, NoiseMixtureSpec, eval_map, simulate_multi
from pdgsbr.model import (
    Allocations,
    AtomTable,
    ChainState,
    INIT_SLICE_BOUND,
    PriorConfig,
    Trace,
    _root_start,
    ensure_atoms,
    init_chain,
    load_checkpoint,
    read_trace_jsonl,
    save_checkpoint,
    write_trace_jsonl,
)


def small_prior(m=2, **kw):
    defaults = dict(
        m=m,
        dirichlet_alpha=np.full((m, m), 1.0),
        beta_a=np.full((m, m), 0.5),
        beta_b=np.full((m, m), 0.5),
    )
    defaults.update(kw)
    return PriorConfig(**defaults)


def small_data(m=2, n=40, seed=5):
    specs = [
        (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-4,)), n, 0.5 + 0.1 * j)
        for j in range(m)
    ]
    return simulate_multi(specs, [1] * m, RngHandle(seed))


class TestPriorConfig:
    def test_broadcasting_and_defaults(self):
        prior = small_prior(m=3)
        assert prior.dirichlet_alpha.shape == (3, 3)
        assert prior.beta_a.shape == (3, 3)
        assert list(prior.horizon) == [1, 1, 1]
        assert np.array_equal(prior.x0_support, np.tile([-5.0, 5.0], (3, 1)))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            small_prior(dirichlet_alpha=np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_asymmetric_beta(self):
        with pytest.raises(ValueError):
            small_prior(beta_a=np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            small_prior(horizon=np.array([-1, 1]))


class TestAtomTable:
    def test_shared_storage_across_orderings(self):
        table = AtomTable(3)
        table.append(2, 0, 7.0)
        assert table.index[0, 2] == table.index[2, 0]
        assert table.values[table.index[0, 2], 0] == 7.0
        table.values[table.index[0, 2], 0] = 9.0
        assert table.values[table.index[2]][0, 0] == 9.0
        assert table.values[table.index[0]][2, 0] == 9.0
        assert table.size(1, 1) == 0 and table.size(2, 0) == 1

    def test_pairs_are_unordered_upper_triangle(self):
        table = AtomTable(3)
        assert table.pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert [table.index[j, l] for j, l in table.pairs()] == list(range(6))
        assert np.array_equal(table.index, table.index.T)

    def test_rejects_nonpositive_precision(self):
        table = AtomTable(2)
        with pytest.raises(ValueError):
            table.append(0, 1, 0.0)
        with pytest.raises(ValueError):
            AtomTable(2, [[1.0], [-1.0], [2.0]])
        with pytest.raises(ValueError):
            AtomTable(2, [[1.0], [2.0]])  # three pairs need three rows
        with pytest.raises(ValueError):
            AtomTable(2, [1.0, 2.0, 3.0])

    def test_dict_roundtrip(self):
        # the checkpoint stores the (P, K) array as nested lists
        table = AtomTable(2, [[1.5, 0.5], [2.5, 4.0], [3.5, 1.0]])
        back = AtomTable(2, json.loads(json.dumps(table.values.tolist())))
        assert np.array_equal(back.values, table.values)
        assert back.values[back.index[1]][0, 0] == 2.5
        assert back.max_size() == 2

    def test_max_size(self):
        table = AtomTable(2)
        for v in (1.0, 2.0, 3.0):
            table.append(0, 1, v)
        table.append(0, 0, 1.0)
        assert table.max_size() == 3
        assert [table.size(j, l) for j, l in table.pairs()] == [1, 3, 0]
        assert np.array_equal(table.values[table.index[1]][0], [1.0, 2.0, 3.0])
        # a hand-built ragged row is NaN beyond its own atoms
        assert np.array_equal(table.values[table.index[0]][0], [1.0, np.nan, np.nan],
                              equal_nan=True)


class TestEnsureAtoms:
    def test_grows_all_pairs_to_slice_bound(self):
        data = small_data()
        prior = small_prior()
        rng = RngHandle(1)
        state = init_chain(data, prior, rng)
        state.alloc.N[0][3] = INIT_SLICE_BOUND + 3
        state.alloc.d[0][3] = INIT_SLICE_BOUND + 3
        ensure_atoms(state, prior, rng)
        for j, l in state.atoms.pairs():
            assert state.atoms.size(j, l) == INIT_SLICE_BOUND + 3
        assert np.all(state.atoms.values > 0)

    def test_fresh_atoms_fill_rows_in_pair_order(self):
        # kept atoms stay; missing ones are drawn pair by pair, k ascending
        data, prior = small_data(), small_prior()
        rng = RngHandle(1)
        state = init_chain(data, prior, rng)
        kept = state.atoms.values.copy()
        state.alloc.N[1][0] = INIT_SLICE_BOUND + 2
        twin = RngHandle.from_state(rng.get_state())
        ensure_atoms(state, prior, rng)
        fresh = [draw_gamma(prior.gamma_a, prior.gamma_b, twin) for _ in range(3 * 2)]
        assert np.array_equal(state.atoms.values[:, :INIT_SLICE_BOUND], kept)
        assert np.array_equal(state.atoms.values[:, INIT_SLICE_BOUND:],
                              np.reshape(fresh, (3, 2)))

    def test_trims_unused_atoms(self):
        data, prior = small_data(), small_prior()
        rng = RngHandle(1)
        state = init_chain(data, prior, rng)
        for j in range(2):
            state.alloc.N[j][:] = 2
            state.alloc.d[j][:] = 1
        ensure_atoms(state, prior, rng)
        for j, l in state.atoms.pairs():
            assert state.atoms.size(j, l) == 2

    def test_growth_is_reproducible(self):
        data, prior = small_data(), small_prior()
        states = []
        for _ in range(2):
            rng = RngHandle(9)
            state = init_chain(data, prior, rng)
            state.alloc.N[1][0] = 4
            ensure_atoms(state, prior, rng)
            states.append(state)
        assert np.array_equal(states[0].atoms.values, states[1].atoms.values)


class TestInitChain:
    def test_state_invariants(self, caplog):
        data, prior = small_data(), small_prior()
        with caplog.at_level(logging.WARNING, logger="pdgsbr.model"):
            state = init_chain(data, prior, RngHandle(2))
        assert not caplog.records  # no singular start
        assert state.m == 2
        assert np.allclose(state.p.sum(axis=1), 1.0)
        assert np.allclose(state.lam, state.lam.T)
        assert np.all((state.lam > 0) & (state.lam < 1))
        for j in range(2):
            total = data.lengths[j] + 1
            assert state.alloc.delta[j].size == total
            assert np.all((state.alloc.d[j] >= 1) & (state.alloc.d[j] <= INIT_SLICE_BOUND))
            assert np.all(state.alloc.N[j] == INIT_SLICE_BOUND)
            assert np.all(state.alloc.d[j] <= state.alloc.N[j])
            assert state.future[j].size == 1
        # each x0 starts at a root of g_j(x0) = x_{j1}, a mode of its full conditional
        starts = [eval_map(state.theta[j], state.x0[j]) for j in range(2)]
        assert np.allclose(starts, [s[0] for s in data.series], atol=1e-9)

    def test_x0_starts_at_the_root_nearest_x1(self):
        # g(x) = x^3 - 3x meets x1 = 0 at 0 and +/- sqrt(3), and x1 = 1.5 at
        # about -1.38, -0.56 and 1.94
        cubic = (0.0, -3.0, 0.0, 1.0)
        assert _root_start(cubic, 0.0, -5.0, 5.0) == pytest.approx(0.0, abs=1e-12)
        assert _root_start(cubic, 0.0, 1.0, 5.0) == pytest.approx(math.sqrt(3.0))
        start = _root_start(cubic, 1.5, -5.0, 5.0)
        assert start == pytest.approx(1.9422, abs=1e-4)
        assert start ** 3 - 3.0 * start == pytest.approx(1.5)
        # no root in the support, or a constant map: start at x1 itself
        assert _root_start(cubic, 0.0, 2.0, 5.0) == 0.0
        assert _root_start((0.0, 0.0), 0.4, -5.0, 5.0) == 0.4

    def test_least_squares_start_recovers_clean_orbit(self):
        # oracle: with near-noiseless data the quintic fit of x_{i+1} on x_i
        # must land close to the generating coefficients
        data = small_data(m=1, n=120, seed=3)
        prior = small_prior(m=1)
        state = init_chain(data, prior, RngHandle(4))
        truth = np.asarray(NAMED_MAPS["Q1"])
        assert np.max(np.abs(state.theta[0] - truth)) < 0.5

    def test_singular_design_falls_back_to_zero(self, caplog):
        # a constant series gives a rank-1 Vandermonde matrix
        data = MultiSeries(series=[np.full(30, 0.7)])
        prior = small_prior(m=1)
        with caplog.at_level(logging.WARNING, logger="pdgsbr.model"):
            state = init_chain(data, prior, RngHandle(4))
        assert [r.getMessage() for r in caplog.records] == [
            "series 1: singular least-squares start; theta starts at 0"]
        assert np.array_equal(state.theta[0], np.zeros(6))

    def test_future_starts_inside_the_state_support(self):
        # x_{i+1} = 2 x_i: the fitted orbit from 0.64 runs 1.28, 2.56, 5.12;
        # 5.12 leaves [-5, 5], so that point restarts at the last observation
        data = MultiSeries(series=[0.01 * 2.0 ** np.arange(7)])
        prior = small_prior(m=1, poly_degree=1, horizon=[4])
        state = init_chain(data, prior, RngHandle(4))
        assert state.future[0] == pytest.approx([1.28, 2.56, 0.64, 1.28])

    def test_prior_data_mismatch(self):
        with pytest.raises(ValueError):
            init_chain(small_data(m=2), small_prior(m=3), RngHandle(0))


class TestCheckpoint:
    def test_roundtrip_preserves_state_and_stream(self, tmp_path):
        data, prior = small_data(), small_prior()
        rng = RngHandle(6)
        state = init_chain(data, prior, rng)
        state.alloc.N[0][0] = 13  # above the starting bound: the atom rows grow
        ensure_atoms(state, prior, rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, rng, extra={"config_hash": "abc"})
        back, rng_back, doc = load_checkpoint(path, data, prior)
        assert doc["config_hash"] == "abc"
        assert back.iteration == state.iteration
        assert np.array_equal(back.p, state.p)
        assert np.array_equal(back.lam, state.lam)
        for j in range(2):
            assert np.array_equal(back.theta[j], state.theta[j])
            assert np.array_equal(back.alloc.delta[j], state.alloc.delta[j])
            assert np.array_equal(back.alloc.N[j], state.alloc.N[j])
        assert np.array_equal(back.atoms.values, state.atoms.values)
        assert np.array_equal(back.atoms.index, state.atoms.index)
        # the restored generator continues the exact stream
        assert rng_back.generator.random() == rng.generator.random()

    def test_checkpoint_with_a_dropped_key_still_loads(self, tmp_path):
        # checkpoints once carried a per-series "init_fallback" flag list
        data, prior = small_data(), small_prior()
        rng = RngHandle(6)
        state = init_chain(data, prior, rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, rng)
        doc = json.loads(path.read_text())
        doc["state"]["init_fallback"] = [False, True]
        path.write_text(json.dumps(doc))
        back, _, _ = load_checkpoint(path, data, prior)
        assert back.to_dict() == state.to_dict()
        assert "init_fallback" not in back.to_dict()

    def test_interrupted_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        data, prior = small_data(), small_prior()
        rng = RngHandle(6)
        state = init_chain(data, prior, rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, rng)
        before = path.read_bytes()

        def killed_mid_write(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)

            def write(text):
                type(fh).write(fh, text[: len(text) // 2])
                raise RuntimeError("killed")

            fh.write = write
            return fh

        monkeypatch.setattr(model, "open", killed_mid_write, raising=False)
        state.iteration = 7
        with pytest.raises(RuntimeError):
            save_checkpoint(path, state, rng)
        assert path.read_bytes() == before


class TestOneWriter:
    def test_every_file_goes_through_the_one_writer(self):
        # a new output written any other way could leave a part-file that reads as valid
        package = Path(model.__file__).parent
        writers = {("json", "dump"), ("csv", "writer"), ("csv", "DictWriter"), ("np", "savetxt")}
        found = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            writer = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "atomic_write":
                    assert path.name == "model.py"
                    writer = {id(inner) for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if id(node) in writer:
                    continue
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                        node.value.id, node.attr) in writers:
                    found.append(f"{where} {node.value.id}.{node.attr}")
                if isinstance(node, ast.ImportFrom) and any(
                        (node.module, alias.name) in writers for alias in node.names):
                    found.append(f"{where} from {node.module} import")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
                    found.append(f"{where} .{name}()")  # pathlib's writers
                if name == "open":
                    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                    if any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
                           for mode in modes):
                        found.append(f"{where} open() to write")
        assert found == []

    def test_a_path_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        # as os.devnull is: renaming a temp file over it would replace the device
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            model.write_text(fifo, "through the pipe\n")
            assert os.read(reader, 100) == b"through the pipe\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]


def write_trace_csv(path, trace):
    write_trace_jsonl(os.devnull, trace, csv_path=path)


class TestTraceIO:
    def make_rows(self, n=4):
        return [
            {
                "iteration": i,
                "theta": [np.arange(3.0) + i, np.arange(3.0) - i],
                "p": np.array([[0.6, 0.4], [0.3, 0.7]]),
                "lam": np.array([[0.5, 0.2], [0.2, 0.8]]),
                "x0": np.array([0.1, -0.2]),
                "future": [np.array([1.0 + i]), np.array([2.0])],
                "z_pred": np.array([0.01, -0.02]),
                "n_star": 3,
            }
            for i in range(n)
        ]

    def make_trace(self, n=4):
        return Trace.stack(self.make_rows(n))

    def test_csv_columns_are_stable_and_exact(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "iteration"
        assert "theta_1_0" in header and "theta_2_2" in header
        assert "p_1_2" in header and "lam_1_2" in header and "lam_2_1" not in header
        assert "x0_1" in header and "future_1_1" in header and "z_pred_2" in header
        assert "n_star" in header and not any(h.startswith("K_") for h in header)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        col = header.index("theta_1_1")
        # theta[0] = arange(3) + i, so coefficient 1 of series 1 walks 1,2,3,4
        assert np.array_equal(body[:, col], [1.0, 2.0, 3.0, 4.0])

    def test_empty_trace_rejected(self, tmp_path):
        # the JSONL writer once wrote an empty file for an empty trace
        with pytest.raises(ValueError, match="empty trace"):
            Trace.stack([])
        (tmp_path / "empty.jsonl").write_text("\n")
        with pytest.raises(ValueError, match="empty trace"):
            read_trace_jsonl(tmp_path / "empty.jsonl")

    @pytest.mark.parametrize("field, value", [
        ("iteration", 31.7), ("n_star", 2.9), ("n_star", math.inf), ("iteration", math.nan),
    ])
    def test_fractional_counts_rejected(self, field, value):
        # iteration and n_star are counts: a fraction was once truncated silently
        rows = self.make_rows(2)
        rows[1][field] = value
        with pytest.raises(ValueError, match=f"{field} holds {value!r}"):
            Trace.stack(rows)

    @pytest.mark.parametrize("field, value, kind", [
        ("iteration", "31", "str"), ("theta", [["0.1", "2e3", "1"], [0.0, 1.0, 2.0]], "str"),
        ("z_pred", [True, 0.5], "bool"), ("n_star", False, "bool"), ("x0", [0.1, None], "NoneType"),
    ])
    def test_values_that_are_not_numbers_rejected(self, field, value, kind):
        # a JSON string or boolean was once read as the number it spells
        rows = self.make_rows(2)
        rows[1][field] = value
        with pytest.raises(ValueError, match=f"{field} holds a {kind} where a number"):
            Trace.stack(rows)

    def test_a_string_common_precision_rejected(self):
        rows = [dict(row, p=None, lam=None, n_star=None, tau_common=2.5)
                for row in self.make_rows(2)]
        Trace.stack(rows)
        rows[0]["tau_common"] = "2.5"
        with pytest.raises(ValueError, match="tau_common holds a str"):
            Trace.stack(rows)

    def test_whole_float_counts_load(self):
        rows = self.make_rows(2)
        rows[1].update(iteration=1.0, n_star=3.0)
        trace = Trace.stack(rows)
        assert trace.iteration.dtype.kind == "i" and trace.n_star.dtype.kind == "i"
        assert trace.iteration.tolist() == [0, 1] and trace.n_star.tolist() == [3, 3]

    def test_parametric_record_omits_mixture_blocks(self, tmp_path):
        trace = Trace.stack([{
            "iteration": 0, "theta": [np.zeros(2)], "p": None, "lam": None,
            "x0": np.array([0.0]), "future": [np.array([1.0])],
            "z_pred": np.array([0.0]), "tau_common": 2.5,
        }])
        write_trace_jsonl(tmp_path / "t.jsonl", trace, csv_path=tmp_path / "t.csv")
        header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
        assert "tau" in header and not any(k.startswith(("p_", "lam_", "n_star")) for k in header)
        back = read_trace_jsonl(tmp_path / "t.jsonl")[0]
        assert back.p is None and back.n_star is None and back.tau_common == 2.5

    def test_without_csv_path_one_file_is_written(self, tmp_path):
        write_trace_jsonl(tmp_path / "trace.jsonl", self.make_trace())
        assert os.listdir(tmp_path) == ["trace.jsonl"]
        assert len(read_trace_jsonl(tmp_path / "trace.jsonl")) == 4

    def test_records_are_views_of_the_columns(self):
        trace = self.make_trace()
        assert len(trace) == 4 and len(list(trace)) == 4
        record = trace[2]
        assert record.iteration == 2 and record.n_star == 3 and record.tau_common is None
        assert np.shares_memory(record.theta, trace.theta)
        assert np.array_equal(record.theta[0], [2.0, 3.0, 4.0])
        assert np.array_equal(record.future[0], [3.0])
        assert np.array_equal(trace[-1].x0, trace.x0[3])


# floats whose text is easy to get wrong, mixed with arbitrary ones
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def trace_records(draw):
    """The rows of a short trace of one chain, each a dict of the Trace
    fields: m = 1-3 series, mixture or parametric, horizons all 0, all 1 or
    ragged (0, 3, 0, ...)."""
    m = draw(st.integers(1, 3))
    parametric = draw(st.booleans())
    horizons = draw(st.sampled_from([(0,), (1,), (0, 3)]))
    coefficients = draw(st.integers(1, 4))

    def floats(*shape):
        return np.array(draw(st.lists(EDGE_FLOATS, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    return [
        {
            "iteration": draw(st.integers(0, 10 ** 6)),
            "theta": [floats(coefficients) for _ in range(m)],
            "p": None if parametric else floats(m, m),
            "lam": None if parametric else floats(m, m),
            "x0": floats(m),
            "future": [floats(horizons[j % len(horizons)]) for j in range(m)],
            "z_pred": floats(m),
            "n_star": None if parametric else draw(st.integers(1, 2000)),
            "tau_common": draw(EDGE_FLOATS) if parametric else None,
        }
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestTraceWritersMatchTheRecordLoop:
    """The stacked trace writers give the bytes of the former per-record
    writers (tests/oracle.py): csv.DictWriter over the flat columns, and
    json.dumps of each record's fields."""

    @settings(max_examples=150, deadline=None)
    @given(trace_records())
    def test_same_bytes(self, rows):
        trace = Trace.stack(rows)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for write, loop_write, name in ((write_trace_csv, loop_write_trace_csv, "trace.csv"),
                                            (write_trace_jsonl, loop_write_trace_jsonl,
                                             "trace.jsonl")):
                write(tmp / name, trace)
                loop_write(tmp / f"loop_{name}", rows)
                assert (tmp / name).read_bytes() == (tmp / f"loop_{name}").read_bytes()


class TestOneCallTraceWriter:
    @settings(max_examples=150, deadline=None)
    @given(trace_records())
    def test_both_files_match_the_record_loop(self, rows):
        # one rendering feeds both files; each must keep its own writer's bytes
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_trace_jsonl(tmp / "trace.jsonl", Trace.stack(rows), csv_path=tmp / "trace.csv")
            loop_write_trace_jsonl(tmp / "loop.jsonl", rows)
            loop_write_trace_csv(tmp / "loop.csv", rows)
            assert (tmp / "trace.jsonl").read_bytes() == (tmp / "loop.jsonl").read_bytes()
            assert (tmp / "trace.csv").read_bytes() == (tmp / "loop.csv").read_bytes()


class TestTraceRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(trace_records())
    def test_read_gives_back_every_column(self, rows):
        trace = Trace.stack(rows)
        with tempfile.TemporaryDirectory() as tmp:
            write_trace_jsonl(Path(tmp) / "trace.jsonl", trace)
            back = read_trace_jsonl(Path(tmp) / "trace.jsonl")
        for name in ("iteration", "theta", "p", "lam", "x0", "future", "z_pred",
                     "n_star", "tau_common"):
            got, expected = getattr(back, name), getattr(trace, name)
            if expected is None:
                assert got is None
                continue
            if name == "future":
                assert len(got) == len(expected)
            for a, b in zip(got, expected) if name == "future" else [(got, expected)]:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b, equal_nan=True)
        assert back.iteration.dtype.kind == "i"
        assert back.n_star is None or back.n_star.dtype.kind == "i"


class TestAllocations:
    def test_slice_constraint_enforced(self):
        alloc = Allocations(
            delta=[np.zeros(3, dtype=int)],
            d=[np.array([2, 1, 1])],
            N=[np.array([1, 1, 1])],
        )
        with pytest.raises(ValueError):
            alloc.validate(1)

    def test_measure_label_range(self):
        alloc = Allocations(
            delta=[np.array([0, 2, 0])],
            d=[np.ones(3, dtype=int)],
            N=[np.ones(3, dtype=int)],
        )
        with pytest.raises(ValueError):
            alloc.validate(2)

    @staticmethod
    def three_series():
        return Allocations(delta=[np.array([0, 1]), np.array([2]), np.array([1, 0, 2])],
                           d=[np.array([1, 2]), np.array([1]), np.array([3, 1, 2])],
                           N=[np.array([1, 2]), np.array([4]), np.array([3, 5, 2])])

    def test_flat_layout(self):
        alloc = self.three_series()
        assert alloc.flat.shape == (3, 6)
        assert alloc.series.tolist() == [0, 0, 1, 2, 2, 2]
        assert alloc.first.tolist() == [0, 2, 3]
        assert alloc.flat[2].tolist() == [1, 2, 4, 3, 5, 2]
        with pytest.raises(ValueError, match="same size"):
            Allocations(delta=[np.zeros(2)], d=[np.ones(2)], N=[np.ones(3)])

    def test_writes_through_the_views_show_in_flat(self):
        alloc = self.three_series()
        assert alloc.bounds == [(0, 2), (2, 3), (3, 6)]
        assert all(view.base is alloc.flat for row in (alloc.delta, alloc.d, alloc.N)
                   for view in row)
        alloc.N[2][:] = 7
        alloc.d[0][1] = 5
        assert alloc.flat[2].tolist() == [1, 2, 4, 7, 7, 7]
        assert alloc.flat[1].tolist() == [1, 5, 1, 3, 1, 2]
        with pytest.raises(TypeError):  # a tuple cannot be rebound, so no write goes nowhere
            alloc.N[0] = np.array([9, 9])

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))])
    def test_a_copy_has_its_own_views(self, duplicate):
        alloc = self.three_series()
        twin = duplicate(alloc)
        twin.N[1][:] = 9
        twin.flat[0, 0] = 2
        assert twin.flat[2, 2] == 9 and twin.delta[0][0] == 2
        assert alloc.flat[2, 2] == 4 and alloc.delta[0][0] == 0
        assert all(view.base is twin.flat for view in twin.N)

    @pytest.mark.parametrize("row, index, value, message", [
        ("d", (2, 1), 6, "slice constraint d <= N violated in series 2"),
        ("d", (1, 0), 0, "slice constraint d <= N violated in series 1"),
        ("delta", (2, 2), 3, "measure label out of range in series 2"),
        ("delta", (0, 1), -1, "measure label out of range in series 0"),
    ])
    def test_validate_names_the_series(self, row, index, value, message):
        alloc = self.three_series()
        alloc.validate(3)
        j, i = index
        getattr(alloc, row)[j][i] = value
        with pytest.raises(ValueError, match=message):
            alloc.validate(3)

    @pytest.mark.parametrize("row, value, message", [
        ("N", 2.7, "N holds 2.7 where a whole number"), ("delta", "1", "delta holds a str"),
        ("d", True, "d holds a bool"),
    ])
    def test_from_dict_refuses_fractions_and_non_numbers(self, row, value, message):
        # each once loaded as the label it truncates to or spells
        doc = {"delta": [[0, 1]], "d": [[1, 1]], "N": [[2, 1]]}
        doc[row][0][0] = value
        with pytest.raises(ValueError, match=message):
            Allocations.from_dict(doc, [2])

    def test_dict_round_trip(self):
        data, prior = small_data(), small_prior()
        state = init_chain(data, prior, RngHandle(2))
        doc = json.loads(json.dumps(state.to_dict()))
        assert set(doc["alloc"]) == {"delta", "d", "N"}
        assert [len(a) for a in doc["alloc"]["N"]] == [a.size for a in state.alloc.N]
        back = Allocations.from_dict(doc["alloc"], [a.size for a in state.alloc.N])
        assert np.array_equal(back.flat, state.alloc.flat) and back.flat.dtype.kind == "i"
        assert np.array_equal(back.series, state.alloc.series)
        assert np.array_equal(back.first, state.alloc.first)
