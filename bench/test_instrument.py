"""Work counters on a hand-built state, and the traced replay against the
package's own sweep functions."""

import numpy as np
import pytest

from instrument import Tracer, alloc_cells, cap_hits, instrumented, precision_draws
from pdgsbr import cli, gibbs, model
from pdgsbr.model import Allocations, AtomTable, ChainState
from workloads import WORKLOADS


def hand_built_state():
    atoms = AtomTable(2)
    for (j, l), size in {(0, 0): 3, (0, 1): 5, (1, 1): 2}.items():
        for k in range(size):
            atoms.append(j, l, 1.0 + k)
    alloc = Allocations(
        delta=[np.array([0, 1, 1]), np.array([0, 1])],
        d=[np.array([1, 1, 2]), np.array([3, 1])],
        N=[np.array([1, 2, 3]), np.array([4, gibbs.SLICE_BOUND_CAP])],
    )
    return ChainState(atoms=atoms, alloc=alloc, p=np.full((2, 2), 0.5),
                      lam=np.full((2, 2), 0.5), theta=[np.zeros(6), np.zeros(6)],
                      x0=np.zeros(2), future=[np.zeros(1), np.zeros(1)])


def test_counters_on_a_hand_built_state():
    state = hand_built_state()
    # both series see a widest row of 5 atoms (the shared pair), m = 2
    cells, live = alloc_cells(state)
    assert cells == 3 * 2 * 5 + 2 * 2 * 5
    assert live == 2 * (1 + 2 + 3) + 2 * (4 + 5)
    assert cap_hits(state) == 1
    assert precision_draws(state) == 3 + 5 + 2


@pytest.mark.parametrize("name", ["4a-strong", "4a-parametric-h20"])
def test_traced_replay_reproduces_the_untraced_trace(name, tmp_path):
    workload = WORKLOADS[name]
    doc = workload.config()
    doc["sampler"].update(iterations=40, burn_in=10)
    data = cli.cmd_simulate(doc, tmp_path / "data")
    prior = cli.parse_prior_block(doc["prior"], data.m, alpha_key=workload.alpha_key)
    config = cli.parse_sampler_block(doc["sampler"], 7)
    untraced = cli.SAMPLERS[workload.sampler](data, prior, config)
    tracer = Tracer()
    with instrumented(tracer):
        traced = cli.SAMPLERS[workload.sampler](data, prior, config)
    model.write_trace_jsonl(tmp_path / "a.jsonl", untraced)
    model.write_trace_jsonl(tmp_path / "b.jsonl", traced)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert len(tracer.sweep_s) == 40
    assert tracer.calls["gibbs.theta"] == 40
    assert tracer.calls["distributions.draw_gamma"] >= tracer.precision_draws
    if workload.parametric:
        assert tracer.calls["gibbs.alloc_block"] == 0 and tracer.calls["gibbs.tau_common"] == 40
    else:
        assert tracer.calls["gibbs.alloc_block"] == 40 and len(tracer.nstar) == 40


def test_instrumented_restores_every_binding():
    before = (gibbs.sweep, gibbs.parametric_sweep, gibbs.draw_gamma, model.draw_gamma,
              cli.write_trace_jsonl, cli.kde)
    with instrumented(Tracer()):
        assert gibbs.sweep is not before[0] and cli.kde is not before[5]
    assert (gibbs.sweep, gibbs.parametric_sweep, gibbs.draw_gamma, model.draw_gamma,
            cli.write_trace_jsonl, cli.kde) == before
