"""The benchmark's workloads and the inputs it generates for them.

Each workload starts from a bundled experiment config with its pinned data
seed. The benchmark seed only chooses the chain seeds, so two seeds give two
disjoint sets of chains over the same data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from pdgsbr.cli import bundled_config

# Fewest chains a run pools, whatever --seconds asks for: split-chain ESS
# needs several chains to see between-chain disagreement.
MIN_CHAINS = 3
# Chains per second of --seconds, see Workload.chain_count.
CHAINS_PER_S = 2.0
# Every chain's length: fixed, so both commits of a comparison run the same work.
SWEEPS = 400
BURN_IN = 200


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # bundled config it starts from
    sampler: str  # key of cli.SAMPLERS
    alpha_key: str  # selection prior used by `run`
    donor_pare_bound: float  # loose recovery check on the donors' mean PARE (%)
    horizon: Optional[int] = None  # regenerate the data with this horizon per series
    checkpoint_interval: int = 0

    @property
    def parametric(self) -> bool:
        return self.sampler == "parametric"

    def chain_count(self, seconds: float) -> int:
        """Chains per run, from --seconds alone.

        It depends on nothing measured, so both commits of a comparison run
        the same chains. A chain's cost varies by about 20 % (interquartile
        range over median) between chain seeds, at any chain length from 250
        to 2 000 sweeps: it depends on the modes the chain settles in. So a
        run pools many short chains rather than a few long ones.
        """
        return max(MIN_CHAINS, round(seconds * CHAINS_PER_S))

    def chain_seeds(self, seed: int, count: int) -> list:
        index = list(WORKLOADS).index(self.name)
        state = np.random.SeedSequence([int(seed), index]).generate_state(count)
        return [int(s) for s in state]

    def config(self) -> dict:
        """The experiment config the chains run under."""
        doc = copy.deepcopy(bundled_config(self.experiment))
        if self.horizon is not None:
            horizons = [self.horizon] * len(doc["data"]["maps"])
            doc["data"]["horizon"] = horizons
            doc["prior"]["horizon"] = horizons
        doc["sampler"].update(iterations=SWEEPS, burn_in=BURN_IN, thinning=1,
                              checkpoint_interval=self.checkpoint_interval)
        return doc


# Why each workload was chosen is in BENCHMARK.json and README.md. The donor
# PARE bounds are about twice the worst chain at the seed commit: of eight
# 1 000-sweep chains on 4a-strong and 4a-parametric-h20, of about 1 000
# 400-sweep chains on 4c-strong.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="4a-strong", experiment="4a", sampler="pdgsbr",
        alpha_key="dirichlet_alpha_strong", donor_pare_bound=10.0,
    ),
    Workload(
        name="4c-strong", experiment="4c", sampler="pdgsbr",
        alpha_key="dirichlet_alpha_strong", donor_pare_bound=7.5, checkpoint_interval=100,
    ),
    Workload(
        name="4a-parametric-h20", experiment="4a", sampler="parametric",
        alpha_key="dirichlet_alpha", donor_pare_bound=25.0, horizon=20,
    ),
)}
