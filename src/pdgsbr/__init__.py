"""Pairwise dependent geometric stick-breaking reconstruction of random maps."""

__version__ = "0.1.0"

from .diagnostics import Hpdi, KdeGrid, boi, ergodic_average, hpdi, kde, pare, pare_table
from .distributions import RngHandle, slice_sample_1d
from .dynamics import (
    MultiSeries,
    NoiseMixtureSpec,
    as_map,
    compound_noise,
    eval_map,
    sample_noise,
    simulate_multi,
    simulate_series,
)
from .gibbs import (
    GibbsConfig,
    run_chain,
    run_parametric_gaussian,
    sweep,
)
from .model import (
    AtomTable,
    ChainState,
    PriorConfig,
    Trace,
    ensure_atoms,
    init_chain,
)
