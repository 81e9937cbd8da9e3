"""The benchmark's metrics, assembled from one run's chains and spans.

Names, units and directions match BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

import numpy as np

from ess import bulk_ess
from instrument import MIXTURE_KERNELS, SHARED_KERNELS, Tracer
from workloads import SWEEPS

ESS_QUANTITIES = ("theta_short", "boi_short", "future_short")


def ess_series(records, short: int, donors) -> dict:
    """The short series' theta, borrowing index and first future, per record."""
    series = {
        "theta_short": np.asarray([r.theta[short] for r in records]),
        "future_short": np.asarray([r.future[short][0] for r in records]),
    }
    if records[0].p is not None:
        series["boi_short"] = np.asarray([r.p[short, donors].sum() for r in records])
    return series


def pooled_ess(chains: list) -> dict:
    """Bulk ESS over all chains; theta takes its lowest-ESS coefficient."""
    out = {}
    for name in ESS_QUANTITIES:
        if not chains or name not in chains[0]:
            continue
        stacked = np.stack([c[name] for c in chains])
        if stacked.ndim == 3:
            out[name] = min(bulk_ess(stacked[:, :, r]) for r in range(stacked.shape[2]))
        else:
            out[name] = bulk_ess(stacked)
    return out


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def end_to_end(ok: list, setup: list) -> dict:
    """The median set-up and the good chains' interquartile means, in
    calibrated seconds.

    Chain figures drop the slowest and fastest quarter of chains: on
    4c-strong a fifth to a third of the chains hit N* spikes and take up to
    twice as long as the rest (the spikes show in gibbs.sweep_ms.p99). The
    middle half steadies faster than a median of the same chains.
    """
    metrics = {"setup_s": (statistics.median(setup), "s")}
    if ok:
        metrics.update(
            sweeps_per_s=(interquartile_mean(SWEEPS / c["chain_s"] for c in ok), "1/s"),
            run_s=(interquartile_mean(c["run_s"] for c in ok), "s"),
            report_s=(interquartile_mean(c["report_s"] for c in ok), "s"),
        )
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer: Tracer, factor: float, ok: list, ess: dict,
              first_s: tuple, failed_ratio: float) -> dict:
    """Span totals divided by the run's host slowdown ``factor``.

    ``first_s`` holds the first chain's calibrated (traced, untraced) seconds.
    """
    sweeps = max(len(tracer.sweep_s), 1)
    calls = tracer.calls
    seconds = defaultdict(float, {name: s / factor for name, s in tracer.seconds.items()})
    reports = max(calls["model.read_trace_jsonl"], 1)

    def mean_s(name):
        return seconds[name] / calls[name] if calls[name] else 0.0

    metrics = {}
    for kernel in MIXTURE_KERNELS + SHARED_KERNELS:
        metrics[f"gibbs.{kernel}.ms_per_sweep"] = (1e3 * seconds[f"gibbs.{kernel}"] / sweeps, "ms")
    p50, p99 = np.percentile(tracer.sweep_s, [50, 99]) if tracer.sweep_s else (0.0, 0.0)
    metrics["gibbs.sweep_ms.p50"] = (1e3 * float(p50) / factor, "ms")
    metrics["gibbs.sweep_ms.p99"] = (1e3 * float(p99) / factor, "ms")
    nstar = tracer.nstar or [0]
    metrics["gibbs.nstar.mean"] = (float(np.mean(nstar)), "count")
    metrics["gibbs.nstar.max"] = (float(max(nstar)), "count")
    metrics["gibbs.cap_hits"] = (float(tracer.cap_hits), "count")
    metrics["gibbs.alloc_block.cells_per_sweep"] = (tracer.cells / sweeps, "count")
    metrics["gibbs.alloc_block.live_fraction"] = (
        tracer.live / tracer.cells if tracer.cells else 0.0, "1")
    ksweeps = len(ok) * SWEEPS / 1e3
    traced_s, untraced_s = first_s
    untraced_rate = SWEEPS / untraced_s if untraced_s else 0.0
    for name in ESS_QUANTITIES:
        per_ksweep = ess.get(name, 0.0) / ksweeps if ksweeps else 0.0
        metrics[f"gibbs.ess_per_ksweep.{name}"] = (per_ksweep, "1/ksweep")
        metrics[f"ess_per_s.{name}"] = (per_ksweep * untraced_rate / 1e3, "1/s")
    metrics["distributions.draw_gamma.calls_per_sweep"] = (
        calls["distributions.draw_gamma"] / sweeps, "count")
    for name, layer in (("slice_sample_1d", "distributions"), ("eval_map", "dynamics")):
        metrics[f"{layer}.{name}.calls_per_sweep"] = (calls[f"{layer}.{name}"] / sweeps, "count")
        metrics[f"{layer}.{name}.ms_per_sweep"] = (1e3 * seconds[f"{layer}.{name}"] / sweeps, "ms")
    metrics["dynamics.simulate_s"] = (seconds["dynamics.simulate_series"], "s")
    metrics["model.init_chain_s"] = (mean_s("model.init_chain"), "s")
    metrics["model.write_trace_jsonl_s"] = (mean_s("model.write_trace_jsonl"), "s")
    metrics["model.write_trace_csv_s"] = (mean_s("model.write_trace_csv"), "s")
    metrics["model.trace_bytes_per_record"] = (
        statistics.mean(c["bytes_per_record"] for c in ok) if ok else 0.0, "B")
    metrics["model.save_checkpoint_ms"] = (1e3 * mean_s("model.save_checkpoint"), "ms")
    metrics["model.checkpoint_bytes"] = (
        statistics.mean(c["checkpoint_bytes"] for c in ok) if ok else 0.0, "B")
    metrics["model.read_trace_jsonl_s"] = (mean_s("model.read_trace_jsonl"), "s")
    for name, fn in (("kde_s", "kde"), ("pare_table_s", "pare_table"), ("hpdi_s", "hpdi"),
                     ("ergodic_s", "ergodic_average")):
        metrics[f"diagnostics.{name}"] = (seconds[f"diagnostics.{fn}"] / reports, "s")
    metrics["tracing.overhead"] = (traced_s / untraced_s if untraced_s else 0.0, "1")
    metrics["failed_ratio"] = (failed_ratio, "1")
    return metrics
