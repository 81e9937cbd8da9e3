"""Benchmark of the pdgsbr sampler, driven the way `pdgsbr run` and
`pdgsbr report` users drive it.

Usage:
    python3 bench/run_bench.py --workload 4a-strong --seed 1 --seconds 12 --trace 0

One run simulates the workload's data, then runs a fixed number of chains,
one after another in this process: each chain is one ``cli.cmd_run`` (chain,
trace files, checkpoints, manifest) followed by ``cli.cmd_report`` on its
trace. Every chain's output is checked. Times are calibrated against the
host's speed (calibrate.py). With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a run routed through
``instrument.instrumented``. The last stdout line is the result object; the
line before it records the environment, the chain seeds, the raw timings and
the SHA-256 of the first chain's trace. See README.md in this directory.
"""

from __future__ import annotations

import env

env.prepare()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import Calibrator, calibrated  # noqa: E402
from instrument import Tracer, instrumented  # noqa: E402
from metrics import end_to_end, ess_series, per_layer, pooled_ess  # noqa: E402
from pdgsbr import cli, model  # noqa: E402
from pdgsbr.dynamics import MultiSeries  # noqa: E402
from workloads import BURN_IN, SWEEPS, WORKLOADS  # noqa: E402

WORK_ROOT = env.ROOT / ".bench_work"
SETUP_EVERY = 3  # a set-up probe before every third chain
REPORT_TICKS = 25
REPORT_REPEATS = 2
PROBE = Path(__file__).with_name("setup_probe.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def measure_setup(workload, out: Path, seed: int) -> float:
    """Wall seconds of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(PROBE), workload.name, str(out), str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


@contextmanager
def timed_sampler(name: str, seconds: list):
    """Time the chain call inside cmd_run by wrapping its cli.SAMPLERS entry."""
    original = cli.SAMPLERS[name]

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        seconds.append(perf_counter() - start)
        return result

    cli.SAMPLERS[name] = timed
    try:
        yield
    finally:
        cli.SAMPLERS[name] = original


# --- output checks ---------------------------------------------------------------

def record_problems(records, expected: int, parametric: bool) -> list:
    """Every retained record must be a valid state of the model."""
    if len(records) != expected:
        return [f"{len(records)} records, expected {expected}"]
    for r in records:
        where = f"sweep {r.iteration}"
        if not (all(np.all(np.isfinite(t)) for t in r.theta)
                and np.all(np.isfinite(r.z_pred))
                and all(np.all(np.isfinite(f)) for f in r.future)):
            return [f"{where}: non-finite theta, z or future"]
        if parametric:
            if not (np.isfinite(r.tau_common) and r.tau_common > 0):
                return [f"{where}: common precision {r.tau_common}"]
            continue
        if np.any(r.p < 0) or np.max(np.abs(r.p.sum(axis=1) - 1.0)) > 1e-9:
            return [f"{where}: selection rows do not sum to 1"]
        if not np.array_equal(r.lam, r.lam.T) or np.any(r.lam <= 0) or np.any(r.lam >= 1):
            return [f"{where}: lambda not symmetric in (0, 1)"]
    return []


def recovery_problems(summary: dict, donors, bound: float) -> list:
    """Loose recovery check: the donor series are long enough to fit well."""
    pare = summary.get("mean_pare", {})
    return [f"donor series {d + 1} mean PARE {pare.get(str(d + 1))} not under {bound}"
            for d in donors if not pare.get(str(d + 1), float("inf")) < bound]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- the chains ------------------------------------------------------------------

def run_chains(workload, doc, data_path: Path, work: Path, seeds, cal: Calibrator,
               setup: Optional[list]) -> list:
    """Run one chain per seed through cmd_run and cmd_report; check its outputs.

    Times are wall seconds less the calibration ticks, divided by the host
    slowdown those ticks measured during the chain (see calibrate.py). Unless
    ``setup`` is None, a set-up probe runs before every SETUP_EVERY-th chain,
    so the set-ups sample the host's speed phases across the whole run, and
    its wall seconds go to ``setup``.
    """
    reproduce = doc["reproduce"]
    short = int(reproduce["short_series"]) - 1
    donors = [int(d) - 1 for d in reproduce["donors"]]
    expected = SWEEPS - BURN_IN
    chain_wall = []
    results = []
    with timed_sampler(workload.sampler, chain_wall):
        for k, seed in enumerate(seeds):
            if setup is not None and k % SETUP_EVERY == 0:
                setup.append(measure_setup(workload, work / f"setup_{k}", seed))
            out = work / f"chain_{k}"
            result = {"seed": seed, "problems": []}
            results.append(result)
            try:
                mark = cal.mark()
                start = perf_counter()
                records = cli.cmd_run(doc, data_path, out, sampler=workload.sampler,
                                      seed_override=seed, alpha_key=workload.alpha_key)
                run_wall = perf_counter() - start
                ticks_s, factor = cal.since(mark)
                # A report has no sweeps to tick after: calibrate right around
                # it. Its file writes see I/O stalls the ticks cannot, so it
                # keeps the best of REPORT_REPEATS identical reports.
                report_mark = cal.mark()
                cal.ticks(REPORT_TICKS)
                report_walls = []
                for _ in range(REPORT_REPEATS):
                    start = perf_counter()
                    summary = cli.cmd_report(out / "trace.jsonl", data_path, out)
                    report_walls.append(perf_counter() - start)
                cal.ticks(REPORT_TICKS)
                report_wall = min(report_walls)
                report_factor = cal.since(report_mark)[1]
            except Exception as exc:  # a chain that raises is a failed chain, not a crash
                traceback.print_exc(file=sys.stderr)
                result["problems"].append(f"raised {type(exc).__name__}: {exc}")
                continue
            result.update(
                chain_s=(chain_wall[-1] - ticks_s) / factor,
                run_s=(run_wall - ticks_s) / factor,
                report_s=report_wall / report_factor,
                wall=[chain_wall[-1] - ticks_s, run_wall - ticks_s, report_wall],
                factor=[factor, report_factor],
            )
            result["problems"] += record_problems(records, expected, workload.parametric)
            result["problems"] += recovery_problems(summary, donors, workload.donor_pare_bound)
            result["donor_pare"] = [summary.get("mean_pare", {}).get(str(d + 1)) for d in donors]
            trace_bytes = sum((out / f).stat().st_size for f in ("trace.jsonl", "trace.csv"))
            result["bytes_per_record"] = trace_bytes / len(records)
            result["checkpoint_bytes"] = (out / "checkpoint.json").stat().st_size
            result["ess_series"] = ess_series(records, short, donors)
            if k:
                shutil.rmtree(out)  # the first chain's trace is kept for its digest
    return results


def replay_check(workload, doc, data_path: Path, work: Path, first: dict, cal: Calibrator):
    """Rerun the first chain untraced; its trace must match the traced one byte
    for byte. Returns the untraced chain's calibrated seconds."""
    data = MultiSeries.load_json(data_path)
    prior = cli.parse_prior_block(doc["prior"], data.m, alpha_key=workload.alpha_key)
    config = cli.parse_sampler_block(doc["sampler"], first["seed"])
    mark = cal.mark()
    start = perf_counter()
    records = cli.SAMPLERS[workload.sampler](data, prior, config)
    wall = perf_counter() - start
    ticks_s, factor = cal.since(mark)
    replay = work / "untraced.jsonl"
    model.write_trace_jsonl(replay, records)
    if replay.read_bytes() != (work / "chain_0" / "trace.jsonl").read_bytes():
        first["problems"].append("traced replay trace differs from the untraced run_chain trace")
    return (wall - ticks_s) / factor


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    doc = workload.config()
    seeds = workload.chain_seeds(args.seed, workload.chain_count(args.seconds))
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    cal = Calibrator()
    try:
        setup = None if tracer else []
        with instrumented(tracer) if tracer else nullcontext(), calibrated(cal):
            cli.cmd_simulate(doc, work / "data")
            data_path = work / "data" / "data.json"
            chains = run_chains(workload, doc, data_path, work, seeds, cal, setup)
        factor = cal.since()[1]  # the whole run's, for the per-layer spans
        untraced_s = 0.0
        if tracer and "chain_s" in chains[0]:
            with calibrated(cal):
                untraced_s = replay_check(workload, doc, data_path, work, chains[0], cal)
        first_trace = work / "chain_0" / "trace.jsonl"
        trace_sha = sha256(first_trace) if first_trace.exists() else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for c in chains if c["problems"])
    ok = [c for c in chains if not c["problems"]]
    ess = pooled_ess([c["ess_series"] for c in ok])
    if tracer:
        first_s = (chains[0].get("chain_s", 0.0), untraced_s)
        metrics = per_layer(tracer, factor, ok, ess, first_s, failed / len(chains))
    else:
        # Set-ups run between chains: calibrate them by the whole run's factor.
        metrics = end_to_end(ok, [wall / factor for wall in setup])
    # sweeps_per_s before calibration, for comparison with the calibrated one
    raw_rate = statistics.median(SWEEPS / c["wall"][0] for c in ok) if ok else None
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "chain_seeds": seeds, "trace_sha256": trace_sha,
        "environment": env.describe(), "host_slowdown": factor,
        "problems": {str(c["seed"]): c["problems"] for c in chains if c["problems"]},
        "ess": ess,
        "raw_sweeps_per_s": raw_rate,
        "setup_wall_s": setup,
        "chain_wall_s_run_s_report_s": [c.get("wall") for c in chains],
        "chain_slowdown": [c.get("factor") for c in chains],
        "donor_mean_pare": [c.get("donor_pare") for c in chains],
    }
    if tracer:
        info["tracing.overhead"] = metrics["tracing.overhead"][0]
        info["precision_draws_per_sweep"] = tracer.precision_draws / max(len(tracer.sweep_s), 1)
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": len(chains),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
