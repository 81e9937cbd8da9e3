"""Config-driven experiment harness.

Verbs: ``simulate`` (synthetic data), ``run`` (one chain), ``report``
(diagnostics from a trace), ``reproduce`` (the three bundled borrowing
experiments end to end). Exit codes: 0 success, 2 config error, 3 numeric
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import logging
import os
import sys
from contextlib import contextmanager

import numpy as np
import yaml

from . import __version__
from .diagnostics import (
    KDE_GRID_SIZE,
    boi,
    ergodic_average,
    hpdi,
    kde,
    pare_table,
    quantile,
)
from .distributions import (COUNT, POSITIVE, PROBABILITY, REAL, WHOLE, RngHandle, in_domain,
                            whole_from)
from .dynamics import (
    MultiSeries,
    NAMED_MAPS,
    NoiseMixtureSpec,
    as_map,
    compound_noise,
    simulate_multi,
)
from .errors import ConfigError, DivergenceError, InsufficientSamplesError, SingularDesignError
from .gibbs import GibbsConfig, run_chain, run_parametric_gaussian
from .model import (
    PriorConfig,
    load_checkpoint,
    read_trace_jsonl,
    write_text,
    write_trace_jsonl,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DESK_SCALE = {"iterations": 10_000, "burn_in": 5_000}
FULL_SCALE = {"iterations": 60_000, "burn_in": 20_000}


# --- configuration --------------------------------------------------------------

PRIOR_FIELDS = {f.name for f in dataclasses.fields(PriorConfig)}

# The keys each config block may set: the ones its parser reads. Any other key
# is a typo that would otherwise fall back to a default without a word.
CONFIG_KEYS = {
    "top level": {"name", "data", "prior", "sampler", "outputs", "reproduce"},
    "data": {"seed", "maps", "n", "x0", "horizon", "components", "selection"},
    "prior": PRIOR_FIELDS - {"m"} | {"dirichlet_alpha_strong"},
    "sampler": {f.name for f in dataclasses.fields(GibbsConfig)},
    "outputs": {"directory", "kde_bounds"},
    "reproduce": {"short_series", "donors"},
}
COMPONENT_KEYS = {"weights", "variances"}  # of each data.components entry


def _block(doc: dict, name: str) -> dict:
    """Config block ``name`` of ``doc``; an absent or null block reads as empty."""
    return doc.get(name) or {}


def _check_block(name: str, block, allowed) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a mapping")
    unknown = sorted(set(block) - allowed, key=str)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in the {name} config block; "
                          f"expected one of {sorted(allowed)}")


def check_config_keys(doc: dict) -> None:
    """Raise ConfigError naming the first key that no parser reads."""
    for name, allowed in CONFIG_KEYS.items():
        _check_block(name, doc if name == "top level" else _block(doc, name), allowed)
    components = _block(_block(doc, "data"), "components")
    if not isinstance(components, dict):
        raise ConfigError("data.components block must be a mapping")
    for key, spec in components.items():
        _check_block(f"data.components {key!r}", spec, COMPONENT_KEYS)


@contextmanager
def _config_errors(what: str):
    """Report a missing key or a malformed value in ``what`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _parse_yaml(stream):
    """``yaml.safe_load(stream)``, by libyaml's parser where PyYAML was built
    with it (the same documents, a few times faster), else by its own."""
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = _parse_yaml(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return doc


def _load_data(path) -> MultiSeries:
    """A data.json file; a malformed one is a ConfigError, a missing one an OSError."""
    with _config_errors(f"data file {path}"):
        return MultiSeries.load_json(path)


def bundled_config(experiment: str) -> dict:
    name = experiment.lower()
    if name not in ("4a", "4b", "4c"):
        raise ConfigError(f"unknown experiment {experiment!r}; expected 4A, 4B or 4C")
    ref = importlib.resources.files("pdgsbr.configs").joinpath(f"{name}.yaml")
    return _parse_yaml(ref.read_text())


def _resolve_map(spec) -> tuple:
    if isinstance(spec, str):
        if spec not in NAMED_MAPS:
            raise ConfigError(f"unknown named map {spec!r}; known: {sorted(NAMED_MAPS)}")
        return NAMED_MAPS[spec]
    return as_map(spec)


@_config_errors("data block")
def parse_data_block(block: dict):
    """Synthetic spec -> (per-series (map, noise, n, x0), horizons, selection, seed)."""
    if not isinstance(block["maps"], list) or not block["maps"]:
        raise ConfigError(f"data.maps must be a non-empty list of maps, got {block['maps']!r}")
    maps = [_resolve_map(s) for s in block["maps"]]
    m = len(maps)
    ns = in_domain("n", block["n"], whole_from(2), (m,))
    x0s = in_domain("x0", block["x0"], REAL, (m,))
    horizons = in_domain("horizon", block.get("horizon", [1] * m), COUNT, (m,))
    selection = in_domain("selection", block["selection"], PROBABILITY, (m, m))
    components = {}
    for key, spec in _block(block, "components").items():
        with _config_errors(f"data.components key {key!r}"):
            j, l = sorted(int(t) for t in str(key).split(","))
            if not 1 <= j <= l <= m:
                raise ConfigError(f"data.components key {key!r} names a series outside 1..{m}")
            if (j, l) in components:
                raise ConfigError(f"data.components names the pair {j},{l} twice")
            components[(j, l)] = NoiseMixtureSpec(spec["weights"], spec["variances"])
    noises = []
    for j, row in enumerate(selection.tolist()):
        if abs(sum(row) - 1.0) > 1e-9:
            raise ConfigError(f"selection row {j + 1} does not sum to 1")
        comps = [components.get(tuple(sorted((j + 1, l + 1)))) for l in range(m)]
        noises.append(compound_noise(row, comps))
    specs = list(zip(maps, noises, ns.tolist(), x0s.tolist()))
    return specs, horizons.tolist(), selection.tolist(), in_domain("seed", block["seed"], WHOLE)


@_config_errors("prior block")
def parse_prior_block(block: dict, m: int, alpha_key: str = "dirichlet_alpha") -> PriorConfig:
    """The selection rows come from ``alpha_key``; every other PriorConfig field
    the block leaves out keeps its default."""
    alpha = in_domain(alpha_key, block[alpha_key], POSITIVE, (m, m))
    given = {key: value for key, value in block.items() if key in PRIOR_FIELDS}
    return PriorConfig(**given | {"m": m, "dirichlet_alpha": alpha})


@_config_errors("sampler block")
def parse_sampler_block(block: dict, seed_override=None, scale=None) -> GibbsConfig:
    """A run length the block leaves out is the desk scale's, and ``scale``
    replaces it; every other GibbsConfig field left out keeps its default."""
    block = {**DESK_SCALE, **(block or {})}
    if scale is not None:
        block.update(DESK_SCALE if scale == "desk" else FULL_SCALE)
    if seed_override is not None:
        block["seed"] = seed_override
    return GibbsConfig(**block)


@_config_errors("kde_bounds")
def check_kde_bounds(bounds):
    """The noise KDE's grid range as two floats lo < hi, or None for the
    default range; ConfigError for anything else."""
    if bounds is None:
        return None
    bounds = in_domain("kde_bounds", bounds, REAL, (2,))
    if not bounds[0] < bounds[1]:
        raise ConfigError(f"kde_bounds must be [lo, hi] with lo < hi, got {bounds}")
    return bounds.tolist()


@_config_errors("outputs block")
def parse_outputs_block(block: dict) -> tuple:
    """(directory, kde_bounds): the output directory, ``out`` where the block
    leaves it out, and the bounds by ``check_kde_bounds``."""
    directory = block.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"outputs.directory must be a non-empty string, got {directory!r}")
    return directory, check_kde_bounds(block.get("kde_bounds"))


def write_manifest(out_dir, command: str, doc: dict, **extra) -> None:
    manifest = {"command": command, "config": doc, "version": __version__, **extra}
    write_text(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, default=str))


# --- simulate --------------------------------------------------------------------

def cmd_simulate(doc: dict, out_dir, seed_override=None) -> MultiSeries:
    check_config_keys(doc)
    block = _block(doc, "data")
    if seed_override is not None:
        block = {**block, "seed": seed_override}
    specs, horizons, selection, seed = parse_data_block(block)
    data = simulate_multi(specs, horizons, RngHandle(seed), selection)
    write_text(os.path.join(out_dir, "data.json"), json.dumps(data.to_json_dict()))
    write_manifest(out_dir, "simulate", {**doc, "data": {**block, "seed": seed}})
    return data


# --- run -------------------------------------------------------------------------

# The single-series GSBR model is "pdgsbr" on data with m = 1.
SAMPLERS = {"pdgsbr": run_chain, "parametric": run_parametric_gaussian}


def cmd_run(doc: dict, data_path, out_dir, sampler="pdgsbr", seed_override=None,
            scale=None, resume_path=None, alpha_key="dirichlet_alpha"):
    check_config_keys(doc)
    data = _load_data(data_path)
    prior = parse_prior_block(_block(doc, "prior"), data.m, alpha_key=alpha_key)
    config = parse_sampler_block(_block(doc, "sampler"), seed_override, scale)
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    with _config_errors(f"checkpoint {resume_path}"):
        resume = load_checkpoint(resume_path, data, prior) if resume_path else None
    trace = SAMPLERS[sampler](
        data, prior, config, checkpoint_path=checkpoint_path, resume=resume
    )
    write_trace_jsonl(os.path.join(out_dir, "trace.jsonl"), trace,
                      csv_path=os.path.join(out_dir, "trace.csv"))
    write_manifest(out_dir, "run", {  # the config that ran, with every override applied
        **doc, "sampler": dataclasses.asdict(config),
        "prior": {**_block(doc, "prior"), "dirichlet_alpha": prior.dirichlet_alpha.tolist()},
    }, sampler=sampler, data_path=os.path.basename(str(data_path)))
    return trace


# --- report ----------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """A CSV file with csv.writer's bytes: the ``header`` names, then each row
    of ``rows`` (an iterable of str), comma-joined, with CRLF line ends. No
    value here needs quoting."""
    write_text(path, "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n", newline="")


def _repr_rows(table: np.ndarray):
    """Each row of a 2-D float array as the ``repr`` of its values, formatted
    column by column so that each value is converted once."""
    return zip(*(map(repr, column) for column in table.T.tolist()))


def _kde_with_bounds(samples: np.ndarray, bounds):
    if bounds is not None:
        lo, hi = bounds
        return kde(samples, grid=np.linspace(lo, hi, KDE_GRID_SIZE))
    # robust default range: the central 99% of samples, which kde pads by 4 bandwidths
    lo, hi = quantile(samples, [0.005, 0.995])
    core = samples[(samples >= lo) & (samples <= hi)]
    return kde(core if core.size >= 2 else samples)


def cmd_report(trace_path, data_path, out_dir, kde_bounds=None) -> dict:
    kde_bounds = check_kde_bounds(kde_bounds)
    with _config_errors(f"trace {trace_path}"):
        trace = read_trace_jsonl(trace_path)
    data = _load_data(data_path)
    m = trace.theta.shape[1]
    if data.m != m:
        raise ConfigError(f"trace has m={m} series but data has m={data.m}")
    summary = {}

    if trace.p is not None:
        mean_p = np.mean(trace.p, axis=0)
        summary["boi"] = {
            str(j + 1): boi(mean_p, j, [l for l in range(m) if l != j]) for j in range(m)
        }
        summary["posterior_mean_p"] = mean_p.tolist()
        summary["posterior_mean_lambda"] = np.mean(trace.lam, axis=0).tolist()

    if data.maps_true is not None:
        table = pare_table(trace.theta, data)
        degree = table["per_coefficient"].shape[1]
        rows = _repr_rows(np.column_stack((table["per_coefficient"], table["row_mean"])))
        _write_csv(os.path.join(out_dir, "pare_table.csv"),
                   ["series"] + [f"theta_{k}" for k in range(degree)] + ["mean"],
                   ((str(j), *row) for j, row in enumerate(rows, start=1)))
        summary["mean_pare"] = {str(j + 1): float(table["row_mean"][j]) for j in range(m)}

    for j in range(m):
        running = ergodic_average(trace.theta[:, j])
        _write_csv(os.path.join(out_dir, f"ergodic_theta_{j + 1}.csv"),
                   [f"theta_{k}" for k in range(running.shape[1])], _repr_rows(running))

        has_future = trace.future[j].shape[1] > 0
        grids = [("noise", trace.z_pred[:, j], kde_bounds), ("x0", trace.x0[:, j], None)]
        if has_future:
            grids.append(("future", trace.future[j][:, 0], None))
        for name, samples, bounds in grids:
            try:
                grid = _kde_with_bounds(samples, bounds)
            except InsufficientSamplesError as exc:
                logger.warning("series %d: no %s KDE grid: %s", j + 1, name, exc)
                continue
            _write_csv(os.path.join(out_dir, f"kde_{name}_{j + 1}.csv"), ["grid", "density"],
                       _repr_rows(np.column_stack((grid.grid, grid.density))))
        if not has_future:
            continue
        try:
            interval = hpdi(trace.future[j][:, 0], 0.95)
        except InsufficientSamplesError as exc:
            logger.warning("series %d: no future HPDI: %s", j + 1, exc)
            continue
        summary.setdefault("hpdi_future", {})[str(j + 1)] = {
            "lower": interval.lower, "upper": interval.upper,
            "width": interval.upper - interval.lower, "mass": interval.mass,
        }

    write_text(os.path.join(out_dir, "summary.json"), json.dumps(summary))
    return summary


# --- reproduce ---------------------------------------------------------------------

def cmd_reproduce(experiment: str, scale: str, out_dir, doc=None) -> dict:
    """Check every block, then simulate -> run (weak prior: the config's
    ``dirichlet_alpha``) -> run (strong prior) -> report, then compare."""
    doc = doc if doc is not None else bundled_config(experiment)
    check_config_keys(doc)
    m = len(parse_data_block(_block(doc, "data"))[0])
    with _config_errors("reproduce block"):
        rep = _block(doc, "reproduce")
        short = in_domain("short_series", rep.get("short_series", 2), whole_from(1)) - 1
        donors = (in_domain("donors", rep.get("donors", [1]), whole_from(1), (None,)) - 1).tolist()
        if not 0 < len(set(donors)) == len(donors) or max([short, *donors]) >= m or short in donors:
            raise ConfigError(f"short_series and donors must be series 1..{m} of the data "
                              "block, the donors one or more, distinct, without the short one")
    _, kde_bounds = parse_outputs_block(_block(doc, "outputs"))
    for alpha_key in ("dirichlet_alpha", "dirichlet_alpha_strong"):
        parse_prior_block(_block(doc, "prior"), m, alpha_key)
    base_seed = parse_sampler_block(_block(doc, "sampler"), scale=scale).seed
    data_dir = os.path.join(out_dir, "data")
    data = cmd_simulate(doc, data_dir)
    data_path = os.path.join(data_dir, "data.json")

    results = {}
    for label, alpha_key, seed in (
        ("weak", "dirichlet_alpha", base_seed),
        ("strong", "dirichlet_alpha_strong", base_seed + 1),
    ):
        run_dir = os.path.join(out_dir, label)
        cmd_run(doc, data_path, run_dir, sampler="pdgsbr", seed_override=seed,
                scale=scale, alpha_key=alpha_key)
        results[label] = cmd_report(os.path.join(run_dir, "trace.jsonl"), data_path, run_dir,
                                    kde_bounds=kde_bounds)

    comparison = {"experiment": experiment, "scale": scale,
                  "short_series": short + 1, "donors": [d + 1 for d in donors]}
    lines = [f"experiment {experiment} ({scale} scale)",
             f"{'quantity':<28}{'weak':>12}{'strong':>12}"]
    for label in ("weak", "strong"):
        summary = results[label]
        comparison[f"boi_{label}"] = boi(summary["posterior_mean_p"], short, donors)
        comparison[f"mean_pare_{label}"] = summary.get("mean_pare", {})
        comparison[f"hpdi_width_{label}"] = summary.get("hpdi_future", {}).get(
            str(short + 1), {}).get("width")
    lines.append(f"{'BoI (short series)':<28}{comparison['boi_weak']:>12.4f}"
                 f"{comparison['boi_strong']:>12.4f}")
    for j in range(data.m):
        weak_pare = comparison["mean_pare_weak"].get(str(j + 1), float("nan"))
        strong_pare = comparison["mean_pare_strong"].get(str(j + 1), float("nan"))
        lines.append(f"{f'mean PARE series {j + 1} (%)':<28}{weak_pare:>12.3f}{strong_pare:>12.3f}")
    if comparison["hpdi_width_weak"] is not None:
        lines.append(f"{'HPDI width (short future)':<28}"
                     f"{comparison['hpdi_width_weak']:>12.5f}"
                     f"{comparison['hpdi_width_strong']:>12.5f}")
    print("\n".join(lines))
    write_text(os.path.join(out_dir, "comparison.json"), json.dumps(comparison))
    write_manifest(out_dir, "reproduce", doc, scale=scale)
    return comparison


# --- argument parsing --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdgsbr",
        description="Joint reconstruction and prediction of perturbed polynomial maps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic multi-series data")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="run one Gibbs chain")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--sampler", choices=sorted(SAMPLERS), default="pdgsbr")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--resume", default=None)

    p_rep = sub.add_parser("report", help="emit diagnostics from a trace")
    p_rep.add_argument("--trace", required=True)
    p_rep.add_argument("--data", required=True)
    p_rep.add_argument("--out", default=None)

    p_repr = sub.add_parser("reproduce", help="run a bundled borrowing experiment")
    p_repr.add_argument("experiment", choices=["4A", "4B", "4C", "4a", "4b", "4c"])
    p_repr.add_argument("--scale", choices=["desk", "full"], default="desk")
    p_repr.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        if args.verb in ("simulate", "run"):
            doc = load_config(args.config)
            check_config_keys(doc)
            directory, _ = parse_outputs_block(_block(doc, "outputs"))
            out = args.out or directory
        if args.verb == "simulate":
            cmd_simulate(doc, out, seed_override=args.seed)
        elif args.verb == "run":
            cmd_run(doc, args.data, out, sampler=args.sampler,
                    seed_override=args.seed, resume_path=args.resume)
        elif args.verb == "report":
            out = args.out or os.path.dirname(os.path.abspath(args.trace))
            cmd_report(args.trace, args.data, out)
        elif args.verb == "reproduce":
            out = args.out or f"reproduce_{args.experiment.lower()}_{args.scale}"
            cmd_reproduce(args.experiment, args.scale, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric failure: {exc}; try a different data seed", file=sys.stderr)
        return EXIT_NUMERIC
    except SingularDesignError as exc:
        print(f"numeric failure: {exc}; the series may have too few distinct "
              "states for the polynomial degree", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
