"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD OUT_DIR CHAIN_SEED

Set-up is what a `pdgsbr run` user waits for before the first sweep: the
imports, ``cli.cmd_simulate`` and ``model.init_chain``. Prints its wall
seconds, counted from this script's first statement.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import env  # noqa: E402

env.prepare()

from pdgsbr import cli, model  # noqa: E402
from pdgsbr.distributions import RngHandle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> None:
    name, out_dir, seed = argv
    workload = WORKLOADS[name]
    doc = workload.config()
    data = cli.cmd_simulate(doc, out_dir)
    prior = cli.parse_prior_block(doc["prior"], data.m, alpha_key=workload.alpha_key)
    model.init_chain(data, prior, RngHandle(int(seed)))
    print(perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
