"""Set-up of one benchmark run: a fresh interpreter imports rinorms and
generates one workload's inputs.  run.py times the whole process.

    PYTHONPATH=src python3 perfbench/make_inputs.py --workload large_query --seed 0 --out DIR

Prints the seconds spent generating, after the imports, as its last line.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from time import perf_counter

# importing the workloads imports rinorms, which is part of the set-up
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, reference={"seeds": {}})
    start = perf_counter()
    workload.generate(args.out)
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
