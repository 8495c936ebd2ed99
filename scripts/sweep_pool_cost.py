"""Price a sweep worker: the serial cost of one sweep cell against the cost
of starting and joining a pool of forked workers.

    PYTHONPATH=src python3 scripts/sweep_pool_cost.py [--repeats N]

A worker repays its start-up only when it gets more cells than
start-and-join takes in cell time; `qss.cli.MIN_CELLS_PER_WORKER` is set
from the ratio this prints. Cells are the benchmark's sweep_grid cells
(d <= 97, t <= 8, n <= 16), run in this process by `qss.cli._sweep_rows`.
The pool maps two one-cell chunks, so its time is start-up and join.
"""
from __future__ import annotations

import argparse
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from qss import cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    cells = cli._sweep_cells(97, 8, 16)
    cli._sweep_rows(0, 0, cells[:200])  # warm caches and imports
    per_cell = []
    for seed in range(max(3, args.repeats // 3)):
        start = time.perf_counter()
        cli._sweep_rows(seed, 0, cells)
        per_cell.append((time.perf_counter() - start) / len(cells))
    context = multiprocessing.get_context("fork")
    pool = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        with ProcessPoolExecutor(2, mp_context=context) as workers:
            list(workers.map(partial(cli._sweep_rows, 1), [0, 1], [cells[:1], cells[1:2]]))
        pool.append(time.perf_counter() - start)
    cell_ms = [1e3 * x for x in per_cell]
    pool_ms = [1e3 * x for x in pool]
    print(f"cell: median {statistics.median(cell_ms):.3f} ms, range {min(cell_ms):.3f}-{max(cell_ms):.3f}")
    print(f"pool start-and-join: median {statistics.median(pool_ms):.1f} ms, "
          f"range {min(pool_ms):.1f}-{max(pool_ms):.1f}")
    print(f"break-even cells per worker: {min(pool_ms) / max(cell_ms):.0f}-{max(pool_ms) / min(cell_ms):.0f}, "
          f"median {statistics.median(pool_ms) / statistics.median(cell_ms):.0f}")


if __name__ == "__main__":
    main()
