"""Price a sweep worker: the serial cost of one sweep cell against the cost
of starting and joining a pool of forked workers.

    PYTHONPATH=src python3 scripts/sweep_pool_cost.py [--repeats N]

A worker repays its start-up only when it gets more cells than
start-and-join takes in cell time; `qss.cli.MIN_CELLS_PER_WORKER` is set
from the ratio this prints. Cells are the benchmark's sweep_grid cells
(d <= 97, t <= 8, n <= 16), planned by `qss.cli._sweep_batches` and run in
this process, batch by batch, by `qss.cli._batch_rows`. The pool maps two
one-cell batches, so its time is start-up and join.
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
    batches = cli._sweep_batches(97, 8, 16)
    cells = sum(len(batch_cells) for _, _, batch_cells in batches)
    for batch in batches[:8]:  # warm caches and imports
        cli._batch_rows(0, batch)
    per_cell = []
    for seed in range(max(3, args.repeats // 3)):
        start = time.perf_counter()
        for batch in batches:
            cli._batch_rows(seed, batch)
        per_cell.append((time.perf_counter() - start) / cells)
    one_cell = [(d, first, batch_cells[:1]) for d, first, batch_cells in batches[:2]]
    context = multiprocessing.get_context("fork")
    pool = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        with ProcessPoolExecutor(2, mp_context=context) as workers:
            list(workers.map(partial(cli._batch_rows, 1), one_cell))
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
