"""Print, as one JSON object, the time this fresh interpreter takes to import
numpy and then each qss layer on top of what is already loaded.

The package `__init__` imports every layer, so it is held back until the
end: the `qss` package object is registered unexecuted, each layer is loaded
alone, and `qss.cli` is timed together with the package body it needs.
Scipy is first imported by `qss.adversary`.

Run with `src` on PYTHONPATH: `PYTHONPATH=src python3 bench/import_probe.py`.
"""
import importlib
import importlib.util
import json
import sys
import time

clock = time.perf_counter
times = {}

start = clock()
import numpy  # noqa: E402,F401

times["numpy"] = clock() - start

spec = importlib.util.find_spec("qss")
package = importlib.util.module_from_spec(spec)
sys.modules["qss"] = package
for layer in ("field", "qudit", "protocol", "adversary"):
    start = clock()
    importlib.import_module(f"qss.{layer}")
    times[f"qss.{layer}"] = clock() - start

start = clock()
spec.loader.exec_module(package)
importlib.import_module("qss.cli")
times["qss.cli"] = clock() - start

print(json.dumps(times))
