"""`bench/tracing.py` wraps `qss` functions by name, so a renamed or deleted
target breaks a traced benchmark run; check every name it lists still exists."""
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in TARGETS.items() for name in names]
)
def test_trace_target_exists(layer, name):
    module = importlib.import_module(f"qss.{layer}")
    if "." in name:
        # A method is wrapped on its class, through the class __dict__.
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, name, None))
