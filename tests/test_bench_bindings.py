"""The package names the benchmark's tracer binds.

``perfbench/tracing.py`` wraps package functions by module and name and
reads some of their arguments by name, so a deleted or renamed target
breaks every traced benchmark run.  These tests read the tracer's table
without changing it.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from elastoacoustic.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _target(module, func):
    return getattr(importlib.import_module(f"elastoacoustic.{module}"),
                   func, None)


def test_layer_targets_resolve(tracing):
    missing = [f"{m}.{f}" for m, f, _, _ in tracing.LAYER_TARGETS
               if not callable(_target(m, f))]
    assert not missing


def test_count_arguments_are_parameters(tracing):
    # the count functions read the wrapped call's arguments as a["name"]
    read = set()
    for module, func, _, counts in tracing.LAYER_TARGETS:
        if counts is None:
            continue
        names = set(re.findall(r"""\ba\[["'](\w+)["']\]""",
                               inspect.getsource(counts)))
        params = inspect.signature(_target(module, func)).parameters
        assert names <= set(params), f"{module}.{func}"
        read |= names
    assert {"system", "mesh", "mode", "indicators"} <= read


def test_workloads_config_constructs():
    assert RunConfig(workers=1).workers == 1
