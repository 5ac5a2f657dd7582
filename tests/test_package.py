"""Tests for the package's public names."""

import importlib
import json
from pathlib import Path

import chsh_local

LAYER_MAP = Path(__file__).resolve().parents[1] / "bench" / "layers.json"


def test_every_exported_name_resolves():
    missing = [name for name in chsh_local.__all__ if not hasattr(chsh_local, name)]
    assert missing == []
    assert len(set(chsh_local.__all__)) == len(chsh_local.__all__)


def test_every_function_the_bench_traces_resolves():
    # bench/run.py wraps each traced `layer.function` on its module by name.
    traced = [entry["function"] for entry in json.loads(LAYER_MAP.read_text())["traced"]]
    missing = []
    for dotted in traced:
        layer, function = dotted.split(".")
        module = importlib.import_module(f"chsh_local.{layer}")
        if not callable(getattr(module, function, None)):
            missing.append(dotted)
    assert traced and missing == [], f"bench/layers.json traces missing functions: {missing}"
