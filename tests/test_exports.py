"""The package's public names and its console script."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import streampath


def test_every_exported_name_resolves():
    missing = [name for name in streampath.__all__ if not hasattr(streampath, name)]
    assert missing == []
    assert len(set(streampath.__all__)) == len(streampath.__all__)


def test_console_script_target_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["streampath"] == "streampath.cli:main"
    module, _, attr = scripts["streampath"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_span_of_the_benchmark_tracer_resolves():
    # perfbench/trace.py wraps library call sites by owner and name, and
    # tier-1 does not collect perfbench/, so a renamed one shows here.
    from perfbench import trace

    boundaries = trace._boundaries()
    assert [(owner, attr) for owner, attr, _ in boundaries if attr not in vars(owner)] == []
    used = {*trace.STREAM, *trace.ENGINES, *trace.PIPELINES}
    used |= {"graph.validate", "graph.contraction", "tsp.hamiltonian_order", "tsp.from_order"}
    assert used - {name for _, _, name in boundaries} == set()
