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
