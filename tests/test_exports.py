"""The package's public names."""

from __future__ import annotations

import streampath


def test_every_exported_name_resolves():
    missing = [name for name in streampath.__all__ if not hasattr(streampath, name)]
    assert missing == []
    assert len(set(streampath.__all__)) == len(streampath.__all__)
