"""The CLI still produces the committed byte-identity corpus."""

from __future__ import annotations

import json

import golden


def test_cli_outputs_match_the_committed_corpus():
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.record()
    assert golden.moved(want, got) == []
