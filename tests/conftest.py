"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def each_digit_limit():
    """Run a call under CPython's default int-digit limit, then with the limit off.

    Returns what the call gave under each, so a test can assert that what
    streampath accepts, and every message it refuses with, is the same
    whether or not ``int()`` could read the number.
    """
    limit = sys.get_int_max_str_digits()

    def run(call):
        got = []
        for digits in (sys.int_info.default_max_str_digits, 0):
            sys.set_int_max_str_digits(digits)
            try:
                got.append(call())
            finally:
                sys.set_int_max_str_digits(limit)
        return got

    return run
