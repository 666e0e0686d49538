"""Child processes that the tests start import tjl from this checkout too:
``pythonpath`` in pyproject.toml only reaches the pytest process.  The
fixture ``fresh_memos`` runs a test from tjl's registered memos emptied."""

import os
from pathlib import Path

import pytest

from tjl.cyclotomic import MEMOS

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def fresh_memos():
    """Every registered memo empty before and after the test, so a test that
    patches a memoised function starts cold and leaves no tampered value
    behind, in that memo or in one built from it.  Yields the emptier, for
    a test that starts cold again halfway."""
    def empty():
        for memo in MEMOS:
            memo.cache_clear()

    empty()
    yield empty
    empty()
