import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import charcore.characters as characters
import charcore.tableaux as tableaux
from charcore.characters import build_table


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run long exhaustive sweeps",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


class TableCache:
    """Build each character table at most once per session."""

    def __init__(self):
        self._tables = {}

    def get(self, n):
        if n not in self._tables:
            self._tables[n] = build_table(n)
        return self._tables[n]


@pytest.fixture(scope="session")
def tables():
    return TableCache()


# every process-lifetime cache of `characters`, as the source guard in
# test_source.py finds them
CHARACTER_CACHES = ("_LEVELS", "_row_table", "_transfers")


@pytest.fixture
def cold_characters():
    """Every process-lifetime cache of `characters` empty when the test starts,
    and emptied again when it ends, so nothing it built under a patch is kept."""

    def clear():
        for name in CHARACTER_CACHES:
            cache = getattr(characters, name)
            if isinstance(cache, dict):
                cache.clear()
            else:
                cache.cache_clear()

    clear()
    yield
    clear()


@pytest.fixture
def count_memos(monkeypatch):
    """The memo of every `tableaux._count_rows` call the test makes, in call order."""
    memos, real = [], tableaux._count_rows

    def spy(rows, memo):
        memos.append(memo)
        return real(rows, memo)

    monkeypatch.setattr(tableaux, "_count_rows", spy)
    return memos
