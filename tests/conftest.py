"""Every test starts with no expansion holding a row table (``imf._table``).

The table keeps the rows of the walk, each 1/xi made once and cross-checked beside them,
for the few expansions walked last, so a test that patches the tails or counts evaluations
would otherwise read rows and values that an earlier test made.
"""

import pytest

from psidiff import imf


def empty_table() -> None:
    """Drop every held row table, as ``imf._table`` drops the oldest past ``imf._HELD``."""
    imf._held.clear()


@pytest.fixture(autouse=True)
def _empty_row_table():
    empty_table()
