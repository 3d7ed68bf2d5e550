"""Every test starts with no expansion holding a row table (``imf._table``).

The table keeps the rows of the walk, each 1/xi made once and cross-checked beside them,
for the few expansions read by index last, so a lemma scan in a test that patches the tails
or counts evaluations would otherwise read rows and values that an earlier test made. Walks
from t read no rows, and the integer brackets of the values live only as long as one call.
"""

import pytest

from psidiff import imf


def empty_table() -> None:
    """Drop every held row table, as ``imf._table`` drops the oldest past ``imf._HELD``."""
    imf._held.clear()


@pytest.fixture(autouse=True)
def _empty_row_table():
    empty_table()
