"""The accuracy ratchet: the one-day error against DOP853 of the six dense
orbits, the two critical-inclination orbits propagated without the
long-period stage and the catalogue sample stays where
``dense_accuracy.json`` puts it.

The bound is two-sided.  A change that makes an orbit worse fails, and so
does one that makes it better: it restates the table
(``python tests/dense_accuracy.py --write``) and logs the old and new
numbers.  A bit-level reordering of the arithmetic moves these errors by
far less than the 1% allowed.
"""

import json

import pytest

from dense_accuracy import CRITICAL, TABLE, _workloads, errors_m

#: relative band around each table value
REL_TOL = 0.01
EXPECTED = json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def measured():
    return errors_m()


def test_the_table_names_the_six_orbits(measured):
    assert set(_workloads().orbit_set()) | set(CRITICAL) <= set(EXPECTED)
    assert sorted(EXPECTED) == sorted(measured)


@pytest.mark.parametrize("orbit", sorted(EXPECTED))
def test_one_day_error_matches_the_table(measured, orbit):
    assert measured[orbit] == pytest.approx(EXPECTED[orbit], rel=REL_TOL)
