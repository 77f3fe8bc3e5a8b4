import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bouex.measure import Centering, PointMeasure


def test_atoms_sorted_and_counted():
    pm = PointMeasure([2.0, -1.0, 0.0, -1.0])
    assert pm.atoms.tolist() == [-1.0, -1.0, 0.0, 2.0]
    assert len(pm) == 4
    assert pm.count_above(0.0) == 2
    assert pm.count_above(-5.0) == 4


def test_empty_measure():
    pm = PointMeasure()
    assert (len(pm), pm.count_above(0.0)) == (0, 0)


def test_max_and_counts_example():
    pm = PointMeasure([-1.0, 0.0, 2.0])
    assert (pm.atoms[-1], pm.count_above(0.0)) == (2.0, 2)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        PointMeasure([np.nan])


def test_centering_values():
    t = 4.0
    s2 = math.sqrt(2.0)
    assert Centering("bbm_threehalves", t).value == pytest.approx(
        s2 * t - 3.0 / (2.0 * s2) * math.log(t))
    assert Centering("bou_onehalf", t).value == pytest.approx(
        s2 * t - 1.0 / (2.0 * s2) * math.log(t))
    assert Centering("bou_tilde", t).value == pytest.approx(
        s2 * t - 1.0 / (2.0 * s2) * math.log(4.0 * math.pi * t))
    # tilde differs from onehalf by log(4 pi)/(2 sqrt 2) exactly
    assert Centering("bou_onehalf", t).value - Centering("bou_tilde", t).value == \
        pytest.approx(-math.log(4 * math.pi) / (2 * s2) * -1.0)


def test_centering_aliases_and_validation():
    assert Centering("tilde", 2.0).scheme == "bou_tilde"
    assert Centering("bbm", 2.0).scheme == "bbm_threehalves"
    with pytest.raises(ValueError):
        Centering("nope", 2.0)
    with pytest.raises(ValueError):
        Centering("bou", 0.0)


def test_centering_rejects_infinite_horizon():
    with pytest.raises(ValueError):
        Centering("tilde", math.inf)


_finite = st.floats(-1e300, 1e300)


@given(st.lists(_finite, max_size=40), _finite)
def test_sorted_and_counts_partition(atoms, a):
    pm = PointMeasure(atoms)
    assert np.all(np.diff(pm.atoms) >= 0)
    below = sum(v < a for v in atoms)
    assert pm.count_above(a) + below == len(pm)
