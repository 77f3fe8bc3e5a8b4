import math

import pytest

from bouex.measure import Centering


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

