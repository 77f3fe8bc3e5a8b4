"""Centring schemes, and the per-group maximum of flat atom arrays.

The package carries an extremal point process as a flat array of atom
positions, with a parallel array of group ids where there are several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import SQRT2

_SCHEMES = ("bbm_threehalves", "bou_onehalf", "bou_tilde")
_ALIASES = {"bbm": "bbm_threehalves", "bou": "bou_onehalf", "tilde": "bou_tilde"}


def group_max(group, atoms, n_groups: int) -> np.ndarray:
    """Largest atom of each group 0..n_groups-1; -inf for a group with none."""
    mx = np.full(n_groups, -np.inf)
    np.maximum.at(mx, group, atoms)
    return mx


@dataclass(frozen=True)
class Centering:
    """Centring function evaluated at horizon t.

    bbm_threehalves: sqrt(2) t - 3/(2 sqrt(2)) log t
    bou_onehalf:     sqrt(2) t - 1/(2 sqrt(2)) log t
    bou_tilde:       sqrt(2) t - 1/(2 sqrt(2)) log(4 pi t)
    """

    scheme: str
    t: float

    def __post_init__(self):
        scheme = _ALIASES.get(self.scheme, self.scheme)
        if scheme not in _SCHEMES:
            raise ValueError(f"unknown centering scheme {self.scheme!r}")
        object.__setattr__(self, "scheme", scheme)
        if not 0.0 < self.t < math.inf:
            raise ValueError(f"t must be finite and positive, got {self.t}")

    @property
    def value(self) -> float:
        if self.scheme == "bbm_threehalves":
            return SQRT2 * self.t - 3.0 / (2.0 * SQRT2) * math.log(self.t)
        if self.scheme == "bou_onehalf":
            return SQRT2 * self.t - 1.0 / (2.0 * SQRT2) * math.log(self.t)
        return SQRT2 * self.t - 1.0 / (2.0 * SQRT2) * math.log(4.0 * math.pi * self.t)
