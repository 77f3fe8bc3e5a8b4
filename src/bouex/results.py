"""Result types shared by the estimators; this module imports nothing from bouex."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    n_samples: int
    n_accepted: int = 0
    warning: Optional[str] = None
    pruned_mass: float = 0.0
