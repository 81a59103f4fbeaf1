"""Computation budgets shared across the homological probes."""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceeded(RuntimeError):
    """A dimension/class cap was hit; callers degrade to open/unknown results."""


class RegistryAmbiguity(RuntimeError):
    """An isomorphism test stayed inconclusive while registering a class."""


@dataclass(frozen=True)
class Budgets:
    """Default budgets: depth 64, classes 10000, confidence 40, seed 0.

    max_dim caps the dimension of each direct-sum block that decompose
    splits afresh (a block it has decomposed before is read from the
    registry's memo) and of each block of every Omega^k that
    homology.omega_power builds; orbit probes report open/unknown beyond it.
    """

    depth: int = 64
    classes: int = 10_000
    confidence: int = 40
    max_dim: int = 40
    seed: int = 0


DEFAULT = Budgets()
