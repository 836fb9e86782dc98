"""Workload inputs derived from the benchmark seed.

Seed 0 gives exactly the package defaults.  Any other seed scales each
epsilon by its own factor in [0.9, 1.1]; the default lists grow by at least
1.4x per step, so jittered lists stay strictly ascending, and the largest
value (0.22) keeps every cosine member star-shaped.  The ladder members are
also rotated by one seed-derived angle, which moves the grid relative to the
shape without changing the solution up to that rotation.
"""
from __future__ import annotations

import math
import random

DEFAULT_EPS = (0.02, 0.04, 0.07, 0.1, 0.14, 0.2)
COSINE_K = 2
FAMILY_H = 1.0 / 64.0
LADDER_MEMBERS = (("ellipse", 0.2), ("cosine", 0.1))
LADDER_SPACINGS = (1.0 / 128.0, 1.0 / 256.0)
JITTER = 0.1


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"oscbound-perfbench:{seed}:{stream}")


def family_eps(seed: int, family: str) -> tuple[float, ...]:
    """The epsilon list of the ``family`` run under ``seed``."""
    if seed == 0:
        return DEFAULT_EPS
    rng = _rng(seed, family)
    return tuple(e * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
                 for e in DEFAULT_EPS)


def ladder_members(seed: int) -> list[tuple[str, float, float]]:
    """``(family, eps, rotation angle)`` of each ladder member."""
    if seed == 0:
        return [(family, eps, 0.0) for family, eps in LADDER_MEMBERS]
    rng = _rng(seed, "ladder")
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    return [(family, eps * (1.0 + JITTER * rng.uniform(-1.0, 1.0)), alpha)
            for family, eps in LADDER_MEMBERS]


def family_config(seed: int, family: str) -> str:
    """Config file text of one ``family-pool`` command (``jobs`` left unset)."""
    eps = ", ".join(repr(e) for e in family_eps(seed, family))
    return (f"family = {family}\n"
            f"k = {COSINE_K}\n"
            f"eps = {eps}\n"
            f"grid.h = {FAMILY_H!r}\n"
            f"grid.refinements = 0\n")
