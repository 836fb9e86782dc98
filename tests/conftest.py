"""Fixtures shared by the test modules."""
from __future__ import annotations

import numpy as np
import pytest

from oscbound.errors import DomainError


def _gradient_self_check(field, dim: int, n: int = 100, seed: int = 7,
                         tol: float = 1e-6) -> float:
    """Max relative deviation of an AnalyticField's gradient from central
    differences at n random points; raises DomainError above ``tol``."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.3, 1.5, size=(n, dim))
    grad = np.asarray(field.gradient(pts), dtype=float)
    fd = np.empty_like(grad)
    h = 1e-6
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        fd[:, j] = (field.value(pts + step) - field.value(pts - step)) / (2.0 * h)
    scale = np.maximum(np.linalg.norm(grad, axis=1), 1.0)
    worst = float(np.max(np.linalg.norm(grad - fd, axis=1) / scale))
    if worst > tol:
        raise DomainError(
            f"field {field.label!r}: gradient disagrees with finite differences "
            f"(max relative deviation {worst:.3e} > {tol:.1e})"
        )
    return worst


@pytest.fixture
def gradient_self_check():
    """The finite-difference check of an AnalyticField's exact gradient."""
    return _gradient_self_check
