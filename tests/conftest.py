"""Fixtures shared by the test modules."""
from __future__ import annotations

import os

import numpy as np
import pytest

import oscbound
from oscbound.errors import DomainError

# the variables that size OpenBLAS's thread pools, in the order it reads them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


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


@pytest.fixture
def fresh_env():
    """Environment for a fresh interpreter that imports the package from its
    source tree, with none of the BLAS thread variables, so that numpy and
    scipy start their thread pools at the library default."""
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oscbound.__file__))
    return env
