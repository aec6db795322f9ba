"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from rpiso.clifford import CliffordShape

HALF_PI = 0.5 * math.pi

# Latitudes for array-valued shapes: a uniform grid plus seeded points.
LATITUDES = np.concatenate(
    [
        np.linspace(0.01, HALF_PI - 0.01, 97),
        np.random.default_rng(53).uniform(0.001, HALF_PI - 0.001, 60),
    ]
)


def random_shapes(count: int, seed: int, max_factor: int = 8, margin: float = 0.05):
    """Deterministic stream of valid shapes with both factors positive."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n1 = int(rng.integers(1, max_factor))
        n2 = int(rng.integers(1, max_factor))
        r = float(rng.uniform(margin, HALF_PI - margin))
        out.append(CliffordShape(n1, n2, r))
    return out


def random_shapes_with_degenerate(count: int, seed: int, max_factor: int = 8):
    """Like random_shapes but allowing one factor of dimension zero."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n1 = int(rng.integers(0, max_factor))
        lo = 1 if n1 == 0 else 0
        n2 = int(rng.integers(lo, max_factor))
        r = float(rng.uniform(0.05, HALF_PI - 0.05))
        out.append(CliffordShape(n1, n2, r))
    return out


def assert_elementwise(fn, n1: int, n2: int, rs: np.ndarray = LATITUDES) -> None:
    """fn(shape) returns a tuple of per-latitude values.  On the array-valued
    shape each value is an array whose elements equal, bit for bit, the
    Python scalars fn returns on the scalar shapes."""
    whole = fn(CliffordShape(n1, n2, rs))
    for i, r in enumerate(rs.tolist()):
        single = fn(CliffordShape(n1, n2, r))
        assert len(single) == len(whole)
        for column, value in zip(whole, single):
            assert type(value) in (float, int, bool), type(value)
            assert isinstance(column, np.ndarray) and column.shape == rs.shape
            assert column[i] == value, (r, column[i], value)
