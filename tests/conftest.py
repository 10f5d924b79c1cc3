"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from negbound import (
    DivisorClass,
    SurfaceModel,
    blow_up,
    hirzebruch,
    projective_plane,
    ruled_surface,
)


@pytest.fixture
def p2() -> SurfaceModel:
    return projective_plane()


def random_base(rng: random.Random) -> SurfaceModel:
    """A random built-in base surface."""
    choice = rng.randrange(3)
    if choice == 0:
        return projective_plane()
    if choice == 1:
        return hirzebruch(rng.randrange(0, 4))
    genus = rng.randrange(1, 4)
    twist = (3 - 3 * genus) - rng.randrange(1, 5)
    return ruled_surface(genus, twist)


def random_model(rng: random.Random, max_blowups: int = 6) -> SurfaceModel:
    surface = random_base(rng)
    k = rng.randrange(0, max_blowups + 1)
    return blow_up(surface, k) if k else surface


def random_integral_class(rng: random.Random, rank: int, span: int = 5) -> DivisorClass:
    return DivisorClass(tuple(Fraction(rng.randrange(-span, span + 1)) for _ in range(rank)))


def det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps; a route
    independent of the library's symmetric pivot kernel."""
    n = len(matrix)
    a = [list(map(Fraction, row)) for row in matrix]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return result


def sylvester_negative_definite(gram) -> bool:
    """Sylvester's criterion: the k-th leading principal minor has sign
    (-1)^k for every k.  The empty matrix counts as negative definite."""
    for k in range(1, len(gram) + 1):
        minor = det([row[:k] for row in gram[:k]])
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            return False
    return True
