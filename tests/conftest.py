"""Shared seeded generators for randomized property tests."""

import random

import pytest

from linminmax.exact_linalg import IntEchelon, Mat, Subspace, Vec
from linminmax.relation import Relation


def rand_vec(rng, n, bound=3, nonzero=False):
    while True:
        v = Vec([rng.randint(-bound, bound) for _ in range(n)])
        if not nonzero or not v.is_zero():
            return v


def rand_mat(rng, rows, cols, bound=3):
    return Mat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols)


def rand_relation(rng, n, m, r, bound=2):
    pairs = [
        (rand_vec(rng, n, bound, nonzero=True), rand_vec(rng, m, bound, nonzero=True))
        for _ in range(r)
    ]
    return Relation(n, m, pairs)


def rand_subspace(rng, n, max_dim=None, bound=2):
    k = rng.randint(0, n if max_dim is None else max_dim)
    return Subspace.span(n, [rand_vec(rng, n, bound) for _ in range(k)])


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def echelon_widths(monkeypatch):
    """The widths of the IntEchelons built during the test, in order."""
    widths = []
    init = IntEchelon.__init__

    def counting(self, width):
        widths.append(width)
        init(self, width)

    monkeypatch.setattr(IntEchelon, "__init__", counting)
    return widths
