"""Shared helpers for the test suite."""

import numpy as np
import pytest

from redwave.epidemic import RED, WHITE, Snapshot
from redwave.geometry import Region, build_cell_grid, in_reach


def make_snapshot(positions, states, step=0):
    """A synthetic Snapshot with consistent bookkeeping arrays."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    st = np.asarray(states, dtype=np.int8)
    countdown = np.where(st == RED, 1, 0).astype(np.int32)
    return Snapshot(
        step=step,
        positions=pos,
        states=st,
        countdown=countdown,
        chain_origin=pos.copy(),
    )


def red_white(states):
    """The red and the white agent indices of ``states``, as the
    transmission kernels and their oracles take them."""
    return np.flatnonzero(states == RED), np.flatnonzero(states == WHITE)


@pytest.fixture(scope="session")
def grid_15x15():
    """A full 15x15 cover (square of side 15 with unit cells)."""
    return build_cell_grid(Region.square(15.0), 1.0, gamma=1.0)


@pytest.fixture(scope="session")
def grid_4x4():
    return build_cell_grid(Region.square(12.0), 3.0, gamma=1.0)


@pytest.fixture(scope="session")
def disk_grid():
    return build_cell_grid(Region.disk(10.0), 3.0, gamma=1.0)


def distances_from(a, grid):
    """Shortest cell-path lengths from covered cell ``a`` over the index box
    (+inf off the cover and where unreachable): one transform."""
    source = np.zeros(grid.mask.shape, dtype=bool)
    source[a] = True
    return grid.distances(source)


def cell_distance(a, b, grid):
    """Shortest cell-path length between two covered cells."""
    return int(distances_from(a, grid)[b])


def cell_diameter(grid):
    """Max pairwise cell-distance over the cover: one transform per cell."""
    return max(int(distances_from(a, grid)[grid.mask].max()) for a in grid.cells)


def isolated_indices_bruteforce(positions: np.ndarray, R: float) -> np.ndarray:
    """O(n^2) all-pairs isolation check (the audit oracle): no other agent
    in reach under the transmission kernel's closed-ball rule."""
    n = len(positions)
    if R == 0:
        return np.arange(n)
    iso = np.empty(n, dtype=bool)
    for i in range(n):
        d2 = (positions[:, 0] - positions[i, 0]) ** 2 + (positions[:, 1] - positions[i, 1]) ** 2
        d2[i] = np.inf
        iso[i] = not in_reach(d2, R).any()
    return np.flatnonzero(iso)
