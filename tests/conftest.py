"""Shared helpers for the test suite."""

import ctypes
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from redwave import cli
from redwave.epidemic import RED, WHITE, SimParams, Snapshot, run
from redwave.errors import ConfigurationError
from redwave.experiments import isolated_indices
from redwave.geometry import Region, build_cell_grid, in_reach
from redwave.mobility import RngStream, _uniform_in_region


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


@pytest.fixture(autouse=True)
def _default_malloc_policy(monkeypatch):
    """Keep this process on the C library's default malloc policy: glibc has
    no call that restores it, so ``cli.main`` called in process finds a
    library whose ``mallopt`` does nothing.  A test that stubs
    ``cli.ctypes.CDLL`` itself still sees every call."""
    libc = SimpleNamespace(mallopt=lambda param, value: 1)
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: libc, c_int=ctypes.c_int))


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


def bucket_cells(points, side, origin=(0.0, 0.0)):
    """(n, 2) int indices of the side-``side`` square buckets anchored at
    ``origin`` holding an (n, 2) position array: pure floor division, the
    oracle of every cell and bucket key the program computes."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.floor((pts - np.asarray(origin)) / side).astype(np.int64)


def cell_list(cells):
    """The True cells of a boolean array over an index box, as (c, r)
    tuples in index order."""
    return list(zip(*(i.tolist() for i in np.nonzero(cells))))


def covered_cells(grid):
    """The covered cells of a grid in index order (the order of ``array[mask]``)."""
    return cell_list(grid.mask)


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
    return max(int(distances_from(a, grid)[grid.mask].max()) for a in covered_cells(grid))


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


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float


def scaling_fit(points: list[tuple[float, float]]) -> ScalingFit:
    """Ordinary least squares of T against x, for the linearity checks.

    Zero-variance data (constant T fit exactly by a constant) gets r^2 = 1.
    """
    if len({x for x, _ in points}) < 3:
        raise ConfigurationError("scaling fit needs at least 3 distinct x values")
    xs = np.array([x for x, _ in sorted(points)])
    ys = np.array([y for _, y in sorted(points)])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2)


@dataclass
class ThresholdResult:
    trials: int = 0
    isolated_sources_found: int = 0
    failures: int = 0
    skipped: int = 0


def threshold_experiment(params: SimParams, trials: int = 1) -> ThresholdResult:
    """Sub-threshold experiment: seed the infection at an isolated agent.

    Per trial: place agents as ``redwave isolated`` does, find the isolated
    ones at t=0; if none, skip the trial.  Otherwise run 1-flooding from the
    lowest-index isolated agent on those exact positions and tally
    non-completions.
    """
    out = ThresholdResult()
    for trial in range(trials):
        out.trials += 1
        gen = RngStream(params.seed + trial).generator()
        pos = _uniform_in_region(params.n, params.region, gen)
        iso = isolated_indices(pos, params.R)
        if len(iso) == 0:
            out.skipped += 1
            continue
        out.isolated_sources_found += 1
        src = int(iso[0])
        p = replace(params, seed=params.seed + trial, sources=[tuple(pos[src])])
        rec = run(p, initial_positions=pos)
        if rec.failed_at is not None:
            out.failures += 1
    return out
