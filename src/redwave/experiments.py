"""Seeded multi-replica experiment harness: completion-time sweeps and the
isolated-agent scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .epidemic import SimParams, run
from .errors import ConfigurationError, RedwaveError
from .geometry import BucketGrid, Region, bucket_side, in_reach
from .mobility import _uniform_in_region


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep over one axis of SimParams with seeded replicas per point.

    Replica r of sweep point p runs with seed ``base.seed + r`` (seed policy:
    base seed plus replica index), so results are reproducible and replica
    order is irrelevant.
    """

    base: SimParams
    sweep_axis: str | None = None  # "L", "R", "rho", "k", "n", or None
    sweep_values: tuple = ()
    replicas: int = 1
    density_one: bool = True  # n = floor(area(S)) at every point, unless n is the axis

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if self.density_one and self.sweep_axis != "n":
            n = density_one_n(self.base.region)
            if self.base.n != n:
                raise ConfigurationError(
                    f"n = {self.base.n} given with density_one, which sets n = {n}"
                )
        if self.sweep_axis is None:
            if self.sweep_values:
                raise ConfigurationError("sweep values declared without a sweep axis")
            return
        if self.sweep_axis not in ("L", "R", "rho", "k", "n"):
            raise ConfigurationError(f"unknown sweep axis {self.sweep_axis!r}")
        if not self.sweep_values:
            raise ConfigurationError("sweep axis declared without values")
        if self.sweep_axis in ("k", "n"):
            for v in self.sweep_values:
                if not float(v).is_integer():  # nan and inf are not
                    raise ConfigurationError(
                        f"sweep axis {self.sweep_axis} takes whole numbers, got {v!r}"
                    )

    def points(self) -> list[SimParams]:
        if self.sweep_axis is None:
            return [self._finalize(self.base)]
        return [
            self._finalize(self._apply(self.base, self.sweep_axis, v))
            for v in self.sweep_values
        ]

    def _apply(self, params: SimParams, axis: str, value) -> SimParams:
        if axis == "L":
            return replace(params, region=Region(params.region.kind, float(value)))
        if axis == "R":
            return replace(params, R=float(value))
        if axis == "rho":
            return replace(params, mobility=replace(params.mobility, rho=float(value)))
        if axis == "k":
            return replace(params, k=int(value))
        return replace(params, n=int(value))

    def _finalize(self, params: SimParams) -> SimParams:
        if self.density_one and self.sweep_axis != "n":
            return replace(params, n=density_one_n(params.region))
        return params


def density_one_n(region: Region) -> int:
    """The density-one population of a region: floor(area), at least 1."""
    return max(1, int(math.floor(region.area)))


@dataclass
class PointSummary:
    """Per-replica outcomes at one sweep point, plus order-free aggregates."""

    params: SimParams
    completion_times: list[int | None] = field(default_factory=list)
    failures: list[int | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)

    @property
    def completed_times(self) -> list[int]:
        return [t for t in self.completion_times if t is not None]

    def completion_fraction(self) -> float:
        return len(self.completed_times) / len(self.completion_times)

    def median_completion(self) -> float:
        times = self.completed_times
        if not times:
            return math.nan
        return float(np.median(times))


@dataclass
class SweepResult:
    points: list[PointSummary]


def replicate(plan: ExperimentPlan) -> SweepResult:
    """Execute every (sweep point, replica) run.

    A replica's ``RedwaveError`` is captured into the summary instead of
    aborting the sweep; any other exception is a fault of the program and
    propagates.  Execution is sequential but the seed policy makes the
    result independent of any execution order.
    """
    summaries: list[PointSummary] = []
    for params in plan.points():
        summary = PointSummary(params=params)
        for r in range(plan.replicas):
            p = replace(params, seed=params.seed + r)
            try:
                rec = run(p)
            except RedwaveError as exc:  # per-run capture, sweep continues
                summary.completion_times.append(None)
                summary.failures.append(None)
                summary.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            summary.completion_times.append(rec.completion_time)
            summary.failures.append(rec.failed_at)
            summary.errors.append(None)
        summaries.append(summary)
    return SweepResult(points=summaries)


# ---------------------------------------------------------------------------
# isolated agents
# ---------------------------------------------------------------------------


def isolated_bound(n: int, R: float) -> float:
    """Expected-isolation lower bound n * (1 - pi R^2 / n)^(n-1), clamped at 0."""
    if math.pi * R**2 >= n:
        return 0.0
    return n * (1.0 - math.pi * R**2 / n) ** (n - 1)


def isolated_indices(positions: np.ndarray, R: float) -> np.ndarray:
    """Agents with no other agent within (closed) distance R: fewer than two
    agents in reach, counting themselves, under the transmission kernel's
    closed-ball rule."""
    n = len(positions)
    if R == 0 or n == 0:
        return np.arange(n)
    # the agents' own frame, one reduction per column: positions.min(axis=0)
    # costs several times more at n = 65536
    xs, ys = positions[:, 0], positions[:, 1]
    frame = (xs.min(), ys.min(), xs.max(), ys.max())
    grid = BucketGrid(positions, np.arange(n), bucket_side(n, R, frame), frame)
    # pass 1 queries only the agents that share their own bucket, within it,
    # and settles those with a second agent in reach there; pass 2 counts
    # every other agent over the 3x3 block from scratch (at density one most
    # agents settle in pass 1, each against a few candidates, not about 9)
    reached = np.zeros(n, dtype=np.int64)
    crowded = np.flatnonzero(np.diff(grid.start)[grid.keys] > 1)
    for block in (0, 1):
        queries = crowded if block == 0 else np.flatnonzero(reached < 2)
        for q, counts, _, d2 in grid.query(queries, block):
            starts = np.cumsum(counts) - counts
            reached[q] = np.add.reduceat(in_reach(d2, R), starts, dtype=np.int64)
    return np.flatnonzero(reached < 2)


def isolated_count(n: int, R: float, region: Region, gen: np.random.Generator) -> int:
    """The number of isolated agents among n uniform placements."""
    return len(isolated_indices(_uniform_in_region(n, region, gen), R))
