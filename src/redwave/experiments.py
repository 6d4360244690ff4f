"""Seeded multi-replica experiment harness: completion-time sweeps, scaling
fits, multi-source runs, and the isolated-agent / sub-threshold experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .epidemic import RunRecord, SimParams, run
from .errors import ConfigurationError, GeometryError
from .geometry import Region, bucket_side, eccentricity, in_reach, neighbour_blocks
from .mobility import RngStream, _uniform_in_region, as_generator


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
    density_one: bool = True  # n = floor(area(S)) unless given explicitly

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if self.sweep_axis is not None and not self.sweep_values:
            raise ConfigurationError("sweep axis declared without values")

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
        if axis == "n":
            return replace(params, n=int(value))
        raise ConfigurationError(f"unknown sweep axis {axis!r}")

    def _finalize(self, params: SimParams) -> SimParams:
        if self.density_one and self.sweep_axis != "n":
            return replace(params, n=max(1, int(math.floor(params.region.area))))
        return params


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

    def quantile_completion(self, q: float) -> float:
        times = self.completed_times
        if not times:
            return math.nan
        return float(np.quantile(times, q))


@dataclass
class SweepResult:
    plan: ExperimentPlan
    points: list[PointSummary]


def replicate(plan: ExperimentPlan) -> SweepResult:
    """Execute every (sweep point, replica) run.

    Per-run errors are captured into the summary instead of aborting the
    sweep.  Execution is sequential but the seed policy makes the result
    independent of any execution order.
    """
    summaries: list[PointSummary] = []
    for params in plan.points():
        summary = PointSummary(params=params)
        for r in range(plan.replicas):
            p = replace(params, seed=params.seed + r)
            try:
                rec = run(p)
            except Exception as exc:  # per-run capture, sweep continues
                summary.completion_times.append(None)
                summary.failures.append(None)
                summary.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            summary.completion_times.append(rec.completion_time)
            summary.failures.append(rec.failed_at)
            summary.errors.append(None)
        summaries.append(summary)
    return SweepResult(plan=plan, points=summaries)


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
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2)


# ---------------------------------------------------------------------------
# isolated agents and the completion threshold
# ---------------------------------------------------------------------------


def isolated_bound(n: int, R: float) -> float:
    """Expected-isolation lower bound n * (1 - pi R^2 / n)^(n-1), clamped at 0."""
    if math.pi * R**2 >= n:
        return 0.0
    return n * (1.0 - math.pi * R**2 / n) ** (n - 1)


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


def isolated_indices(positions: np.ndarray, R: float) -> np.ndarray:
    """Agents with no other agent within (closed) distance R: fewer than two
    agents in reach, counting themselves, under the transmission kernel's
    closed-ball rule."""
    n = len(positions)
    if R == 0 or n == 0:
        return np.arange(n)
    agents = np.arange(n)
    reached = np.zeros(n, dtype=np.int64)
    for q, counts, _, d2 in neighbour_blocks(positions, agents, agents, bucket_side(positions, R)):
        starts = np.cumsum(counts) - counts
        reached[q] = np.add.reduceat(in_reach(d2, R), starts, dtype=np.int64)
    return np.flatnonzero(reached < 2)


@dataclass
class IsolatedResult:
    count: int
    bound: float
    positions: np.ndarray


def isolated_count(n: int, R: float, region: Region, rng) -> IsolatedResult:
    """Count isolated agents among n uniform placements, plus the analytic
    expected-count lower bound for the sqrt(n)-square setting."""
    pos = _uniform_in_region(n, region, as_generator(rng))
    idx = isolated_indices(pos, R)
    return IsolatedResult(count=len(idx), bound=isolated_bound(n, R), positions=pos)


def multi_source_run(params: SimParams) -> RunRecord:
    """Run with explicit source positions; the record carries ecc(A, S)."""
    if isinstance(params.sources, str):
        raise ConfigurationError("multi_source_run requires an explicit source set")
    pts = np.atleast_2d(np.asarray(params.sources, dtype=float))
    if not np.all(params.region.contains(pts, tol=1e-9)):
        raise GeometryError("source set not contained in region")
    rec = run(params)
    rec.ecc_sources = eccentricity(pts, params.region)
    return rec


@dataclass
class ThresholdResult:
    trials: int = 0
    isolated_sources_found: int = 0
    failures: int = 0
    skipped: int = 0


def threshold_experiment(params: SimParams, trials: int = 1) -> ThresholdResult:
    """Sub-threshold experiment: seed the infection at an isolated agent.

    Per trial: place agents, find the isolated ones at t=0; if none, skip
    the trial.  Otherwise run 1-flooding from the lowest-index isolated
    agent on those exact positions and tally non-completions.
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
