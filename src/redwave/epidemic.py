"""The k-flooding state machine.

Agents are white (non-informed), red (informed-active, with a countdown of
at most k remaining active steps) or black (informed-removed).  A time step
runs a transmission phase and a move phase in configurable order; agents
informed during step t enter the end-of-step snapshot as red(k) and start
transmitting at step t+1.

The engine stores the population in flat numpy arrays for speed and runs
the two phases, :func:`transmit` and :func:`move`, in place on them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GeometryError
from .geometry import BucketGrid, Region, bucket_side, in_reach
from .mobility import (
    MobilityMode,
    RngStream,
    build_supercell_grid,
    cellular_walk_all,
    init_positions,
    walk_all,
)

WHITE, RED, BLACK = 0, 1, 2
_NONE = np.empty(0, dtype=np.int64)
# independent RngStream streams of a run's seed, one per layer
PLACEMENT, SOURCES, MOVES = 0, 1, 2


@dataclass(frozen=True)
class SimParams:
    """The full experiment contract for a single run."""

    region: Region
    n: int
    R: float
    k: int = 1
    mobility: MobilityMode = MobilityMode.standard(0.0)
    phase_order: str = "transmit_then_move"  # or "move_then_transmit"
    transmission_scope: str = "euclidean"  # or "same_supercell"
    sources: object = "random"  # "random" or explicit sequence of points
    seed: int = 0
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0):
            raise ConfigurationError("transmission radius R must be finite and positive")
        if self.n < 1:
            raise ConfigurationError("need at least one agent")
        if self.k < 1:
            raise ConfigurationError("k must be a positive integer")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.phase_order not in ("transmit_then_move", "move_then_transmit"):
            raise ConfigurationError(f"unknown phase order {self.phase_order!r}")
        if self.transmission_scope not in ("euclidean", "same_supercell"):
            raise ConfigurationError(
                f"unknown transmission scope {self.transmission_scope!r}"
            )
        if self.transmission_scope == "same_supercell" and self.mobility.kind != "cellular":
            raise ConfigurationError("same_supercell scope requires cellular mobility")
        if isinstance(self.sources, str):
            if self.sources != "random":
                raise ConfigurationError(f"unknown source spec {self.sources!r}")
            return
        pts = np.asarray(self.sources, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise ConfigurationError("explicit source set is empty")
        if len(pts) > self.n:
            raise ConfigurationError(f"{len(pts)} explicit sources but only {self.n} agents")
        if not np.all(self.region.contains(pts, tol=1e-9)):
            raise GeometryError("source points must lie inside the region")


@dataclass
class Snapshot:
    """All agent positions and states at the end of a step."""

    step: int
    positions: np.ndarray  # (n, 2) float
    states: np.ndarray  # (n,) int8: 0 white, 1 red, 2 black
    countdown: np.ndarray  # (n,) int32: remaining active steps of red agents
    informed_at: np.ndarray  # (n,) int64, -1 if never informed
    # (n,) int64 informing red, -1 for sources: the nearest red in reach, or
    # the lowest-index red of the supercell under the same-supercell scope
    informer: np.ndarray
    chain_origin: np.ndarray  # (n, 2): start position of the informing chain's source

    @property
    def n(self) -> int:
        return len(self.states)

    def counts(self) -> tuple[int, int, int]:
        """(white, red, black) agent counts."""
        return (
            int(np.count_nonzero(self.states == WHITE)),
            int(np.count_nonzero(self.states == RED)),
            int(np.count_nonzero(self.states == BLACK)),
        )

    def copy(self) -> "Snapshot":
        return Snapshot(
            self.step,
            self.positions.copy(),
            self.states.copy(),
            self.countdown.copy(),
            self.informed_at.copy(),
            self.informer.copy(),
            self.chain_origin.copy(),
        )


@dataclass
class StepSeries:
    """Per-step instrumentation carried by a RunRecord."""

    white: list[int] = field(default_factory=list)
    red: list[int] = field(default_factory=list)
    black: list[int] = field(default_factory=list)


@dataclass
class RunRecord:
    """Outcome of one run: exactly one of completion / failure / exhaustion."""

    params: SimParams
    completion_time: int | None = None
    failed_at: int | None = None
    exhausted: bool = False
    series: StepSeries = field(default_factory=StepSeries)
    final: Snapshot | None = None
    source_indices: tuple[int, ...] = ()
    chain_violations: int = 0
    ecc_sources: float | None = None  # filled by multi-source experiments
    snapshots = None  # always None; the benchmark's output probe reads it

    def steps_run(self) -> int:
        if self.completion_time is not None:
            return self.completion_time
        if self.failed_at is not None:
            return self.failed_at
        return self.params.max_steps


# ---------------------------------------------------------------------------
# transmission kernel
# ---------------------------------------------------------------------------


def _nearest_reds(chunks):
    """Neighbour-query chunks of whites against reds (see
    :meth:`BucketGrid.query`), reduced per white with a candidate: the
    whites, their least squared distance to a candidate and the lowest red
    index at that distance."""
    found = [(_NONE, np.empty(0), _NONE)]
    for w, counts, r, d2 in chunks:
        starts = np.cumsum(counts) - counts
        best = np.minimum.reduceat(d2, starts)
        tied = np.flatnonzero(d2 == np.repeat(best, counts))  # at least one per white
        found.append((w, best, np.minimum.reduceat(r[tied], np.searchsorted(tied, starts))))
    return tuple(map(np.concatenate, zip(*found)))


def _inform_euclidean(
    positions: np.ndarray, reds: np.ndarray, whites: np.ndarray, R: float
) -> tuple[np.ndarray, np.ndarray]:
    """Whites within closed distance R of a red, plus their nearest informer;
    distance ties go to the lowest red index.  A chain advances at most
    R + rho a step: one move plus one hop.

    Two stages over one bucket grid of the reds, of side ``s`` = R / 3,
    widened as :func:`bucket_side` widens a reach.  Stage 1 queries the
    whites in the 3x3 block of buckets and settles a white whose best
    squared distance is below ``s**2``, less a 1e-9 relative margin against
    floor rounding: every red outside its block is farther than ``s``, and
    ``s`` < R keeps it in reach.  Stage 2 queries the other whites at the
    least block ``b`` with ``b * s >= R * (1 + 1e-9)``, so that every red in
    reach is a candidate, and keeps those in reach.  When ``s`` is widened
    that far, ``b`` is 1 and stage 1 is the whole query.
    """
    side = bucket_side(positions, R / 3)
    # the quotient's rounding must not add a block when b * s is R * (1 + 1e-9)
    block = math.ceil(R * (1 + 1e-9) / side - 1e-12)
    grid = BucketGrid(positions, reds, side, margin=block)
    w, best, nearest = _nearest_reds(grid.query(whites, 1))
    informed, informers = [], []
    if block > 1:
        hit = best < side * side * (1 - 1e-9)
        informed.append(w[hit])
        informers.append(nearest[hit])
        settled = np.zeros(len(positions), dtype=bool)
        settled[w[hit]] = True
        w, best, nearest = _nearest_reds(grid.query(whites[~settled[whites]], block))
    hit = in_reach(best, R)
    informed.append(w[hit])
    informers.append(nearest[hit])
    return np.concatenate(informed), np.concatenate(informers)


def _inform_same_supercell(
    positions: np.ndarray, reds: np.ndarray, whites: np.ndarray, sgrid
) -> tuple[np.ndarray, np.ndarray]:
    """Whites sharing a supercell with a red, each with the lowest-index red
    of its supercell as informer: one scatter over the supercell keys.

    No distance decides who is informed, and the informer feeds only the
    chain-speed check in :func:`transmit`.  Its bound of 3 sqrt(2) rho per
    step holds for any red of the supercell: a move spans at most the 3x3
    supercell block (2 sqrt(2) rho) and a hop at most the supercell
    diagonal (sqrt(2) rho).
    """
    n = len(positions)
    key = sgrid.flat_keys(positions, 1)  # one per supercell of the bounding box
    first = np.full(key.max() + 1, n)  # n: no red
    np.minimum.at(first, key[reds], reds)
    informers = first[key[whites]]
    hit = informers < n
    return whites[hit], informers[hit]


# ---------------------------------------------------------------------------
# phases and stepping
# ---------------------------------------------------------------------------


def transmit(s: Snapshot, params: SimParams, sgrid, t: int) -> int:
    """Transmission phase of step t, in place on ``s``.

    Returns the number of newly informed agents farther from their chain's
    source than t steps at the scope's maximum information speed, which
    its kernel's docstring states.
    """
    reds = np.flatnonzero(s.states == RED)
    whites = np.flatnonzero(s.states == WHITE)
    if params.transmission_scope == "same_supercell":
        newly, informers = _inform_same_supercell(s.positions, reds, whites, sgrid)
        speed = 3 * math.sqrt(2) * params.mobility.rho
    else:
        newly, informers = _inform_euclidean(s.positions, reds, whites, params.R)
        speed = params.R + params.mobility.rho
    # countdown of agents red at phase start; expired reds turn black
    s.countdown[reds] -= 1
    s.states[reds[s.countdown[reds] == 0]] = BLACK
    if newly.size == 0:
        return 0
    s.states[newly] = RED
    s.countdown[newly] = params.k
    s.informed_at[newly] = t
    s.informer[newly] = informers
    s.chain_origin[newly] = s.chain_origin[informers]
    d = np.hypot(
        s.positions[newly, 0] - s.chain_origin[newly, 0],
        s.positions[newly, 1] - s.chain_origin[newly, 1],
    )
    return int(np.count_nonzero(d > t * speed * (1 + 1e-9)))


def move(s: Snapshot, params: SimParams, sgrid, gen: np.random.Generator) -> None:
    """Move phase, in place on ``s``: every agent steps independently."""
    if params.mobility.kind == "cellular":
        s.positions = cellular_walk_all(s.positions, sgrid, params.region, gen)
    elif params.mobility.rho > 0:
        s.positions = walk_all(s.positions, params.mobility.rho, params.region, gen)


class Engine:
    """Sequential, deterministic single-run engine.  Placement, random
    source choice and moves draw from their own streams of the seed."""

    def __init__(self, params: SimParams, initial_positions: np.ndarray | None = None):
        self.params = params
        self.gen = RngStream(params.seed, MOVES).generator()
        self.sgrid = None
        if params.mobility.kind == "cellular":
            self.sgrid = build_supercell_grid(params.region, params.mobility.rho)
        if initial_positions is not None:
            pos = np.array(initial_positions, dtype=float)
            if pos.shape != (params.n, 2):
                raise ConfigurationError("initial positions must have shape (n, 2)")
            if not np.all(params.region.contains(pos)):
                raise ConfigurationError("initial positions must lie inside the region")
        else:
            placement = RngStream(params.seed, PLACEMENT).generator()
            pos = init_positions(params.n, params.region, params.mobility, placement, self.sgrid)
        n = params.n
        self.snapshot = Snapshot(
            step=0,
            positions=pos,
            states=np.full(n, WHITE, dtype=np.int8),
            countdown=np.zeros(n, dtype=np.int32),
            informed_at=np.full(n, -1, dtype=np.int64),
            informer=np.full(n, -1, dtype=np.int64),
            chain_origin=pos.copy(),
        )
        self.source_indices = self._pick_sources()
        src, s = list(self.source_indices), self.snapshot
        s.states[src], s.countdown[src], s.informed_at[src] = RED, params.k, 0
        self.chain_violations = 0

    def _pick_sources(self) -> tuple[int, ...]:
        params = self.params
        if isinstance(params.sources, str):
            return (int(RngStream(params.seed, SOURCES).generator().integers(params.n)),)
        # sources materialize as the nearest agents to the requested points
        chosen: list[int] = []
        pos = self.snapshot.positions
        for p in np.asarray(params.sources, dtype=float).reshape(-1, 2):
            d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
            order = np.argsort(d, kind="stable")
            pick = next(int(i) for i in order if int(i) not in chosen)
            chosen.append(pick)
        return tuple(chosen)

    def _move(self) -> None:
        move(self.snapshot, self.params, self.sgrid, self.gen)

    def step(self) -> Snapshot:
        """Advance one time step and return the end-of-step snapshot."""
        t = self.snapshot.step + 1
        if self.params.phase_order == "transmit_then_move":
            self.chain_violations += transmit(self.snapshot, self.params, self.sgrid, t)
            self._move()
        else:
            self._move()
            self.chain_violations += transmit(self.snapshot, self.params, self.sgrid, t)
        self.snapshot.step = t
        return self.snapshot


def run(
    params: SimParams,
    initial_positions: np.ndarray | None = None,
    on_step: Callable[[Snapshot], None] | None = None,
) -> RunRecord:
    """Run the process to completion, failure, or max_steps exhaustion.

    ``on_step`` is called with the engine's live snapshot once after
    placement (step 0) and once after each step; it must copy whatever it
    keeps, since the engine updates that snapshot in place.
    """
    eng = Engine(params, initial_positions=initial_positions)
    rec = RunRecord(params=params, source_indices=eng.source_indices)
    snap = eng.snapshot
    while True:
        w, r, b = snap.counts()
        rec.series.white.append(w)
        rec.series.red.append(r)
        rec.series.black.append(b)
        if on_step is not None:
            on_step(snap)
        if r == 0 and snap.step > 0:
            if w == 0:
                rec.completion_time = snap.step
            else:
                rec.failed_at = snap.step
            break
        if snap.step == params.max_steps:
            rec.exhausted = True
            break
        snap = eng.step()
    rec.final = eng.snapshot.copy()
    rec.chain_violations = eng.chain_violations
    return rec
