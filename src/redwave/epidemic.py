"""The k-flooding state machine.

Agents are white (non-informed), red (informed-active, with a countdown of
at most k remaining active steps) or black (informed-removed).  A time step
runs a transmission phase and a move phase in configurable order; agents
informed during step t enter the end-of-step snapshot as red(k) and start
transmitting at step t+1.

The engine stores the population in flat numpy arrays for speed and runs
the two phases, :func:`transmit` in place on them and :func:`move` into a
new positions array.  Each step runs its transmission beside the move of
the positions that transmission reads, on a thread of its own joined
before the step returns (after the transmission, on one CPU).
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GeometryError
from .geometry import BucketGrid, CellGrid, Region, bucket_side, in_reach, point_items
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
# Most agents in a run: far above the largest n in use (262144), far below
# a population whose per-agent arrays would not fit in memory.
_MAX_AGENTS = 1 << 24


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
        if self.n > _MAX_AGENTS:  # before any per-agent array is allocated
            raise ConfigurationError(
                f"{self.n} agents, above the {_MAX_AGENTS} agents a run may hold"
            )
        if not 1 <= self.k <= np.iinfo(np.int32).max:  # the countdown is int32
            raise ConfigurationError(f"k must be an integer in [1, 2**31 - 1], got {self.k}")
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
        if self.mobility.kind == "cellular" and self.mobility.rho <= 0:
            raise ConfigurationError("cellular mobility requires rho > 0")
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

    @cached_property
    def sgrid(self) -> CellGrid | None:
        """The run's supercell grid, formed on first read; None for the
        standard walk."""
        if self.mobility.kind != "cellular":
            return None
        return build_supercell_grid(self.region, self.mobility.rho)


@dataclass
class Snapshot:
    """All agent positions and states at the end of a step."""

    step: int
    positions: np.ndarray  # (n, 2) float
    states: np.ndarray  # (n,) int8: 0 white, 1 red, 2 black
    # (n,) int32: remaining active steps of red agents, 0 for every agent
    # that is not red
    countdown: np.ndarray
    chain_origin: np.ndarray  # (n, 2): start position of the informing chain's source

    def counts(self) -> tuple[int, int, int]:
        """(white, red, black) agent counts."""
        return (
            int(np.count_nonzero(self.states == WHITE)),
            int(np.count_nonzero(self.states == RED)),
            int(np.count_nonzero(self.states == BLACK)),
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
    positions: np.ndarray, reds: np.ndarray, whites: np.ndarray, R: float, region: Region
) -> tuple[np.ndarray, np.ndarray]:
    """Whites within closed distance R of a red, plus their nearest informer;
    distance ties go to the lowest red index.  A chain advances at most
    R + rho a step: one move plus one hop.

    Two stages over one bucket grid of side ``s`` = R / 3, widened as
    :func:`bucket_side` widens a reach over ``region``, which holds every
    agent and frames the grid.  The grid keys the reds and the whites
    alone, gathered as :func:`point_items` into one array, reds first:
    no other agent's position is read.  The whites are filtered once, to
    the front: those with a red in the block of ``b`` buckets around
    their own, where ``b`` is the least block with
    ``b * s >= R * (1 + 1e-9)``, so that every red in reach is in it.
    Stage 1 queries the front in the 3x3 block and settles a white whose
    best squared distance is below ``s**2``, less a 1e-9 relative margin
    against floor rounding: every red outside its block is farther than
    ``s``, and ``s`` < R keeps it in reach.  Stage 2 queries the rest of
    the front at block ``b`` and keeps those in reach.  When ``s`` is
    widened that far, ``b`` is 1 and stage 1 is the whole query.
    """
    side = bucket_side(len(positions), R / 3, region.bounds)
    # the quotient's rounding must not add a block when b * s is R * (1 + 1e-9);
    # a side over 1e12 R would make it 0
    block = max(1, math.ceil(R * (1 + 1e-9) / side - 1e-12))
    items = point_items(np.ascontiguousarray(positions, dtype=float))
    # rows 0 .. m - 1 are the reds, in index order, and the rest the whites
    picked = items[np.concatenate((reds, whites))]
    m = len(reds)
    grid = BucketGrid(picked.view(float).reshape(-1, 2), np.arange(m), side, region.bounds, block)
    front = grid.near(block, first=m)
    w, best, nearest = _nearest_reds(grid.query(front, 1))
    informed, informers = [], []
    if block > 1:
        hit = best < side * side * (1 - 1e-9)
        informed.append(w[hit])
        informers.append(nearest[hit])
        settled = np.zeros(len(picked), dtype=bool)
        settled[w[hit]] = True
        w, best, nearest = _nearest_reds(grid.query(front[~settled[front]], block))
    hit = in_reach(best, R)
    informed.append(w[hit])
    informers.append(nearest[hit])
    return whites[np.concatenate(informed) - m], reds[np.concatenate(informers)]


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


def transmit(s: Snapshot, params: SimParams, t: int) -> int:
    """Transmission phase of step t, in place on ``s``.

    Returns the number of newly informed agents farther from their chain's
    source than t steps at the scope's maximum information speed, which
    its kernel's docstring states.
    """
    reds = np.flatnonzero(s.states == RED)
    whites = np.flatnonzero(s.states == WHITE)
    if params.transmission_scope == "same_supercell":
        newly, informers = _inform_same_supercell(s.positions, reds, whites, params.sgrid)
        speed = 3 * math.sqrt(2) * params.mobility.rho
    else:
        newly, informers = _inform_euclidean(s.positions, reds, whites, params.R, params.region)
        speed = params.R + params.mobility.rho
    # countdown of agents red at phase start; expired reds turn black
    s.countdown[reds] -= 1
    s.states[reds[s.countdown[reds] == 0]] = BLACK
    if newly.size == 0:
        return 0
    s.states[newly] = RED
    s.countdown[newly] = params.k
    origin = point_items(s.chain_origin)
    origin[newly] = origin[informers]
    d = point_items(s.positions)[newly] - origin[newly]
    return int(np.count_nonzero(np.hypot(d.real, d.imag) > t * speed * (1 + 1e-9)))


def move(positions: np.ndarray, params: SimParams, gen: np.random.Generator) -> np.ndarray:
    """Move phase: every agent steps independently from ``positions``, which
    it only reads.  Returns the new positions."""
    if params.mobility.kind == "cellular":
        return cellular_walk_all(positions, params.sgrid, params.region, gen)
    return walk_all(positions, params.mobility.rho, params.region, gen)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Engine:
    """Deterministic single-run engine.  Placement, random source choice and
    moves draw from their own streams of the seed.  A step's move runs beside
    its transmission on a thread of its own, which the step joins before it
    returns (see :meth:`step`), and every positions array the engine
    publishes is read-only, so that a write into positions a move is
    reading raises ``ValueError`` instead of racing.  When the process may
    run on one CPU only, the move runs on the calling thread after the
    transmission instead: a second thread there only shares that CPU and
    gets its own malloc arena."""

    def __init__(self, params: SimParams, initial_positions: np.ndarray | None = None):
        self.params = params
        self.gen = RngStream(params.seed, MOVES).generator()
        sgrid = params.sgrid  # formed before any move thread reads it
        if initial_positions is not None:
            pos = np.array(initial_positions, dtype=float)
            if pos.shape != (params.n, 2):
                raise ConfigurationError("initial positions must have shape (n, 2)")
            if not np.all(params.region.contains(pos)):
                raise ConfigurationError("initial positions must lie inside the region")
        else:
            placement = RngStream(params.seed, PLACEMENT).generator()
            pos = init_positions(params.n, params.region, params.mobility, placement, sgrid)
        pos.flags.writeable = False
        n = params.n
        self.snapshot = Snapshot(
            step=0,
            positions=pos,
            states=np.full(n, WHITE, dtype=np.int8),
            countdown=np.zeros(n, dtype=np.int32),
            chain_origin=pos.copy(),
        )
        self.source_indices = self._pick_sources()
        src, s = list(self.source_indices), self.snapshot
        s.states[src], s.countdown[src] = RED, params.k
        self.chain_violations = 0
        self._held = None  # under move_then_transmit, the next step's move outcome
        self._inline = _cpus() == 1

    def _pick_sources(self) -> tuple[int, ...]:
        params = self.params
        if isinstance(params.sources, str):
            return (int(RngStream(params.seed, SOURCES).generator().integers(params.n)),)
        # sources materialize as the nearest agents to the requested points,
        # the lowest index on a tie, each point taking an agent not yet chosen
        chosen: list[int] = []
        pos = self.snapshot.positions
        for p in np.asarray(params.sources, dtype=float).reshape(-1, 2):
            d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
            d[chosen] = np.inf
            chosen.append(int(np.argmin(d)))
        return tuple(chosen)

    def _move(self, positions: np.ndarray) -> np.ndarray:
        return move(positions, self.params, self.gen)

    def _beside_move(self, positions: np.ndarray, phase=lambda: None):
        """Run ``phase()`` beside the move of ``positions`` and return the
        move's outcome: the new, read-only positions or the move's error.
        The move runs on a thread of its own, joined before this returns
        however the phase ends, or after the phase on one CPU."""
        moved = []
        # a thread carries every error to the caller; inline, an interrupt
        # or an exit leaves at once, even from a move that no step would use
        caught = Exception if self._inline else BaseException

        def move_positions():
            try:
                new = self._move(positions)
                new.flags.writeable = False
                moved.append(new)
            except caught as err:
                moved.append(err)

        if self._inline:
            phase()
            move_positions()
        else:
            mover = threading.Thread(target=move_positions)
            mover.start()
            try:
                phase()
            finally:
                mover.join()
        return moved[0]

    def step(self) -> Snapshot:
        """Advance one time step and return the end-of-step snapshot.

        The step runs ``transmit`` beside the move of the positions it
        reads, and joins that move before it returns: no move outlives its
        step.  Under ``transmit_then_move`` the moved positions are this
        step's, and the step raises the move's error.  Under
        ``move_then_transmit`` they are the next step's, and the engine
        holds them, or the move's error, until the next step takes them;
        step 1 first moves the placement alone.  That move is not started
        when this step is certainly the last: at ``max_steps``, or when, at
        the step's start, no white is left and no red has more than one
        active step.  A run that dies out with whites left drops the held
        move and its error.  The step equals the two phases run one after
        the other: moves read only positions that nothing writes, and only
        they draw from the move stream, one at a time.
        """
        s, p, t = self.snapshot, self.params, self.snapshot.step + 1

        def transmission():
            self.chain_violations += transmit(s, p, t)

        moved_first = p.phase_order == "move_then_transmit"
        if moved_first:
            moved, self._held = self._held, None
            if moved is None:  # step 1: the placement moves alone
                moved = self._beside_move(s.positions)
        else:
            moved = self._beside_move(s.positions, transmission)
        if isinstance(moved, BaseException):
            raise moved
        s.positions = moved
        if moved_first:
            if t < p.max_steps and (np.any(s.states == WHITE) or np.any(s.countdown > 1)):
                self._held = self._beside_move(s.positions, transmission)
            else:
                transmission()
        s.step = t
        return s


def run(
    params: SimParams,
    initial_positions: np.ndarray | None = None,
    on_step: Callable[[Snapshot, bool], None] | None = None,
) -> RunRecord:
    """Run the process to completion, failure, or max_steps exhaustion.

    ``on_step(snap, last)`` is called with the engine's live snapshot once
    after placement (step 0) and once after each step, with ``last`` True
    on the final call only: the step that completes the flood, the step
    it dies out at, or step ``max_steps``.  It must copy whatever it
    keeps, since the engine updates that snapshot in place, and cannot
    write the positions, which are read-only.
    """
    eng = Engine(params, initial_positions=initial_positions)
    rec = RunRecord(params=params, source_indices=eng.source_indices)
    snap = eng.snapshot
    while True:
        w, r, b = snap.counts()
        rec.series.white.append(w)
        rec.series.red.append(r)
        rec.series.black.append(b)
        ended = r == 0 and snap.step > 0  # completed or died out
        last = ended or snap.step == params.max_steps
        if on_step is not None:
            on_step(snap, last)
        if last:
            break
        snap = eng.step()
    if not ended:
        rec.exhausted = True
    elif w == 0:
        rec.completion_time = snap.step
    else:
        rec.failed_at = snap.step
    rec.final = eng.snapshot  # the engine is dropped on return
    rec.chain_violations = eng.chain_violations
    return rec
