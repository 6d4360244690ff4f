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

from .errors import ConfigurationError
from .geometry import Region, bucket_side, in_reach, neighbour_blocks
from .mobility import (
    MobilityMode,
    RngStream,
    as_generator,
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
    burn_in: int = 0  # extra mobility steps after the stationary start

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise ConfigurationError("transmission radius R must be positive")
        if self.n < 1:
            raise ConfigurationError("need at least one agent")
        if self.k < 1:
            raise ConfigurationError("k must be a positive integer")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.phase_order not in ("transmit_then_move", "move_then_transmit"):
            raise ConfigurationError(f"unknown phase order {self.phase_order!r}")
        if self.transmission_scope not in ("euclidean", "same_supercell"):
            raise ConfigurationError(
                f"unknown transmission scope {self.transmission_scope!r}"
            )
        if self.transmission_scope == "same_supercell" and self.mobility.kind != "cellular":
            raise ConfigurationError("same_supercell scope requires cellular mobility")


@dataclass
class Snapshot:
    """All agent positions and states at the end of a step."""

    step: int
    positions: np.ndarray  # (n, 2) float
    states: np.ndarray  # (n,) int8: 0 white, 1 red, 2 black
    countdown: np.ndarray  # (n,) int32: remaining active steps of red agents
    informed_at: np.ndarray  # (n,) int64, -1 if never informed
    informer: np.ndarray  # (n,) int64 index of informing agent, -1 for sources
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


def _nearest(counts: np.ndarray, reds: np.ndarray, d2: np.ndarray):
    """Per query of a neighbour-query chunk: the least squared distance and
    the lowest red index at that distance."""
    starts = np.cumsum(counts) - counts
    best = np.minimum.reduceat(d2, starts)
    tied = np.flatnonzero(d2 == np.repeat(best, counts))  # at least one per query
    return best, np.minimum.reduceat(reds[tied], np.searchsorted(tied, starts))


def _inform_euclidean(
    positions: np.ndarray, states: np.ndarray, R: float
) -> tuple[np.ndarray, np.ndarray]:
    """Whites within closed distance R of a red, plus their nearest informer.

    Buckets of side at least R, so only the 3x3 bucket block around a white
    can hold reds within range; distance ties go to the lowest red index.
    """
    red_idx = np.flatnonzero(states == RED)
    white_idx = np.flatnonzero(states == WHITE)
    informed, informers = [_NONE], [_NONE]
    side = bucket_side(positions, R)
    for w, counts, reds, d2 in neighbour_blocks(positions, white_idx, red_idx, side):
        best, nearest = _nearest(counts, reds, d2)
        hit = in_reach(best, R)
        informed.append(w[hit])
        informers.append(nearest[hit])
    return np.concatenate(informed), np.concatenate(informers)


def _inform_same_supercell(
    positions: np.ndarray, states: np.ndarray, sgrid
) -> tuple[np.ndarray, np.ndarray]:
    """Whites sharing a supercell with a red, with the nearest such red.

    The supercells are the buckets, and each bucket's block is itself;
    distance ties go to the lowest red index.
    """
    red_idx = np.flatnonzero(states == RED)
    white_idx = np.flatnonzero(states == WHITE)
    informed, informers = [_NONE], [_NONE]
    blocks = neighbour_blocks(positions, white_idx, red_idx, sgrid.side, sgrid.origin, 0)
    for w, counts, reds, d2 in blocks:
        informed.append(w)
        informers.append(_nearest(counts, reds, d2)[1])
    return np.concatenate(informed), np.concatenate(informers)


# ---------------------------------------------------------------------------
# phases and stepping
# ---------------------------------------------------------------------------


def transmit(s: Snapshot, params: SimParams, sgrid, t: int) -> int:
    """Transmission phase of step t, in place on ``s``.

    Returns the number of newly informed agents farther from their chain's
    source than the maximum information speed allows.
    """
    if params.transmission_scope == "same_supercell":
        newly, informers = _inform_same_supercell(s.positions, s.states, sgrid)
    else:
        newly, informers = _inform_euclidean(s.positions, s.states, params.R)
    # countdown of agents red at phase start; expired reds turn black
    was_red = s.states == RED
    s.countdown[was_red] -= 1
    s.states[was_red & (s.countdown == 0)] = BLACK
    if newly.size == 0:
        return 0
    s.states[newly] = RED
    s.countdown[newly] = params.k
    s.informed_at[newly] = t
    s.informer[newly] = informers
    s.chain_origin[newly] = s.chain_origin[informers]
    # maximum information speed: per step, one move plus one
    # transmission hop.  Euclidean scope: R + rho.  Supercell scope:
    # a move spans at most the 3x3 supercell block (2 sqrt(2) rho)
    # and a hop at most the supercell diagonal (sqrt(2) rho).
    d = np.hypot(
        s.positions[newly, 0] - s.chain_origin[newly, 0],
        s.positions[newly, 1] - s.chain_origin[newly, 1],
    )
    if params.transmission_scope == "same_supercell":
        speed = 3 * math.sqrt(2) * params.mobility.rho
    else:
        speed = params.R + params.mobility.rho
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
        self.region = params.region
        self.gen = RngStream(params.seed, MOVES).generator()
        self.sgrid = None
        if params.mobility.kind == "cellular":
            self.sgrid = build_supercell_grid(self.region, params.mobility.rho)
        if initial_positions is not None:
            pos = np.array(initial_positions, dtype=float)
            if pos.shape != (params.n, 2):
                raise ConfigurationError("initial positions must have shape (n, 2)")
            if not np.all(self.region.contains(pos)):
                raise ConfigurationError("initial positions must lie inside the region")
        else:
            placement = RngStream(params.seed, PLACEMENT)
            pos = init_positions(
                params.n, self.region, params.mobility, placement, params.burn_in, self.sgrid
            )
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
            if params.sources != "random":
                raise ConfigurationError(f"unknown source spec {params.sources!r}")
            return (int(RngStream(params.seed, SOURCES).generator().integers(params.n)),)
        pts = np.atleast_2d(np.asarray(params.sources, dtype=float))
        if pts.size == 0:
            raise ConfigurationError("explicit source set is empty")
        if len(pts) > params.n:
            raise ConfigurationError(
                f"{len(pts)} explicit sources but only {params.n} agents to hold them"
            )
        if not np.all(self.region.contains(pts, tol=1e-9)):
            raise ConfigurationError("source points must lie inside the region")
        # sources materialize as the nearest agents to the requested points
        chosen: list[int] = []
        pos = self.snapshot.positions
        for p in pts:
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


def transmission_phase(snapshot: Snapshot, params: SimParams, grid=None) -> Snapshot:
    """Standalone transmission phase on a snapshot copy (for tests/audits)."""
    out = snapshot.copy()
    out.step = snapshot.step + 1
    transmit(out, params, grid, out.step)
    return out


def move_phase(snapshot: Snapshot, params: SimParams, rng) -> Snapshot:
    """Standalone move phase: every agent steps independently, states unchanged."""
    out = snapshot.copy()
    sgrid = None
    if params.mobility.kind == "cellular":
        sgrid = build_supercell_grid(params.region, params.mobility.rho)
    move(out, params, sgrid, as_generator(rng))
    return out


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
