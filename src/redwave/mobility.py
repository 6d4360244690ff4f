"""Agent movement: standard random-walk steps uniform in B(x, rho) & S, the
cellular (supercell) random walk, and exact stationary starting positions,
each one :func:`rejection_sample` call with a proposal and a predicate.

All randomness flows through :class:`RngStream`, a thin wrapper over numpy's
PCG64 so that identical (seed, stream) pairs give identical sample sequences
on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MobilityError
from .geometry import CellGrid, Region, build_cell_grid

_MAX_REJECTIONS = 10**6


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: PCG64 seeded by (seed, stream)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class MobilityMode:
    """Movement model: "standard" (disk jumps) or "cellular" (supercell jumps)."""

    kind: str
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in ("standard", "cellular"):
            raise ConfigurationError(f"unknown mobility kind {self.kind!r}")
        if self.rho < 0:
            raise ConfigurationError("move radius must be non-negative")

    @staticmethod
    def standard(rho: float) -> "MobilityMode":
        return MobilityMode("standard", rho)

    @staticmethod
    def cellular(rho: float) -> "MobilityMode":
        return MobilityMode("cellular", rho)


def build_supercell_grid(
    region: Region, rho: float, gamma: float = 0.5, cell_side: float | None = None
) -> CellGrid:
    """Side-rho partition used by the cellular walk.

    When an analysis cell side is given, rho must be an integer multiple of
    it so the supercell grid is a supergrid of the cell grid.
    """
    if rho <= 0:
        raise ConfigurationError("cellular mobility requires rho > 0")
    if cell_side is not None:
        ratio = rho / cell_side
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                f"supercell side {rho} is not an integer multiple of cell side {cell_side}"
            )
    return build_cell_grid(region, rho, gamma)


def rejection_sample(n: int, propose, accept, gen: np.random.Generator) -> np.ndarray:
    """n points by rejection: ``propose(rows, gen)`` draws one (m, 2)
    candidate per pending row and ``accept(candidates)`` masks those kept;
    the other rows draw again, in ascending order, until all are kept."""
    out = np.empty((n, 2))
    pending = np.arange(n)
    for _ in range(_MAX_REJECTIONS):
        cand = propose(pending, gen)
        ok = accept(cand)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if not pending.size:
            return out
    raise MobilityError(f"rejection sampling left {pending.size} of {n} rows unplaced")


def _in_disk(centres: np.ndarray, rho: float, gen: np.random.Generator) -> np.ndarray:
    """One point uniform on B(c, rho) per centre, by the sqrt-radius trick."""
    r = rho * np.sqrt(gen.random(len(centres)))
    theta = gen.random(len(centres)) * 2 * math.pi
    return centres + np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _in_block(points: np.ndarray, sgrid: CellGrid, gen: np.random.Generator) -> np.ndarray:
    """One point uniform on the 3x3 supercell block around each point's supercell."""
    corners = np.asarray(sgrid.origin) + (sgrid.cells_of(points) - 1) * sgrid.side
    return gen.random((len(points), 2)) * (3 * sgrid.side) + corners


def _covered(points: np.ndarray, sgrid: CellGrid, region: Region) -> np.ndarray:
    """Which points lie in S and in a covered supercell."""
    cells = sgrid.cells_of(points)
    return region.contains(points) & sgrid.in_cover(cells[:, 0], cells[:, 1])


def _uniform_in_region(n: int, region: Region, gen: np.random.Generator) -> np.ndarray:
    """n points uniform over S, by rejection from the bounding box."""
    lo = np.array(region.bounds[:2])
    span = np.array(region.bounds[2:]) - lo
    return rejection_sample(
        n, lambda rows, gen: lo + gen.random((len(rows), 2)) * span, region.contains, gen
    )


def walk_all(
    positions: np.ndarray, rho: float, region: Region, gen: np.random.Generator
) -> np.ndarray:
    """One standard random-walk step for every row of ``positions``: uniform
    on B(x, rho) & S.  Convexity of S with x in S keeps the acceptance rate
    above 1/4, so the loop terminates fast."""
    if rho == 0:
        return positions.copy()
    return rejection_sample(
        len(positions), lambda rows, gen: _in_disk(positions[rows], rho, gen), region.contains, gen
    )


def walk_step(x, rho: float, region: Region, rng) -> np.ndarray:
    """Single-agent standard step: uniform on B(x, rho) & S."""
    gen = as_generator(rng)
    x = np.asarray(x, dtype=float)
    if not region.contains(x):
        raise MobilityError(f"walk_step start {tuple(x)} outside region")
    return walk_all(x[None, :], rho, region, gen)[0]


def cellular_walk_all(
    positions: np.ndarray, sgrid: CellGrid, region: Region, gen: np.random.Generator
) -> np.ndarray:
    """One cellular step for every agent: uniform over union(N(C)) & S,
    drawn from the 3-rho-square block around the agent's supercell."""
    return rejection_sample(
        len(positions),
        lambda rows, gen: _in_block(positions[rows], sgrid, gen),
        lambda c: _covered(c, sgrid, region),
        gen,
    )


def cellular_walk_step(x, sgrid: CellGrid, region: Region, rng) -> np.ndarray:
    """Single-agent cellular step: uniform over the covered neighborhood of
    the agent's supercell, intersected with S."""
    gen = as_generator(rng)
    x = np.asarray(x, dtype=float)
    if not region.contains(x):
        raise MobilityError(f"cellular_walk_step start {tuple(x)} outside region")
    return cellular_walk_all(x[None, :], sgrid, region, gen)[0]


def init_positions(
    n: int,
    region: Region,
    mobility: MobilityMode,
    rng,
    burn_in: int = 0,
    sgrid: CellGrid | None = None,
) -> np.ndarray:
    """n independent draws from the walk's stationary distribution, then
    ``burn_in`` extra steps.  Both walks have a symmetric kernel, so the
    stationary density at x is proportional to the area one step from x
    reaches: |B(x, rho) & S|, or |union(N(C(x))) & S| for the cellular walk.
    x uniform on S is kept iff it is in the walk's support and one step
    proposed from x is accepted."""
    if n < 1:
        raise ConfigurationError("need at least one agent")
    gen = as_generator(rng)
    cellular = mobility.kind == "cellular"
    if cellular and sgrid is None:
        sgrid = build_supercell_grid(region, mobility.rho)

    def accept(x):
        if cellular:
            return _covered(x, sgrid, region) & _covered(_in_block(x, sgrid, gen), sgrid, region)
        return region.contains(_in_disk(x, mobility.rho, gen))

    pos = rejection_sample(
        n, lambda rows, gen: _uniform_in_region(len(rows), region, gen), accept, gen
    )
    for _ in range(burn_in):
        if cellular:
            pos = cellular_walk_all(pos, sgrid, region, gen)
        else:
            pos = walk_all(pos, mobility.rho, region, gen)
    return pos
