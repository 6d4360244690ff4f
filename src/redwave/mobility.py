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


@dataclass(frozen=True)
class MobilityMode:
    """Movement model: "standard" (disk jumps) or "cellular" (supercell jumps)."""

    kind: str
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in ("standard", "cellular"):
            raise ConfigurationError(f"unknown mobility kind {self.kind!r}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ConfigurationError("move radius must be finite and non-negative")

    @staticmethod
    def standard(rho: float) -> "MobilityMode":
        return MobilityMode("standard", rho)

    @staticmethod
    def cellular(rho: float) -> "MobilityMode":
        return MobilityMode("cellular", rho)


def build_supercell_grid(region: Region, rho: float) -> CellGrid:
    """Side-rho partition used by the cellular walk: supercells that S
    covers at least half of."""
    if rho <= 0:
        raise ConfigurationError("cellular mobility requires rho > 0")
    return build_cell_grid(region, rho, 0.5)


def rejection_sample(sources, propose, accept, gen: np.random.Generator) -> np.ndarray:
    """One point per row of ``sources``, by rejection: ``propose(rows, gen)``
    draws one (m, 2) candidate per row of the (m, ...) array ``rows`` and
    ``accept(candidates)`` masks those kept.  The first round proposes from
    ``sources`` itself and its candidates become the output; the rejected
    rows draw again, in ascending order, until all are kept."""
    out = propose(sources, gen)
    pending = np.flatnonzero(~accept(out))
    for _ in range(_MAX_REJECTIONS - 1):
        if not pending.size:
            break
        cand = propose(sources[pending], gen)
        ok = accept(cand)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    if pending.size:
        raise MobilityError(
            f"rejection sampling left {pending.size} of {len(sources)} rows unplaced"
        )
    return out


def _in_disk(centres: np.ndarray, rho: float, gen: np.random.Generator) -> np.ndarray:
    """One point uniform on B(c, rho) per centre, by the sqrt-radius trick."""
    r = rho * np.sqrt(gen.random(len(centres)))
    theta = gen.random(len(centres)) * 2 * math.pi
    out = np.empty((len(centres), 2))
    np.multiply(r, np.cos(theta), out=out[:, 0])
    np.multiply(r, np.sin(theta), out=out[:, 1])
    out += centres
    return out


def _block_corners(points: np.ndarray, sgrid: CellGrid) -> np.ndarray:
    """Lower-left corner of the 3x3 supercell block around each point's
    supercell: ``origin + (bucket_cells(points, side, origin) - 1) * side``,
    in place in one float array (whole numbers convert exactly)."""
    corners = points - sgrid.origin
    corners /= sgrid.side
    np.floor(corners, out=corners)
    corners -= 1
    corners *= sgrid.side
    corners += sgrid.origin
    return corners


def _in_block(corners: np.ndarray, sgrid: CellGrid, gen: np.random.Generator) -> np.ndarray:
    """One point uniform on each 3x3 supercell block, given by its lower-left corner."""
    return gen.random((len(corners), 2)) * (3 * sgrid.side) + corners


def _covered(points: np.ndarray, sgrid: CellGrid, region: Region) -> np.ndarray:
    """Which points lie in S and in a covered supercell."""
    return region.contains(points) & sgrid.covers(points)


def _uniform_in_region(n: int, region: Region, gen: np.random.Generator) -> np.ndarray:
    """n points uniform over S, by rejection from the bounding box."""
    lo, _, hi, _ = region.bounds
    return rejection_sample(
        np.empty((n, 0)),
        lambda rows, gen: gen.random((len(rows), 2)) * (hi - lo) + lo,
        region.contains,
        gen,
    )


def walk_all(
    positions: np.ndarray, rho: float, region: Region, gen: np.random.Generator
) -> np.ndarray:
    """One standard random-walk step for every row of ``positions``: uniform
    on B(x, rho) & S.  Convexity of S with x in S keeps the acceptance rate
    above 1/4, so the loop terminates fast."""
    if rho == 0:
        return positions.copy()
    return rejection_sample(positions, lambda x, gen: _in_disk(x, rho, gen), region.contains, gen)


def cellular_walk_all(
    positions: np.ndarray, sgrid: CellGrid, region: Region, gen: np.random.Generator
) -> np.ndarray:
    """One cellular step for every agent: uniform over union(N(C)) & S,
    drawn from the 3-rho-square block around the agent's supercell, whose
    corner is found once per step."""
    return rejection_sample(
        _block_corners(positions, sgrid),
        lambda corners, gen: _in_block(corners, sgrid, gen),
        lambda c: _covered(c, sgrid, region),
        gen,
    )


def init_positions(
    n: int,
    region: Region,
    mobility: MobilityMode,
    gen: np.random.Generator,
    sgrid: CellGrid | None = None,
) -> np.ndarray:
    """n independent draws from the walk's stationary distribution.  Both
    walks have a symmetric kernel, so the stationary density at x is
    proportional to the area one step from x reaches: |B(x, rho) & S|, or
    |union(N(C(x))) & S| for the cellular walk.  x uniform on S is kept iff
    it is in the walk's support and one step proposed from x is accepted."""
    if n < 1:
        raise ConfigurationError("need at least one agent")
    cellular = mobility.kind == "cellular"
    if cellular and sgrid is None:
        sgrid = build_supercell_grid(region, mobility.rho)

    def accept(x):
        if cellular:
            return _covered(x, sgrid, region) & _covered(
                _in_block(_block_corners(x, sgrid), sgrid, gen), sgrid, region
            )
        return region.contains(_in_disk(x, mobility.rho, gen))

    # the rows carry nothing: each proposal is a fresh uniform point
    return rejection_sample(
        np.empty((n, 0)), lambda rows, gen: _uniform_in_region(len(rows), region, gen), accept, gen
    )
