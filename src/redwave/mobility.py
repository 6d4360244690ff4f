"""Agent movement: standard random-walk steps uniform in B(x, rho) & S, the
cellular (supercell) random walk, and exact stationary starting positions,
each one :func:`rejection_sample` call with a proposal and a predicate.
No proposal computes a sine, a cosine or a square root: the standard walk
draws from the square around B(x, rho) and rejects what falls outside it.

All randomness flows through :class:`RngStream`, a thin wrapper over numpy's
PCG64 so that identical (seed, stream) pairs give identical sample sequences
on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MobilityError
from .geometry import CellGrid, Region, build_cell_grid, point_items, squared_norms

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
    rows draw again, in ascending order, until all are kept.  Rows move as
    one item each: ``np.take`` gathers them, and kept candidates are written
    through :func:`point_items`."""
    out = propose(sources, gen)
    pending = np.flatnonzero(~accept(out))
    kept = point_items(out)
    for _ in range(_MAX_REJECTIONS - 1):
        if not pending.size:
            break
        cand = propose(np.take(sources, pending, axis=0), gen)
        ok = accept(cand)
        # by index: numpy gathers through a boolean mask 2-4x slower
        took, left = np.flatnonzero(ok), np.flatnonzero(~ok)
        kept[pending[took]] = point_items(cand)[took]
        pending = pending[left]
    if pending.size:
        raise MobilityError(
            f"rejection sampling left {pending.size} of {len(sources)} rows unplaced"
        )
    return out


def _in_disk(centres: np.ndarray, rho: float, gen: np.random.Generator) -> np.ndarray:
    """One candidate per centre c, uniform on the square [c - rho, c + rho]^2;
    a candidate outside the closed disk B(c, rho) gets a NaN x, which no
    region contains.  The candidates a region keeps are uniform on its part
    of B(c, rho), and a round keeps a share |B(c, rho) & S| / (4 rho^2).
    The disk test is :func:`squared_norms` of the offsets, x*x + y*y."""
    out = gen.random((len(centres), 2))
    out *= 2 * rho
    out -= rho
    outside = squared_norms(out) > rho * rho
    out += centres
    # by index, as in rejection_sample
    out[:, 0][np.flatnonzero(outside)] = np.nan
    return out


def _block_corners(points: np.ndarray, sgrid: CellGrid) -> np.ndarray:
    """Lower-left corner of the 3x3 supercell block around each point's
    supercell: ``origin + (floor((points - origin) / side) - 1) * side``,
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
    on B(x, rho) & S.  Convexity of S with x in S keeps a quarter of the disk
    in S at least, and the disk fills pi/4 of the square the candidates come
    from, so each round keeps at least pi/16 of its rows."""
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
    sgrid: CellGrid | None,
) -> np.ndarray:
    """n independent draws from the walk's stationary distribution.  Both
    walks have a symmetric kernel, so the stationary density at x is
    proportional to the area one step from x reaches: |B(x, rho) & S|, or
    |union(N(C(x))) & S| for the cellular walk.  x uniform on S is kept iff
    it is in the walk's support and one step proposed from x is accepted,
    which happens with a probability proportional to that area: the
    proposal's square or 3x3 block has the same size from every x.
    ``sgrid`` is the run's supercell grid (``SimParams.sgrid``), None for
    the standard walk."""
    if n < 1:
        raise ConfigurationError("need at least one agent")
    cellular = mobility.kind == "cellular"

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
