"""Agent movement: standard random-walk steps uniform in B(x, rho) & S, the
cellular (supercell) random walk, and stationary-ish initialization.

All randomness flows through :class:`RngStream`, a thin wrapper over numpy's
PCG64 so that identical (seed, stream) pairs give identical sample sequences
on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MobilityError
from .geometry import CellGrid, Region, bucket_keys, build_cell_grid, group_by_bucket

_MAX_REJECTIONS = 10**6

# Burn-in defaults: 50 standard steps mixes each coordinate well past the
# region scale at desk-scale parameters; one cellular step already gives
# per-supercell uniformity on full interior neighborhoods.
DEFAULT_BURN_IN_STANDARD = 50
DEFAULT_BURN_IN_CELLULAR = 1


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


def _uniform_in_region(n: int, region: Region, gen: np.random.Generator) -> np.ndarray:
    """n points uniform over S, by rejection from the bounding box."""
    xmin, ymin, xmax, ymax = region.bounds
    out = np.empty((n, 2))
    pending = np.arange(n)
    attempts = 0
    while pending.size:
        cand = gen.random((pending.size, 2))
        cand[:, 0] = xmin + cand[:, 0] * (xmax - xmin)
        cand[:, 1] = ymin + cand[:, 1] * (ymax - ymin)
        ok = region.contains(cand)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
        attempts += 1
        if attempts > _MAX_REJECTIONS:
            raise MobilityError("rejection sampling failed to place agents")
    return out


def walk_all(
    positions: np.ndarray, rho: float, region: Region, gen: np.random.Generator
) -> np.ndarray:
    """One standard random-walk step for every row of ``positions``.

    Each destination is uniform on B(x, rho) & S: uniform in the disk via the
    sqrt-radius trick, rejecting points that leave S.  Convexity of S with
    x in S keeps the acceptance rate above 1/4, so the loop terminates fast.
    """
    if rho == 0:
        return positions.copy()
    out = positions.copy()
    pending = np.arange(len(positions))
    attempts = 0
    while pending.size:
        u = gen.random(pending.size)
        theta = gen.random(pending.size) * 2 * math.pi
        r = rho * np.sqrt(u)
        cand = positions[pending] + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        ok = region.contains(cand)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
        attempts += 1
        if attempts > _MAX_REJECTIONS:
            raise MobilityError("rejection sampling failed in walk step")
    return out


def walk_step(x, rho: float, region: Region, rng) -> np.ndarray:
    """Single-agent standard step: uniform on B(x, rho) & S."""
    gen = as_generator(rng)
    x = np.asarray(x, dtype=float)
    if not region.contains(x):
        raise MobilityError(f"walk_step start {tuple(x)} outside region")
    return walk_all(x[None, :], rho, region, gen)[0]


def cellular_walk_all(
    positions: np.ndarray,
    sgrid: CellGrid,
    region: Region,
    gen: np.random.Generator,
) -> np.ndarray:
    """One cellular step for every agent: uniform over union(N(C)) & S.

    Agents are grouped by supercell; each group rejection-samples from the
    3-rho-square block around its supercell, accepting points that land in S
    and in a covered supercell.
    """
    rho = sgrid.side
    cells = sgrid.cells_of(positions)
    out = np.empty_like(positions)
    _, order, bounds = group_by_bucket(bucket_keys(cells))
    for a, b in zip(bounds[:-1], bounds[1:]):
        pending = order[a:b]
        corner = np.asarray(sgrid.origin) + (cells[pending[0]] - 1) * rho
        attempts = 0
        while pending.size:
            cand = gen.random((pending.size, 2)) * (3 * rho) + corner
            ccell = sgrid.cells_of(cand)
            ok = region.contains(cand) & sgrid.in_cover(ccell[:, 0], ccell[:, 1])
            out[pending[ok]] = cand[ok]
            pending = pending[~ok]
            attempts += 1
            if attempts > _MAX_REJECTIONS:
                raise MobilityError("rejection sampling failed in cellular step")
    return out


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
    burn_in: int | None = None,
    sgrid: CellGrid | None = None,
) -> np.ndarray:
    """n independent starting positions: uniform over S plus a burn-in of
    mobility steps approximating the stationary distribution."""
    if n < 1:
        raise ConfigurationError("need at least one agent")
    gen = as_generator(rng)
    pos = _uniform_in_region(n, region, gen)
    if burn_in is None:
        burn_in = (
            DEFAULT_BURN_IN_CELLULAR
            if mobility.kind == "cellular"
            else DEFAULT_BURN_IN_STANDARD
        )
    if mobility.kind == "cellular":
        if sgrid is None:
            sgrid = build_supercell_grid(region, mobility.rho)
        for _ in range(burn_in):
            pos = cellular_walk_all(pos, sgrid, region, gen)
    else:
        for _ in range(burn_in):
            pos = walk_all(pos, mobility.rho, region, gen)
    return pos
