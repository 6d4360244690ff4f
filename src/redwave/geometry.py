"""Regions, cell grids, cell distances and geometric eccentricity.

The spatial substrate for everything else: convex bounded regions (squares
and disks), grid partitions into square cells of side ``l`` kept when they
overlap the region by at least ``gamma * l**2``, dense grid distances over
the cover under 8-adjacency, and a lattice-sampled eccentricity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, GeometryError

CellIndex = tuple[int, int]

# 8-adjacency offsets (side or corner contact)
_ADJ8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]

# Sub-sampling resolution for disk cell areas: 32 x 32 = 1024 points per cell.
_AREA_SAMPLES_PER_SIDE = 32
_KNIFE_EDGE_MARGIN = 2.0 / (_AREA_SAMPLES_PER_SIDE**2)


@dataclass(frozen=True)
class Region:
    """A convex bounded support region: an axis-aligned square or a disk.

    Squares span ``[0, L] x [0, L]``; disks are centered at the origin.
    """

    kind: str  # "square" | "disk"
    size: float  # side length L, or disk radius

    def __post_init__(self) -> None:
        if self.kind not in ("square", "disk"):
            raise ConfigurationError(f"unknown region kind {self.kind!r}")
        if self.size <= 0:
            raise ConfigurationError("region size must be positive")

    @staticmethod
    def square(side: float) -> "Region":
        return Region("square", side)

    @staticmethod
    def disk(radius: float) -> "Region":
        return Region("disk", radius)

    @property
    def diameter(self) -> float:
        if self.kind == "square":
            return self.size * math.sqrt(2)
        return 2.0 * self.size

    @property
    def area(self) -> float:
        if self.kind == "square":
            return self.size**2
        return math.pi * self.size**2

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the bounding box."""
        if self.kind == "square":
            return (0.0, 0.0, self.size, self.size)
        r = self.size
        return (-r, -r, r, r)

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Vectorized membership test for an (n, 2) array (or a single point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            x, y = pts[:, 0], pts[:, 1]
            ok = x >= -tol
            ok &= x <= self.size + tol
            ok &= y >= -tol
            ok &= y <= self.size + tol
        else:
            ok = np.einsum("ij,ij->i", pts, pts) <= (self.size + tol) ** 2
        if np.ndim(points) == 1:
            return bool(ok[0])
        return ok


@dataclass(frozen=True)
class CellGrid:
    """A gamma-area cell cover of a region with square cells of side ``side``.

    Cells are half-open: ``[i*side, (i+1)*side) x [j*side, (j+1)*side)``
    relative to ``origin``, so every boundary point has a unique owner cell.
    The index box spans the region's bounding box, so array index ``[c, r]``
    is cell ``(c, r)`` in every dense array over the grid.
    """

    region: Region
    side: float
    gamma: float
    origin: tuple[float, float]
    cover: frozenset[CellIndex]
    knife_edge: frozenset[CellIndex] = field(default_factory=frozenset)

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only boolean cover mask over the index box."""
        xmin, ymin, xmax, ymax = self.region.bounds
        mask = np.zeros(
            (_cells_across(xmax - xmin, self.side), _cells_across(ymax - ymin, self.side)),
            dtype=bool,
        )
        cells = np.array(list(self.cover), dtype=np.int64).reshape(-1, 2)
        if cells.size and (cells.min() < 0 or np.any(cells.max(axis=0) >= mask.shape)):
            raise GeometryError("cover reaches outside the region's index box")
        mask[cells[:, 0], cells[:, 1]] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def cells(self) -> list[CellIndex]:
        """The covered cells in index order (the order of ``array[mask]``)."""
        return cell_list(self.mask)

    @cached_property
    def owner(self) -> np.ndarray:
        """Flat index of the covered cell owning each box cell.

        Covered cells own themselves; an uncovered boundary cell belongs to
        its nearest covered cell by chessboard distance, ties going to the
        lowest index.  The transform carries ``distance * size + index``, so
        its minimum orders candidates by distance first, then by index.
        """
        size = self.mask.size
        start = np.where(self.mask, np.arange(size).reshape(self.mask.shape), np.inf)
        best = distance_transform(start, np.ones_like(self.mask), step=size)
        owner = (best % size).astype(np.intp)
        owner.flags.writeable = False
        return owner

    def mask_of(self, cells) -> np.ndarray:
        """Boolean array over the index box, True at the given cells."""
        out = np.zeros(self.mask.shape, dtype=bool)
        for c in cells:
            out[c] = True
        return out

    def distances(self, targets: np.ndarray) -> np.ndarray:
        """Cell-distance through the cover to the True cells of ``targets``
        (+inf where unreachable, and outside the cover)."""
        return distance_transform(np.where(targets, 0.0, np.inf), self.mask)

    def in_cover(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Vectorized cover membership for parallel column/row index arrays."""
        c, r = np.asarray(cols), np.asarray(rows)
        inside = (c >= 0) & (c < self.mask.shape[0]) & (r >= 0) & (r < self.mask.shape[1])
        out = np.zeros(inside.shape, dtype=bool)
        out[inside] = self.mask[c[inside], r[inside]]
        return out

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Cell indices, shape (n, 2) int, for an (n, 2) position array.

        Pure floor-division: no cover membership check.
        """
        return bucket_cells(points, self.side, self.origin)

    def owners_of(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the covered cell owning each point of an (n, 2) array.

        Points on the far edge of the bounding box fall in the last box cell.
        """
        cells = np.clip(self.cells_of(points), 0, np.array(self.mask.shape) - 1)
        return self.owner[cells[:, 0], cells[:, 1]]

    def bin(self, positions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """(3, W, H) agent counts per state and owning cell over the index box."""
        size = self.mask.size
        flat = np.asarray(states, dtype=np.intp) * size + self.owners_of(positions)
        counts = np.bincount(flat, minlength=3 * size)
        return counts.reshape((3,) + self.mask.shape)

    def cell_center(self, c: CellIndex) -> tuple[float, float]:
        ox, oy = self.origin
        return (ox + (c[0] + 0.5) * self.side, oy + (c[1] + 0.5) * self.side)


def cell_list(cells: np.ndarray) -> list[CellIndex]:
    """The True cells of a boolean array over an index box, in index order."""
    return [(c, r) for c, r in np.argwhere(cells).tolist()]


# ---------------------------------------------------------------------------
# the neighbour query
# ---------------------------------------------------------------------------

_CHUNK_PAIRS = 1 << 14  # most (query, target) pairs yielded at once


def bucket_cells(points: np.ndarray, side: float, origin=(0.0, 0.0)) -> np.ndarray:
    """(n, 2) int indices of the side-``side`` square buckets anchored at
    ``origin`` holding an (n, 2) position array: pure floor division."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.floor((pts - np.asarray(origin)) / side).astype(np.int64)


def bucket_side(positions: np.ndarray, reach: float) -> float:
    """Bucket side for a reach query with the 3x3 block: ``reach``, widened to
    the widest extent of the agents' bounding box over sqrt(n), so that the
    bucket grid over that box has at most about n cells whatever the reach.

    The 1e-9 relative margin keeps a pair in reach (see :func:`in_reach`)
    within adjacent buckets although floor division rounds: at side exactly
    0.2, x = 1.4 and x = 1.6 fall in buckets 6 and 8.
    """
    extent = max(np.ptp(positions[:, 0]), np.ptp(positions[:, 1]))
    return max(reach * (1 + 1e-9), extent / math.sqrt(len(positions)))


def in_reach(d2: np.ndarray, reach: float) -> np.ndarray:
    """The closed ball, with a 1e-12 relative slack so that a pair exactly
    ``reach`` apart is in reach whatever the rounding of ``d2``."""
    return d2 <= reach * reach * (1 + 1e-12)


def _by_bucket(keys: np.ndarray, agents: np.ndarray, n: int) -> np.ndarray:
    """``agents`` (indices below n) ordered by their bucket ``keys``, ascending
    within a bucket: one sort of the unique values ``key * n + agent``, several
    times faster than a stable argsort.  Overwrites ``keys``."""
    keys *= n
    keys += agents
    keys.sort()
    keys %= n
    return keys


def _bucket_grid(pos, targets, side, origin, block):
    """The query's grid over the agents' buckets, with a margin of ``block``
    empty buckets on every side: the agents' bucket keys (column * height +
    row), the height, the targets ordered by bucket, where bucket k holds
    ``order[start[k] : start[k + 1]]``, and the box sum of the targets'
    count grid over the ``(2 * block + 1)**2`` buckets around each bucket."""
    # bucket column and row as bucket_cells computes them, the column
    # becoming the key
    keys, row = (np.floor((pos[:, i] - origin[i]) / side).astype(np.int64) for i in (0, 1))
    keys -= keys.min() - block
    row -= row.min() - block
    width, height = keys.max() + block + 1, row.max() + block + 1
    keys *= height
    keys += row
    grid = np.bincount(keys[targets], minlength=width * height)
    start = np.zeros(len(grid) + 1, dtype=np.int64)
    np.cumsum(grid, out=start[1:])
    # the box sums from the grid's summed-area table
    w = 2 * block + 1
    total = np.zeros((width + 1, height + 1), dtype=np.int64)
    np.cumsum(np.cumsum(grid.reshape(width, height), axis=0), axis=1, out=total[1:, 1:])
    box = np.zeros((width, height), dtype=np.int64)
    box[block : width - block, block : height - block] = (
        total[w:, w:] - total[:-w, w:] - total[w:, :-w] + total[:-w, :-w]
    )
    order = _by_bucket(keys[targets], targets, len(pos))
    return keys, height, order, start, box.ravel()


def neighbour_blocks(positions, queries, targets, side, origin=(0.0, 0.0), block=1):
    """The neighbour query: each query agent against the targets near it.

    Agents are binned into square buckets (see :func:`bucket_cells`); a
    query's candidates are the targets in the ``(2 * block + 1)**2`` buckets
    around its own.  Yields flat chunks ``(q, counts, t, d2)``: queries ``q``,
    grouped by bucket, each with ``counts[i] > 0`` candidates, and the
    candidate targets ``t`` with their squared distances ``d2``, grouped by
    query, so that ``np.cumsum(counts) - counts`` are the segment starts for
    ``reduceat``.  Queries without a candidate are skipped.  A chunk holds
    at most _CHUNK_PAIRS pairs, unless it is one query with more candidates
    than that: a query is never split across chunks.
    """
    if len(queries) == 0 or len(targets) == 0:
        return
    pos = np.asarray(positions, dtype=float)
    keys, height, order, start, box = _bucket_grid(pos, targets, side, origin, block)
    queries = queries[box[keys[queries]] > 0]
    # a bucket's queries share their candidates
    queries = _by_bucket(keys[queries], queries, len(pos))
    qkeys = keys[queries]
    reach = box[qkeys]
    del keys, box
    ends = np.cumsum(reach)
    # in bucket column c + dx, rows r - block .. r + block are one key run
    w = 2 * block + 1
    runs = np.arange(-block, block + 1) * height - block
    xs, ys = pos[:, 0], pos[:, 1]
    xt, yt = xs[order], ys[order]
    a = 0
    while a < len(queries):
        base = ends[a] - reach[a]
        b = max(a + 1, int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
        if b < len(queries) and qkeys[a] != qkeys[b - 1] == qkeys[b]:
            # end before a bucket that would be split, so that its chunks
            # each hold one bucket
            b = int(np.searchsorted(qkeys, qkeys[b - 1]))
        q, counts, k = queries[a:b], reach[a:b], qkeys[a:b]
        if k[0] == k[-1]:
            # one bucket: a matrix of its queries against its candidates
            cut = [slice(*r) for r in zip(start[k[0] + runs], start[k[0] + runs + w])]
            xc, yc, tc = (np.concatenate([v[c] for c in cut]) for v in (xt, yt, order))
            d2 = np.subtract.outer(xs[q], xc)
            dy = np.subtract.outer(ys[q], yc)
            t = np.tile(tc, len(q))
        else:
            first = start[k[:, None] + runs].ravel()
            length = start[k[:, None] + (runs + w)].ravel() - first
            # run j's targets are order[first[j] : first[j] + length[j]]
            at = np.repeat(first - (np.cumsum(length) - length), length)
            at += np.arange(len(at))
            d2 = np.repeat(xs[q], counts)
            d2 -= xt[at]
            dy = np.repeat(ys[q], counts)
            dy -= yt[at]
            t = order[at]
        # in place, so that only two pair-sized float temporaries are alive
        d2 *= d2
        dy *= dy
        d2 += dy
        yield q, counts, t, d2.ravel()
        a = b


def _cells_across(extent: float, side: float) -> int:
    return int(math.ceil(extent / side - 1e-12))


def _window_min(a: np.ndarray) -> np.ndarray:
    """Minimum over each cell's 3x3 neighbourhood in the last two axes.

    Beyond the box counts as +inf (True for boolean arrays, where the
    minimum is a logical and).
    """
    pad = [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)]
    p = np.pad(a, pad, constant_values=np.inf)
    m = np.minimum(np.minimum(p[..., :-2, :], p[..., 1:-1, :]), p[..., 2:, :])
    return np.minimum(np.minimum(m[..., :-2], m[..., 1:-1]), m[..., 2:])


def touching(cells: np.ndarray) -> np.ndarray:
    """Cells in, or 8-adjacent to, a cell of the boolean array ``cells``."""
    return ~_window_min(~cells)


def distance_transform(start: np.ndarray, through: np.ndarray, step: float = 1) -> np.ndarray:
    """Masked 8-neighbour min-plus dilation, iterated to its fixed point.

    Every cell of ``through`` takes the minimum of its own value and its
    neighbours' values plus ``step``; cells outside ``through`` stay +inf
    and block paths.  With 0 at the sources, +inf elsewhere and unit step
    this is the multi-source BFS distance under 8-adjacency; with step 0 it
    spreads the minimum over each 8-connected component.  Leading axes of
    ``start`` are independent problems.
    """
    cur = np.where(through, start, np.inf)
    while True:
        nxt = np.where(through, np.minimum(cur, _window_min(cur) + step), np.inf)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def build_cell_grid(region: Region, side: float, gamma: float) -> CellGrid:
    """Build the cell cover: cells with ``area(c & S) >= gamma * side**2``.

    Square regions get analytic intersection areas; disks are sub-sampled
    with a deterministic 1024-point lattice per cell.  Cells whose sampled
    area lies within the sampling tolerance of the threshold are flagged as
    knife-edge.
    """
    if side <= 0:
        raise ConfigurationError("cell side must be positive")
    if not (0 < gamma <= 1):
        raise ConfigurationError("gamma must be in (0, 1]")
    if side >= region.diameter:
        raise ConfigurationError(
            f"cell side {side} >= region diameter {region.diameter}: degenerate grid"
        )

    xmin, ymin, xmax, ymax = region.bounds
    origin = (xmin, ymin)
    ncols = _cells_across(xmax - xmin, side)
    nrows = _cells_across(ymax - ymin, side)
    threshold = gamma * side**2

    cover: set[CellIndex] = set()
    knife: set[CellIndex] = set()

    if region.kind == "square":
        L = region.size
        for i in range(ncols):
            w = min((i + 1) * side, L) - i * side
            if w <= 0:
                continue
            for j in range(nrows):
                h = min((j + 1) * side, L) - j * side
                if h <= 0:
                    continue
                # 1e-9 relative slack absorbs float noise on exact tilings
                if w * h >= threshold * (1 - 1e-9):
                    cover.add((i, j))
    else:
        m = _AREA_SAMPLES_PER_SIDE
        offs = (np.arange(m) + 0.5) / m * side
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        sample = np.column_stack([ox.ravel(), oy.ravel()])
        for i in range(ncols):
            for j in range(nrows):
                base = np.array([xmin + i * side, ymin + j * side])
                frac = np.count_nonzero(region.contains(sample + base)) / (m * m)
                area = frac * side**2
                if area >= threshold * (1 - 1e-9):
                    cover.add((i, j))
                    if abs(frac - gamma) <= _KNIFE_EDGE_MARGIN:
                        knife.add((i, j))
                elif abs(frac - gamma) <= _KNIFE_EDGE_MARGIN:
                    knife.add((i, j))

    if not cover:
        raise GeometryError("empty cell cover: gamma too large for this side length")
    grid = CellGrid(region, side, gamma, origin, frozenset(cover), frozenset(knife))
    if np.isinf(grid.distances(grid.mask_of(grid.cells[:1]))[grid.mask]).any():
        raise GeometryError("cell cover is not connected under 8-adjacency")
    return grid


def cell_of(point, grid: CellGrid) -> CellIndex:
    """The covered cell owning ``point``; errors if the point is outside S.

    A point in an uncovered boundary cell belongs to the nearest covered cell
    (see ``CellGrid.owner``).
    """
    pt = np.asarray(point, dtype=float)
    if not grid.region.contains(pt):
        raise GeometryError(f"point {tuple(pt)} outside region")
    c, r = np.unravel_index(grid.owners_of(pt)[0], grid.mask.shape)
    return (int(c), int(r))


def neighborhood(c: CellIndex, grid: CellGrid) -> set[CellIndex]:
    """N(c): the cell itself plus its covered side/corner neighbors."""
    if c not in grid.cover:
        raise GeometryError(f"cell {c} not in cover")
    out = {c}
    for dc, dr in _ADJ8:
        nb = (c[0] + dc, c[1] + dr)
        if nb in grid.cover:
            out.add(nb)
    return out


@lru_cache(maxsize=1)
def _distances_from(a: CellIndex, grid: CellGrid) -> np.ndarray:
    if a not in grid.cover:
        raise GeometryError(f"source cell {a} not in cover")
    dist = grid.distances(grid.mask_of([a]))
    dist.flags.writeable = False
    return dist


def cell_distance(a: CellIndex, b: CellIndex, grid: CellGrid) -> int:
    """Shortest cell-path length between two covered cells.

    The distance row of the last source is memoised, so all-pairs loops
    cost one transform per source.
    """
    if b not in grid.cover:
        raise GeometryError(f"cell {b} not in cover")
    d = _distances_from(a, grid)[b]
    if math.isinf(d):
        raise GeometryError(f"cells {a} and {b} are disconnected in the cover")
    return int(d)


def cell_diameter(grid: CellGrid) -> int:
    """Max pairwise cell-distance over the cover: one transform per cell,
    64 sources at a time."""
    best = 0
    for first in range(0, len(grid.cells), 64):
        c, r = np.array(grid.cells[first : first + 64]).T
        targets = np.zeros((len(c),) + grid.mask.shape, dtype=bool)
        targets[np.arange(len(c)), c, r] = True
        dist = grid.distances(targets)[:, grid.mask]
        if np.isinf(dist).any():
            raise GeometryError("disconnected cover")
        best = max(best, int(dist.max()))
    return best


def eccentricity(A, region: Region, lattice_points: int = 1000) -> float:
    """max over S of the distance to the nearest point of A.

    Lattice approximation: S is sampled on a deterministic grid with spacing
    at most ``diameter / lattice_points``, so the result underestimates the
    true eccentricity by at most one lattice spacing.
    """
    pts = np.atleast_2d(np.asarray(A, dtype=float))
    if pts.size == 0:
        raise GeometryError("empty source set")
    if not np.all(region.contains(pts, tol=1e-9)):
        raise GeometryError("source set not contained in region")

    spacing = region.diameter / lattice_points
    xmin, ymin, xmax, ymax = region.bounds
    xs = np.arange(xmin, xmax + spacing / 2, spacing)
    ys = np.arange(ymin, ymax + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    lattice = lattice[region.contains(lattice)]

    # chunked min-distance to A to bound peak memory
    best = np.full(len(lattice), np.inf)
    for a in pts:
        d = np.hypot(lattice[:, 0] - a[0], lattice[:, 1] - a[1])
        np.minimum(best, d, out=best)
    return float(best.max())
