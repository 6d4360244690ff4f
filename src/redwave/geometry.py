"""Regions, cell grids and grid distances.

The spatial substrate for everything else: convex bounded regions (squares
and disks), grid partitions into square cells of side ``l`` kept when they
overlap the region by at least ``gamma * l**2``, and dense grid distances
over the cover under 8-adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GeometryError

# Sub-sampling resolution for disk cell areas: 32 x 32 = 1024 points per cell.
_AREA_SAMPLES_PER_SIDE = 32

# Most cells in a grid's index box, a 4096 x 4096 square: far above the
# largest box in use (246 x 246 at L = 512), far below a box whose dense
# arrays would not fit in memory.
_MAX_BOX_CELLS = 1 << 24


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
        if not (math.isfinite(self.size) and self.size > 0):
            raise ConfigurationError("region size must be finite and positive")

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
        """(xmin, ymin, xmax, ymax) of the bounding box: a square whose lower
        corner has equal coordinates, so that the scalars ``xmin`` and
        ``xmax - xmin`` place it on both axes."""
        if self.kind == "square":
            return (0.0, 0.0, self.size, self.size)
        r = self.size
        return (-r, -r, r, r)

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Vectorized membership test for an (n, 2) array (or a single point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            ok = pts >= -tol
            ok &= pts <= self.size + tol
            ok = ok[:, 0] & ok[:, 1]
        else:
            ok = np.einsum("ij,ij->i", pts, pts) <= (self.size + tol) ** 2
        if np.ndim(points) == 1:
            return bool(ok[0])
        return ok


@dataclass(frozen=True, eq=False)
class CellGrid:
    """A gamma-area cell cover of a region with square cells of side ``side``.

    Cells are half-open: ``[i*side, (i+1)*side) x [j*side, (j+1)*side)``
    relative to ``origin``, the corner of the region's bounding box, so
    every boundary point has a unique owner cell.
    The index box spans the region's bounding box, so array index ``[c, r]``
    is cell ``(c, r)`` in every dense array over the grid.  ``mask`` is the
    cover: a read-only boolean array over the index box, True at covered cells.
    """

    region: Region
    side: float
    mask: np.ndarray

    def __post_init__(self) -> None:
        xmin, _, xmax, _ = self.region.bounds
        box = (_cells_across(xmax - xmin, self.side),) * 2
        if self.mask.dtype != bool or self.mask.shape != box:
            raise GeometryError(f"cover mask is not a boolean array over the {box} index box")
        if not self.mask.any():
            raise GeometryError("empty cell cover: gamma too large for this side length")
        self.mask.flags.writeable = False

    @property
    def origin(self) -> float:
        """Both coordinates of the index box's lower corner (see Region.bounds)."""
        return self.region.bounds[0]

    @cached_property
    def owner(self) -> np.ndarray:
        """Flat index of the covered cell owning each box cell.

        Covered cells own themselves; an uncovered boundary cell belongs to
        its nearest covered cell by chessboard distance, ties going to the
        lowest index.  Round k of a window-minimum dilation labels the cells
        at distance k from the cover: every covered cell at distance k from
        such a cell x is at distance k - 1 from a neighbour of x that lies
        at distance k - 1, so the least label around x is the right one.
        An empty cover would never finish; ``__post_init__`` rejects it.
        """
        size = self.mask.size
        owner = np.where(self.mask, np.arange(size).reshape(self.mask.shape), size)
        unlabelled = ~self.mask
        while unlabelled.any():
            np.copyto(owner, touching(owner, np.minimum), where=unlabelled)
            unlabelled = owner == size
        owner.flags.writeable = False
        return owner

    def distances(self, targets: np.ndarray) -> np.ndarray:
        """Cell-distance through the cover to the True cells of ``targets``
        (+inf where unreachable, and outside the cover)."""
        return distance_transform(targets, self.mask)

    def in_cover(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Vectorized cover membership for parallel column/row index arrays."""
        c, r = np.asarray(cols), np.asarray(rows)
        inside = (c >= 0) & (c < self.mask.shape[0]) & (r >= 0) & (r < self.mask.shape[1])
        out = np.zeros(inside.shape, dtype=bool)
        out[inside] = self.mask[c[inside], r[inside]]
        return out

    def owners_of(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the covered cell owning each point of an (n, 2) array.

        Points on the far edge of the bounding box fall in the last box cell.
        """
        return self.owner.ravel()[self.flat_keys(points, 0)]

    def covers(self, points: np.ndarray) -> np.ndarray:
        """Cover membership of each point of an (n, 2) array, as
        :meth:`in_cover` decides it for the point's cell: one lookup into the
        mask padded with one uncovered cell on every side, where every key
        beyond the box lands (cell ``W`` of a point at x = L among them)."""
        return self._padded_mask[self.flat_keys(points, 1)]

    @cached_property
    def _padded_mask(self) -> np.ndarray:
        return np.pad(self.mask, 1).ravel()

    def flat_keys(self, points: np.ndarray, pad: int) -> np.ndarray:
        """:func:`flat_keys` over the index box.  With ``pad`` 1, no two cells
        of points in the bounding box, its far edge included, share a key."""
        return flat_keys(points, self.region.bounds, self.side, self.mask.shape, pad)

    def bin(self, positions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """(3, W, H) agent counts per state and owning cell over the index box."""
        size = self.mask.size
        flat = np.asarray(states, dtype=np.intp) * size + self.owners_of(positions)
        return np.bincount(flat, minlength=3 * size).reshape((3,) + self.mask.shape)


def flat_keys(points: np.ndarray, bounds, side: float, box, pad: int) -> np.ndarray:
    """Flat keys of the side-``side`` square cells, anchored at the corner
    ``bounds[:2]``, of an (n, 2) position array: ``column * height + row``
    over the ``box`` of cells widened by ``pad`` cells on every side, each
    axis clipped to the widened box.  The one binning of points into cells,
    for cell grids and bucket grids alike."""
    # whole numbers far below 2**53 in floats, with two arrays alive at a
    # time: the cover test of a walk's candidates sets its peak memory
    flat, key = np.zeros(len(points)), np.empty(len(points))
    for i, cells in enumerate(box):
        # axis i's cell, floor((x - corner) / side), in place
        np.subtract(points[:, i], bounds[i], out=key)
        key /= side
        np.floor(key, out=key)
        np.clip(key, -pad, cells - 1 + pad, out=key)
        key += pad
        flat *= cells + 2 * pad
        flat += key
    del key
    return flat.astype(np.intp)


def point_items(points: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous (n, 2) float array as one complex128 item,
    in a view that writes through: numpy gathers and scatters such items
    many times faster than (n, 2) rows."""
    return points.view(np.complex128)[:, 0]


# ---------------------------------------------------------------------------
# the neighbour query
# ---------------------------------------------------------------------------

_CHUNK_PAIRS = 1 << 14  # most (query, target) pairs yielded at once


def bucket_side(n: int, reach: float, bounds) -> float:
    """Bucket side for a reach query with the 3x3 block over the
    ``(xmin, ymin, xmax, ymax)`` frame of n agents: ``reach``, widened to the
    frame's widest extent over sqrt(n), so that the bucket grid over the
    frame has at most about n cells whatever the reach.

    The 1e-9 relative margin keeps a pair in reach (see :func:`in_reach`)
    within adjacent buckets although floor division rounds: at side exactly
    0.2, x = 1.4 and x = 1.6 fall in buckets 6 and 8.
    """
    extent = max(bounds[2] - bounds[0], bounds[3] - bounds[1])
    return max(reach * (1 + 1e-9), extent / math.sqrt(n))


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


class BucketGrid:
    """The neighbour query's binning: agents in the side-``side`` square
    buckets of the ``(xmin, ymin, xmax, ymax)`` frame ``bounds``, which holds
    every agent, binned once by :func:`flat_keys` and queried at any block up
    to ``margin``.  The box spans the buckets from the frame's corner to its
    far corner's, plus a margin of ``margin`` empty buckets on every side,
    and bucket k holds the targets ``order[start[k] : start[k + 1]]``."""

    def __init__(self, positions, targets, side, bounds, margin=1):
        pos = self.pos = np.asarray(positions, dtype=float)
        # floor, not ceil: an agent at xmax, where the extent is a whole
        # number of sides, owns a bucket of its own past the last full one
        box = [math.floor((bounds[2 + i] - bounds[i]) / side) + 1 for i in (0, 1)]
        keys = self.keys = flat_keys(pos, bounds, side, box, margin)
        self.margin, self.height = margin, box[1] + 2 * margin
        size = (box[0] + 2 * margin) * self.height
        self.start = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys[targets], minlength=size), out=self.start[1:])
        self.order = _by_bucket(keys[targets], targets, len(pos))

    def query(self, queries, block=1):
        """The neighbour query: each query agent against the targets in the
        ``(2 * block + 1)**2`` buckets around its own.

        Yields flat chunks ``(q, counts, t, d2)``: queries ``q``, grouped by
        bucket, each with ``counts[i] > 0`` candidates, and the candidate
        targets ``t`` with their squared distances ``d2``, grouped by query,
        so that ``np.cumsum(counts) - counts`` are the segment starts for
        ``reduceat``.  Queries without a candidate are skipped.  A chunk
        holds at most _CHUNK_PAIRS pairs, unless it is one query with more
        candidates than that: a query is never split across chunks, but a
        bucket's queries may be.
        """
        if not 0 <= block <= self.margin:
            raise ValueError(f"block {block} outside the grid's margin {self.margin}")
        if len(queries) == 0 or len(self.order) == 0:
            return
        keys, start, h, w = self.keys, self.start, self.height, 2 * block + 1
        # in bucket column c + dx, rows r - block .. r + block are one key run
        runs = np.arange(-block, block + 1) * h - block
        # the targets in the block around each bucket of the margin-free box,
        # as the sum of its column runs
        run = start[w:] - start[:-w]
        box = np.zeros(len(start) - 1, dtype=np.int64)
        lo, hi = block * (h + 1), len(box) - block * (h + 1)
        for dx in range(w):
            box[lo:hi] += run[dx * h : dx * h + hi - lo]
        queries = queries[box[keys[queries]] > 0]
        # for locality: neighbouring queries read the same target runs (the
        # isolated scan at n = 65536 ran about 20% slower unsorted, 2-core VM)
        queries = _by_bucket(keys[queries], queries, len(keys))
        reach = box[keys[queries]]
        del run, box
        ends = np.cumsum(reach)
        xs, ys = self.pos[:, 0], self.pos[:, 1]
        xt, yt = xs[self.order], ys[self.order]
        a = 0
        while a < len(queries):
            base = ends[a] - reach[a]
            b = max(a + 1, int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
            q, counts = queries[a:b], reach[a:b]
            k = keys[q]
            first = start[k[:, None] + runs].ravel()
            length = start[k[:, None] + (runs + w)].ravel() - first
            # run j's targets are order[first[j] : first[j] + length[j]]
            at = np.repeat(first - (np.cumsum(length) - length), length)
            at += np.arange(len(at))
            d2 = np.repeat(xs[q], counts)
            d2 -= xt[at]
            dy = np.repeat(ys[q], counts)
            dy -= yt[at]
            # in place, so that only two pair-sized float temporaries are alive
            d2 *= d2
            dy *= dy
            d2 += dy
            yield q, counts, self.order[at], d2
            a = b


def _cells_across(extent: float, side: float) -> int:
    return int(math.ceil(extent / side - 1e-12))


def touching(a: np.ndarray, op=np.maximum) -> np.ndarray:
    """The 3x3 window reduction by the ufunc ``op`` in the last two axes of
    ``a``, cells beyond the box left out, by sliced in-place ops over the
    box.  For a boolean array, the cells in, or 8-adjacent to, a True cell;
    with ``np.add``, the window sum; with ``np.minimum``, the window minimum."""
    m = a.copy()
    op(m[..., 1:, :], a[..., :-1, :], out=m[..., 1:, :])
    op(m[..., :-1, :], a[..., 1:, :], out=m[..., :-1, :])
    out = m.copy()
    op(out[..., 1:], m[..., :-1], out=out[..., 1:])
    op(out[..., :-1], m[..., 1:], out=out[..., :-1])
    return out


def distance_transform(sources: np.ndarray, through: np.ndarray) -> np.ndarray:
    """The multi-source BFS distance under 8-adjacency from the True cells of
    the 2-D boolean mask ``sources`` through the True cells of ``through``
    (+inf outside ``through`` or where unreachable).

    A level-synchronous dilation of a boolean frontier mask over the flat
    box padded by one blocked cell: level d ORs the frontier 3 wide along
    the flat box, then 3 tall across its rows, and keeps the cells still
    free as the next frontier.  A flat neighbour past a row's end is a pad
    cell, which is never free, so no level leaks into the next row.  A cell
    that level d reaches was free at the start of levels 1 to d, so its
    distance is the count of those levels.
    """
    shape = (through.shape[0] + 2, through.shape[1] + 2)
    free = np.zeros(shape, dtype=bool)
    free[1:-1, 1:-1] = through
    front = np.zeros_like(free)
    np.logical_and(sources, through, out=front[1:-1, 1:-1])
    free ^= front
    h = shape[1]
    free, front = free.ravel(), front.ravel()
    # the buffers' ends are never written: the row pass leaves the first and
    # last cell of ``wide`` False, and ``near &= free`` clears the pad rows
    wide, near = np.zeros_like(free), np.empty_like(free)
    # the count runs in bytes, several times cheaper to add to than floats
    # (or to write a level into by mask), carried before a byte can overflow
    levels, count = np.zeros(free.size), np.zeros(free.size, dtype=np.uint8)
    d = 0
    while True:
        d += 1
        count += free.view(np.uint8)
        if d % 255 == 0:
            levels += count
            count[:] = 0
        np.logical_or(front[:-2], front[2:], out=wide[1:-1])
        wide[1:-1] |= front[1:-1]
        np.logical_or(wide[: -2 * h], wide[2 * h :], out=near[h:-h])
        near[h:-h] |= wide[h:-h]
        near &= free
        if not near.any():
            break
        free ^= near
        front, near = near, front
    levels += count
    val = levels.reshape(shape)[1:-1, 1:-1]
    # blocked cells were never free; the ones still free were never reached
    val[~through | free.reshape(shape)[1:-1, 1:-1]] = np.inf
    return val


def build_cell_grid(region: Region, side: float, gamma: float) -> CellGrid:
    """Build the cell cover: cells with ``area(c & S) >= gamma * side**2``.

    Square regions get analytic intersection areas; disks are sub-sampled
    with a deterministic 1024-point lattice per cell.  An index box of more
    than _MAX_BOX_CELLS cells is a ConfigurationError, raised before any
    array is allocated.
    """
    if not (math.isfinite(side) and side > 0):
        raise ConfigurationError("cell side must be finite and positive")
    if not (0 < gamma <= 1):
        raise ConfigurationError("gamma must be in (0, 1]")
    if side >= region.diameter:
        raise ConfigurationError(
            f"cell side {side} >= region diameter {region.diameter}: degenerate grid"
        )

    xmin, _, xmax, _ = region.bounds
    ncols = _cells_across(xmax - xmin, side)
    if ncols * ncols > _MAX_BOX_CELLS:
        raise ConfigurationError(
            f"cell side {side} cuts the region into a {ncols} x {ncols} index box, "
            f"above the {_MAX_BOX_CELLS} cells a grid may hold"
        )
    threshold = gamma * side**2

    if region.kind == "square":
        # each column's extent inside [0, L]; the box is square, so the rows' are the same
        w = np.minimum(np.arange(1, ncols + 1) * side, region.size) - np.arange(ncols) * side
        # 1e-9 relative slack absorbs float noise on exact tilings
        mask = np.multiply.outer(w, w) >= threshold * (1 - 1e-9)
        mask &= np.multiply.outer(w > 0, w > 0)
    else:
        m = _AREA_SAMPLES_PER_SIDE
        offs = (np.arange(m) + 0.5) / m * side
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        sample = np.column_stack([ox.ravel(), oy.ravel()])
        # a cell wholly inside meets gamma, one wholly outside does not; the
        # margin leaves to the lattice count every cell a rounding could tip
        # (lower corners and extreme squared coordinates; rows are alike)
        lo = xmin + np.arange(ncols) * side
        near = np.maximum(lo, np.minimum(lo + side, 0.0)) ** 2
        far = np.maximum(lo**2, (lo + side) ** 2)
        mask = np.add.outer(far, far) < region.size**2 * (1 - 1e-9)
        rim = np.argwhere(~mask & (np.add.outer(near, near) < region.size**2 * (1 + 1e-9)))
        count = np.empty(len(rim), dtype=np.intp)
        for at in range(0, len(rim), 64):  # 64 cells' lattices, 1 MB, at a time
            base = lo[rim[at : at + 64]]
            hit = region.contains((base[:, None] + sample).reshape(-1, 2))
            count[at : at + len(base)] = np.count_nonzero(hit.reshape(len(base), -1), axis=1)
        mask[tuple(rim.T)] = count / (m * m) * side**2 >= threshold * (1 - 1e-9)

    grid = CellGrid(region, side, mask)
    first = np.zeros(mask.shape, dtype=bool)
    first.flat[np.flatnonzero(mask)[0]] = True
    if np.isinf(grid.distances(first)[mask]).any():
        raise GeometryError("cell cover is not connected under 8-adjacency")
    return grid
