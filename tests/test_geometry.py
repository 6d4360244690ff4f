"""Regions, cell covers, cell distances, and diameter."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redwave import geometry
from redwave.errors import ConfigurationError, GeometryError
from redwave.geometry import (
    BucketGrid,
    CellGrid,
    Region,
    build_cell_grid,
)
from tests.conftest import bucket_cells, cell_diameter, cell_distance, cell_list, covered_cells

# 8-adjacency offsets (side or corner contact)
_ADJ8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# independent oracles, deliberately different from the implementation
# ---------------------------------------------------------------------------


def oracle_cover(region, side, gamma, samples=64):
    """Cell cover by dense sub-sampling at a resolution the implementation
    does not use (64x64 vs the production 32x32)."""
    xmin, ymin, xmax, ymax = region.bounds
    ncols = math.ceil((xmax - xmin) / side - 1e-12)
    nrows = math.ceil((ymax - ymin) / side - 1e-12)
    offs = (np.arange(samples) + 0.5) / samples * side
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    probe = np.column_stack([ox.ravel(), oy.ravel()])
    cover = set()
    for i in range(ncols):
        for j in range(nrows):
            base = np.array([xmin + i * side, ymin + j * side])
            frac = np.count_nonzero(region.contains(probe + base)) / samples**2
            if frac >= gamma * (1 - 1e-9):
                cover.add((i, j))
    return cover


def oracle_bfs(source, cover):
    """Plain dict/deque BFS over an explicit cover set."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        c, r = queue.popleft()
        for dc, dr in _ADJ8:
            nb = (c + dc, r + dr)
            if nb in cover and nb not in dist:
                dist[nb] = dist[(c, r)] + 1
                queue.append(nb)
    return dist


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_region_diameter_and_area():
    sq = Region.square(4.0)
    assert sq.diameter == pytest.approx(4 * math.sqrt(2))
    assert sq.area == 16.0
    dk = Region.disk(3.0)
    assert dk.diameter == 6.0
    assert dk.area == pytest.approx(math.pi * 9)


def test_region_validation():
    with pytest.raises(ConfigurationError):
        Region("triangle", 1.0)
    with pytest.raises(ConfigurationError):
        Region.square(0.0)


def test_region_contains_vectorized():
    sq = Region.square(2.0)
    pts = np.array([[1.0, 1.0], [2.0, 2.0], [2.1, 0.0], [-0.1, 1.0]])
    assert list(sq.contains(pts)) == [True, True, False, False]
    dk = Region.disk(1.0)
    assert dk.contains(np.array([1.0, 0.0]))
    assert not dk.contains(np.array([1.0, 0.1]))


@pytest.mark.parametrize("tol", [0.0, 0.25])
def test_square_contains_matches_per_coordinate_comparisons(tol):
    L = 7.5
    sq = Region.square(L)
    values = [-1.0, -tol, np.nextafter(-tol, -1.0), -0.0, 0.0, 3.0, np.nextafter(L, 0.0), L,
              np.nextafter(L, np.inf), L + tol, np.nextafter(L + tol, np.inf), np.inf, np.nan]
    pts = np.stack(np.meshgrid(values, values), axis=-1).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    expected = (x >= -tol) & (x <= L + tol) & (y >= -tol) & (y <= L + tol)
    # the test must not depend on memory layout: Fortran order, strided
    # columns, strided and reversed rows
    wide = np.zeros((len(pts), 4))
    wide[:, ::2] = pts
    layouts = [pts, np.asfortranarray(pts), wide[:, ::2], np.repeat(pts, 2, axis=0)[::2]]
    for a in layouts:
        assert np.array_equal(sq.contains(a, tol), expected)
    assert np.array_equal(sq.contains(pts[::-1], tol), expected[::-1])
    # a single point, as an array or a list, gives a Python bool
    for p, want in zip(pts, expected):
        assert sq.contains(p, tol) is bool(want)
        assert sq.contains(p.tolist(), tol) is bool(want)


@given(st.sampled_from(["square", "disk"]), st.floats(1e-6, 1e6))
def test_bounding_box_is_a_square_with_equal_corner_coordinates(kind, size):
    # the walks, the placement and the cell keys shift and scale every row
    # by one scalar corner and one scalar span, never by an (x, y) pair
    region = Region(kind, size)
    xmin, ymin, xmax, ymax = region.bounds
    assert xmin == ymin and xmax == ymax
    assert xmin == (0.0 if kind == "square" else -size)
    assert xmax - xmin == (size if kind == "square" else 2 * size)
    grid = build_cell_grid(region, region.diameter / 3, 0.5)
    assert grid.origin == xmin and grid.mask.shape[0] == grid.mask.shape[1]


# ---------------------------------------------------------------------------
# cell covers
# ---------------------------------------------------------------------------


def test_square_cover_exact_tiling(grid_4x4):
    assert set(covered_cells(grid_4x4)) == {(i, j) for i in range(4) for j in range(4)}


def test_disk_cover_excludes_corners(disk_grid):
    # corner-most cells of the 7x7 bounding box cannot meet gamma=1
    assert (0, 0) not in covered_cells(disk_grid)
    assert (6, 6) not in covered_cells(disk_grid)
    # center cell is fully inside
    assert (3, 3) in covered_cells(disk_grid)


def test_disk_cover_matches_subsampling_oracle(disk_grid):
    expected = oracle_cover(Region.disk(10.0), 3.0, 1.0)
    disagree = expected.symmetric_difference(covered_cells(disk_grid))
    assert not disagree
    # the cover is its mask, read-only
    assert not disk_grid.mask.flags.writeable


def _disk_cover_loop(radius, side, gamma):
    """The disk cover from a per-cell loop: the production 32x32 lattice of
    each cell tested with ``Region.contains``, one cell at a time."""
    region = Region.disk(radius)
    m = 32
    n = math.ceil(2 * radius / side - 1e-12)
    offs = (np.arange(m) + 0.5) / m * side
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    sample = np.column_stack([ox.ravel(), oy.ravel()])
    cover = set()
    for i in range(n):
        for j in range(n):
            base = np.array([-radius + i * side, -radius + j * side])
            frac = np.count_nonzero(region.contains(sample + base)) / (m * m)
            if frac * side**2 >= gamma * side**2 * (1 - 1e-9):
                cover.add((i, j))
    return cover


# (5, 1) and (10, 2) put cell corners exactly on the circle, at (3, 4) and (6, 8)
@pytest.mark.parametrize(
    "radius, side", [(5.0, 1.0), (10.0, 2.0), (17.3, 1.5), (40.0, 3.0), (12.0, 12 / 7)]
)
@pytest.mark.parametrize("gamma", [0.3, 0.6, 1.0])
def test_disk_cover_matches_per_cell_loop(radius, side, gamma):
    grid = build_cell_grid(Region.disk(radius), side, gamma)
    assert set(covered_cells(grid)) == _disk_cover_loop(radius, side, gamma)


def test_indivisible_side_partial_cells():
    # 12/5: boundary strips are 2 wide, so gamma=1 keeps only the 2x2 core
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)
    assert set(covered_cells(grid)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # a permissive gamma keeps the partial cells (area fraction 2*5/25 = 0.4)
    # a permissive gamma keeps the edge strips (area fraction 10/25 = 0.4)
    # but still drops the 2x2 corner cell (4/25 = 0.16)
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=0.4)
    expected = {(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)}
    assert set(covered_cells(grid)) == expected


def test_degenerate_side_rejected():
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(4.0), 6.0, gamma=0.5)


@pytest.mark.parametrize(
    "region, side",
    [(Region.square(1e9), 6.0), (Region.disk(1e9), 8.0), (Region.square(4097.0), 1.0)],
)
def test_huge_index_box_rejected_before_allocating(region, side):
    # the first two would ask for about a gigabyte per box-sized float array
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="index box"):
            build_cell_grid(region, side, gamma=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_index_box_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_BOX_CELLS", 16)
    assert build_cell_grid(Region.square(12.0), 3.0, gamma=0.3).mask.shape == (4, 4)
    with pytest.raises(ConfigurationError, match="index box"):
        build_cell_grid(Region.square(12.0), 2.9, gamma=0.3)


def test_gamma_validation():
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(12.0), 3.0, gamma=0.0)
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(12.0), 3.0, gamma=1.5)


def _square_cover_loop(L, side, gamma):
    """The square cover from a per-cell loop over the analytic overlap area."""
    n = math.ceil(L / side - 1e-12)
    cover = set()
    for i in range(n):
        w = min((i + 1) * side, L) - i * side
        for j in range(n):
            h = min((j + 1) * side, L) - j * side
            if w > 0 and h > 0 and w * h >= gamma * side**2 * (1 - 1e-9):
                cover.add((i, j))
    return cover


def _owner_oracle(cover, shape):
    """Nearest covered cell by chessboard distance, lowest flat index first."""
    cells = np.array(sorted(cover))  # sorted pairs are in flat index order
    flat = np.ravel_multi_index(cells.T, shape)
    owner = np.empty(shape, dtype=np.intp)
    for c in range(shape[0]):
        for r in range(shape[1]):
            d = np.maximum(np.abs(cells[:, 0] - c), np.abs(cells[:, 1] - r))
            owner[c, r] = flat[np.argmin(d)]
    return owner


@pytest.mark.parametrize(
    "L, side",
    [(48.0, 2.1213203435596424), (10.0, 3.0), (192.0, 192 / 92), (12.0, 5.0)],
)
@pytest.mark.parametrize("gamma", [0.3, 0.6, 1.0])
def test_square_cover_matches_per_cell_loop(L, side, gamma):
    expected = _square_cover_loop(L, side, gamma)
    if not expected:
        with pytest.raises(GeometryError):
            build_cell_grid(Region.square(L), side, gamma)
        return
    grid = build_cell_grid(Region.square(L), side, gamma)
    assert set(covered_cells(grid)) == expected
    mask = np.zeros(grid.mask.shape, dtype=bool)
    mask[tuple(np.array(sorted(expected)).T)] = True
    assert np.array_equal(grid.mask, mask)
    assert np.array_equal(grid.owner, _owner_oracle(expected, mask.shape))


# ---------------------------------------------------------------------------
# cell ownership
# ---------------------------------------------------------------------------


def _owning_cells(grid, points):
    return np.column_stack(np.unravel_index(grid.owners_of(np.array(points)), grid.mask.shape))


def test_cell_of_basic(grid_4x4):
    cells = _owning_cells(grid_4x4, [(0.0, 0.0), (3.0, 3.0), (2.999, 0.0)])
    assert cells.tolist() == [[0, 0], [1, 1], [0, 0]]  # half-open boundary


@pytest.mark.parametrize(
    "region, side, gamma",
    [(Region.square(13.0), 2.0, 0.6), (Region.disk(10.0), 3.0, 1.0), (Region.square(12.0), 5.0, 1.0)],
)
def test_owner_is_nearest_covered_cell_lowest_index_first(region, side, gamma):
    grid = build_cell_grid(region, side, gamma)
    W, H = grid.mask.shape
    for c in range(W):
        for r in range(H):
            # cells in index order: the first minimum is the lowest index
            best = min(covered_cells(grid), key=lambda k: max(abs(k[0] - c), abs(k[1] - r)))
            assert np.unravel_index(grid.owner[c, r], (W, H)) == best


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=12),
    picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=40),
)
# one corner cell: the far corner takes 11 rounds; two opposite corners: the
# anti-diagonal ties; two cells in one row: the cells between tie
@example(width=12, picks=[(0, 0)])
@example(width=9, picks=[(0, 0), (8, 8)])
@example(width=10, picks=[(2, 5), (7, 5)])
def test_owner_matches_chessboard_argmin_on_random_masks(width, picks):
    cover = {(c % width, r % width) for c, r in picks}
    mask = np.zeros((width, width), dtype=bool)
    mask[tuple(np.array(sorted(cover)).T)] = True
    grid = CellGrid(Region.square(float(width)), 1.0, mask)
    assert np.array_equal(grid.owner, _owner_oracle(cover, mask.shape))


def test_cell_grid_rejects_an_empty_cover():
    with pytest.raises(GeometryError, match="empty cell cover"):
        CellGrid(Region.square(12.0), 3.0, np.zeros((4, 4), dtype=bool))


def test_cell_of_uncovered_sliver_goes_to_nearest_covered_cell():
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)  # 2x2 core in a 3x3 box
    cells = _owning_cells(grid, [(11.0, 11.0), (12.0, 0.0), (11.0, 7.0)])
    # the far edge of the box, and a tie between (1, 0) and (1, 1)
    assert cells.tolist() == [[1, 1], [1, 0], [1, 0]]


def _bin_oracle(grid, positions, states):
    """Counts per state and owning cell from bucket_cells clipped to the box."""
    cells = bucket_cells(positions, grid.side, grid.origin)
    cells = np.clip(cells, 0, np.array(grid.mask.shape) - 1)
    counts = np.zeros((3,) + grid.mask.shape, dtype=np.int64)
    own = np.unravel_index(grid.owner[cells[:, 0], cells[:, 1]], grid.mask.shape)
    np.add.at(counts, (states, *own), 1)
    return counts


@pytest.mark.parametrize(
    "region, side, gamma",
    [
        (Region.square(13.0), 2.0, 0.6),  # uncovered slivers on the far sides
        (Region.disk(10.0), 3.0, 1.0),  # uncovered rim cells
        (Region.square(48.0), 48 / 23, 0.3),
    ],
)
def test_bin_matches_bucket_cells_oracle(region, side, gamma):
    grid = build_cell_grid(region, side, gamma)
    gen = np.random.default_rng(11)
    xmin, ymin, xmax, ymax = region.bounds
    pts = gen.uniform((xmin, ymin), (xmax, ymax), size=(500, 2))
    pts = pts[region.contains(pts)]
    if region.kind == "square":
        # the far edges and corners of the box
        edge = [(xmax, ymax), (xmax, ymin), (xmin, ymax), (xmax, 5.0), (5.0, ymax), (xmin, ymin)]
    else:
        edge = [(xmax, 0.0), (0.0, ymax), (xmin, 0.0), (0.0, ymin), (7.0, 7.0)]
    pts = np.vstack([pts, edge])
    states = gen.integers(0, 3, size=len(pts)).astype(np.int8)
    assert np.array_equal(grid.bin(pts, states), _bin_oracle(grid, pts, states))
    assert grid.bin(pts, states).sum() == len(pts)


# ---------------------------------------------------------------------------
# neighborhood
# ---------------------------------------------------------------------------


def _neighborhood(c, grid):
    """N(c) as the audits take it: the 3x3 window around c, over the cover."""
    one = np.zeros(grid.mask.shape, dtype=bool)
    one[c] = True
    return set(cell_list(geometry.touching(one) & grid.mask))


def test_neighborhood_sizes(grid_4x4):
    assert len(_neighborhood((1, 1), grid_4x4)) == 9
    assert len(_neighborhood((0, 0), grid_4x4)) == 4
    assert len(_neighborhood((1, 0), grid_4x4)) == 6


@pytest.mark.parametrize(
    "shape, dtype", [((3, 4), bool), ((4, 3), bool), ((5, 4), bool), ((4,), bool), ((4, 4), int)]
)
def test_cell_grid_mask_must_span_the_index_box(shape, dtype):
    # a square of side 12 with side-3 cells has a 4x4 index box
    with pytest.raises(GeometryError):
        CellGrid(Region.square(12.0), 3.0, np.ones(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# the masked distance transform
# ---------------------------------------------------------------------------


def oracle_transform(sources, through):
    """The least BFS distance through ``through`` from a True cell of
    ``sources`` in ``through`` (+inf outside it or unreachable)."""
    cells = set(zip(*np.nonzero(through)))
    out = np.full(through.shape, np.inf)
    for y in cells:
        if sources[y]:
            for x, d in oracle_bfs(y, cells).items():
                out[x] = min(out[x], d)
    return out


def _random_masks(seed):
    """Boolean masks with holes in boxes from 1x1 to 9x9."""
    gen = np.random.default_rng(seed)
    for _ in range(12):
        shape = tuple(gen.integers(1, 10, size=2))
        yield gen, gen.random(shape) < gen.uniform(0.4, 0.95)


@pytest.mark.parametrize("seed", range(4))
def test_distance_transform_matches_bfs_oracle(seed):
    for gen, through in _random_masks(seed):
        # some sources on blocked cells
        sources = gen.random(through.shape) < 0.1
        got = geometry.distance_transform(sources, through)
        assert np.array_equal(got, oracle_transform(sources, through))


def _assert_transform(sources, through):
    before = sources.copy(), through.copy()
    got = geometry.distance_transform(sources, through)
    assert np.array_equal(sources, before[0]) and np.array_equal(through, before[1])
    assert got.shape == sources.shape
    assert np.array_equal(got, oracle_transform(sources, through))


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 23), (23, 1), (40, 70)])
def test_distance_transform_beyond_small_boxes(shape):
    gen = np.random.default_rng(math.prod(shape))
    # thin boxes hold only one path, so they keep every cell
    through = gen.random(shape) < (0.75 if min(shape) > 1 else 1.0)
    density = 0.02 if min(shape) > 1 else 0.3
    _assert_transform(gen.random(shape) < density, through)


def test_distance_transform_with_nothing_to_spread():
    gen = np.random.default_rng(3)
    none, every = np.zeros((6, 9), dtype=bool), np.ones((6, 9), dtype=bool)
    # no cell to pass through, then no source to start from
    for sources, through in ((gen.random((6, 9)) < 0.5, none), (none, every)):
        got = geometry.distance_transform(sources, through)
        assert got.shape == (6, 9) and np.isinf(got).all()


@pytest.mark.parametrize("seed", range(3))
def test_distance_transform_sources_on_the_box_edge(seed):
    # without a blocked pad, a flat offset from the last column reaches the
    # next row's first, and one from the first or last row wraps to the far end
    gen = np.random.default_rng(seed)
    shape = (7, 11)
    edge = np.ones(shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    for through in (np.ones(shape, dtype=bool), gen.random(shape) < 0.8):
        _assert_transform(edge & (gen.random(shape) < 0.4), through)


def test_distance_transform_visits_each_cell_once():
    # a frontier that kept repeats would hold each cell once per path to it,
    # about 3**11 entries by the far corner of an open 12x12 box
    through = np.ones((12, 12), dtype=bool)
    sources = np.zeros(through.shape, dtype=bool)
    sources[0, 0] = True
    tracemalloc.start()
    try:
        got = geometry.distance_transform(sources, through)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(got, oracle_transform(sources, through))


def test_distance_transform_through_a_serpentine_corridor():
    # walls across every other line of a 31 x 31 box, each with one gap at
    # alternating row ends: the one path turns next to the padding at every
    # wall, and its length, past 255 levels, far exceeds the chessboard
    # distance of at most 30
    through = np.ones((31, 31), dtype=bool)
    for wall in range(1, 31, 2):
        through[wall] = False
        through[wall, -1 if wall % 4 == 1 else 0] = True
    corner = np.zeros(through.shape, dtype=bool)
    corner[0, 0] = True
    both = corner.copy()
    both[16, 15] = True
    for sources in (corner, both):
        got = geometry.distance_transform(sources, through)
        assert np.array_equal(got, oracle_transform(sources, through))
    assert geometry.distance_transform(corner, through)[30, 30] > 255


def test_distance_transform_over_the_full_audit_box():
    # with every cell free, the BFS distance is the chessboard distance to
    # the nearest source
    shape = (92, 92)
    c, r = np.indices(shape)
    sources = np.abs(np.hypot(c - 45.5, r - 45.5) - 30) < 0.5
    cells = np.column_stack([c.ravel(), r.ravel()])
    apart = np.abs(cells[:, None, :] - np.argwhere(sources)[None, :, :]).max(axis=2)
    expected = apart.min(axis=1).reshape(shape).astype(float)
    got = geometry.distance_transform(sources, np.ones(shape, dtype=bool))
    assert np.array_equal(got, expected)


def test_touching_marks_cells_in_or_next_to_a_true_cell():
    # the box edge must not count as a True neighbour
    for gen, cells in _random_masks(5):
        expected = np.zeros_like(cells)
        for c, r in zip(*np.nonzero(cells)):
            expected[max(c - 1, 0) : c + 2, max(r - 1, 0) : r + 2] = True
        assert np.array_equal(geometry.touching(cells), expected)
        # integer inputs: the window maximum, minimum and sum, against a
        # brute-force 3x3 window that skips the cells beyond the box
        values = gen.integers(-50, 50, size=cells.shape)
        for op, reduce in ((np.maximum, np.max), (np.minimum, np.min), (np.add, np.sum)):
            expected = np.empty_like(values)
            for c, r in np.ndindex(values.shape):
                expected[c, r] = reduce(values[max(c - 1, 0) : c + 2, max(r - 1, 0) : r + 2])
            got = geometry.touching(values, op)
            assert got.dtype == values.dtype
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# cell distance and diameter
# ---------------------------------------------------------------------------


def test_cell_distance_basic(grid_15x15):
    assert cell_distance((2, 2), (2, 2), grid_15x15) == 0
    assert cell_distance((2, 2), (3, 3), grid_15x15) == 1
    assert cell_distance((0, 0), (7, 3), grid_15x15) == 7


def test_cell_distance_equals_chebyshev_on_full_grid(grid_15x15):
    for a in [(0, 0), (5, 9), (14, 14)]:
        dist = oracle_bfs(a, set(covered_cells(grid_15x15)))
        for b, d in dist.items():
            assert d == max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            assert cell_distance(a, b, grid_15x15) == d


def test_cell_diameter_full_grid(grid_4x4, grid_15x15):
    assert cell_diameter(grid_4x4) == 3
    assert cell_diameter(grid_15x15) == 14


def test_cell_diameter_single_cell():
    grid = CellGrid(Region.square(1.0), 1.0, np.ones((1, 1), dtype=bool))
    assert cell_diameter(grid) == 0


def test_cell_diameter_disk_matches_allpairs_bfs(disk_grid):
    best = 0
    for a in covered_cells(disk_grid):
        best = max(best, max(oracle_bfs(a, set(covered_cells(disk_grid))).values()))
    assert cell_diameter(disk_grid) == best


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


_METRIC_GRID = build_cell_grid(Region.disk(10.0), 3.0, gamma=1.0)
_METRIC_CELLS = covered_cells(_METRIC_GRID)


@settings(max_examples=50, deadline=None)
@given(
    a=st.sampled_from(_METRIC_CELLS),
    b=st.sampled_from(_METRIC_CELLS),
    c=st.sampled_from(_METRIC_CELLS),
)
def test_cell_distance_is_a_metric(a, b, c):
    grid = _METRIC_GRID
    assert cell_distance(a, a, grid) == 0
    dab = cell_distance(a, b, grid)
    assert dab == cell_distance(b, a, grid)
    assert (dab == 0) == (a == b)
    assert dab <= cell_distance(a, c, grid) + cell_distance(c, b, grid)


@settings(max_examples=30, deadline=None)
@given(
    cols=st.integers(min_value=2, max_value=12),
    rows=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
def test_chebyshev_on_random_full_rectangles(cols, rows, data):
    mask = np.zeros((max(cols, rows),) * 2, dtype=bool)
    mask[:cols, :rows] = True
    grid = CellGrid(Region.square(max(cols, rows)), 1.0, mask)
    a = data.draw(st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1)))
    b = data.draw(st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1)))
    assert cell_distance(a, b, grid) == max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["square", "disk"]),
    size=st.floats(min_value=8.0, max_value=20.0),
    side=st.floats(min_value=1.5, max_value=3.0),
)
def test_cell_diameter_brackets_region_diameter(kind, size, side):
    region = Region(kind, size)
    grid = build_cell_grid(region, side, gamma=0.5)
    D = region.diameter
    d_cells = cell_diameter(grid)
    assert d_cells * side >= D / math.sqrt(2) - 2 * side
    assert d_cells * side <= 2 * D


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_neighborhood_contains_self_and_bounded(data, disk_grid):
    c = data.draw(st.sampled_from(covered_cells(disk_grid)))
    nb = _neighborhood(c, disk_grid)
    assert c in nb
    assert 1 <= len(nb) <= 9
    assert nb <= set(covered_cells(disk_grid))


# ---------------------------------------------------------------------------
# the neighbour query
# ---------------------------------------------------------------------------


def oracle_candidates(positions, queries, targets, side, origin, block):
    """Each query's targets at most ``block`` buckets away in both axes, from
    the bucket indices of every (query, target) pair."""
    cells = bucket_cells(positions, side, origin)
    gap = np.abs(cells[queries, None, :] - cells[None, targets, :]).max(axis=2)
    near = gap <= block
    return {int(q): set(targets[row].tolist()) for q, row in zip(queries, near) if row.any()}


@pytest.mark.parametrize("cap", [1, 5, 64, 1 << 14])
@pytest.mark.parametrize("block", [0, 1])
def test_neighbour_blocks_matches_bucket_oracle(monkeypatch, cap, block):
    monkeypatch.setattr(geometry, "_CHUNK_PAIRS", cap)
    gen = np.random.default_rng(7 * cap + block)
    # sparse agents on both sides of the origin, and a crowd of 40 in one
    # bucket: a query next to it has more candidates than small chunks hold
    positions = np.r_[gen.random((150, 2)) * 40 - 20, gen.random((40, 2)) * 0.5 + 3.0]
    queries = np.sort(gen.choice(190, 120, replace=False))
    targets = np.sort(gen.choice(190, 100, replace=False))
    side, frame = 2.5, (-21.0, -22.0, 20.0, 20.0)
    expected = oracle_candidates(positions, queries, targets, side, frame[:2], block)
    chunks = list(BucketGrid(positions, targets, side, frame, block).query(queries, block))
    got = {}
    for q, counts, t, d2 in chunks:
        assert np.all(counts > 0) and len(t) == len(d2) == counts.sum()
        # no chunk exceeds the cap, unless it is a single query over it
        assert len(t) <= max(cap, counts.max())
        assert len(q) == 1 or len(t) <= cap
        bounds = np.cumsum(counts)[:-1]
        for query, seg, dd in zip(q, np.split(t, bounds), np.split(d2, bounds)):
            dx = positions[query, 0] - positions[seg, 0]
            dy = positions[query, 1] - positions[seg, 1]
            assert np.array_equal(dd, dx * dx + dy * dy)
            assert len(set(seg.tolist())) == len(seg)
            got[int(query)] = set(seg.tolist())
    assert got == expected
    # each query with a candidate comes in exactly one chunk
    yielded = np.concatenate([q for q, _, _, _ in chunks])
    assert sorted(yielded.tolist()) == sorted(expected)
    if cap < 40:
        assert any(len(q) == 1 and len(t) > cap for q, _, t, _ in chunks)


@pytest.mark.parametrize("cap", [1, 5, 64, 1 << 14])
def test_bucket_grid_serves_every_block_up_to_its_margin(monkeypatch, cap):
    # one binning, queried at blocks 0 .. 3, each as the bucket oracle
    monkeypatch.setattr(geometry, "_CHUNK_PAIRS", cap)
    gen = np.random.default_rng(11 * cap)
    positions = np.r_[gen.random((150, 2)) * 40 - 20, gen.random((40, 2)) * 0.5 + 3.0]
    queries = np.sort(gen.choice(190, 120, replace=False))
    targets = np.sort(gen.choice(190, 100, replace=False))
    side, frame, margin = 2.5, (-21.0, -22.0, 20.0, 20.0), 3
    grid = BucketGrid(positions, targets, side, frame, margin)
    for block in range(margin + 1):
        got = {}
        for q, counts, t, d2 in grid.query(queries, block):
            assert np.all(counts > 0) and len(t) == len(d2) == counts.sum()
            assert len(q) == 1 or len(t) <= cap
            bounds = np.cumsum(counts)[:-1]
            for query, seg, dd in zip(q, np.split(t, bounds), np.split(d2, bounds)):
                dx = positions[query, 0] - positions[seg, 0]
                dy = positions[query, 1] - positions[seg, 1]
                assert np.array_equal(dd, dx * dx + dy * dy)
                assert int(query) not in got and len(set(seg.tolist())) == len(seg)
                got[int(query)] = set(seg.tolist())
        assert got == oracle_candidates(positions, queries, targets, side, frame[:2], block)
    with pytest.raises(ValueError):
        next(grid.query(queries, margin + 1))


def _candidates(chunks):
    """Each query's candidate targets, from a query's chunks."""
    got = {}
    for q, counts, t, _ in chunks:
        for query, seg in zip(q, np.split(t, np.cumsum(counts)[:-1])):
            got[int(query)] = set(seg.tolist())
    return got


@pytest.mark.parametrize("first", [0, 60])
def test_bucket_grid_front_is_the_bucket_oracle(first):
    # block_counts and near(block, first) against the bucket oracle at every
    # block; the query that follows near() at its block reads the counts
    # near() kept, even with a query at another block in between
    gen = np.random.default_rng(13 + first)
    positions = np.r_[gen.random((150, 2)) * 40 - 20, gen.random((40, 2)) * 0.5 + 3.0]
    targets = np.sort(gen.choice(190, 30, replace=False))
    side, frame, margin = 2.5, (-21.0, -22.0, 20.0, 20.0), 3
    grid = BucketGrid(positions, targets, side, frame, margin)
    rows = np.arange(first, len(positions))
    for block in range(margin + 1):
        expected = oracle_candidates(positions, rows, targets, side, frame[:2], block)
        counts = grid.block_counts(block)[grid.keys[rows]]
        assert {int(r): int(c) for r, c in zip(rows, counts) if c} == {
            q: len(t) for q, t in expected.items()
        }
        assert grid.near(block, first).tolist() == sorted(expected)
        other = (block + 1) % (margin + 1)
        assert _candidates(grid.query(rows, other)) == oracle_candidates(
            positions, rows, targets, side, frame[:2], other
        )
        assert _candidates(grid.query(rows, block)) == expected
    with pytest.raises(ValueError):
        grid.near(margin + 1)


def test_neighbour_blocks_empty_sets():
    positions = np.random.default_rng(0).random((10, 2))
    none, every = np.empty(0, dtype=np.int64), np.arange(10)
    assert list(BucketGrid(positions, every, 0.3, (0, 0, 1, 1)).query(none)) == []
    assert list(BucketGrid(positions, none, 0.3, (0, 0, 1, 1)).query(every)) == []
    assert list(BucketGrid(positions, none, 0.3, (0, 0, 1, 1), margin=0).query(none, block=0)) == []


@settings(max_examples=150, deadline=None)
@given(
    corner=st.tuples(st.integers(-80, 80), st.integers(-80, 80)),
    across=st.integers(2, 16),
    side=st.sampled_from([0.25, 0.5, 1.0, 2.5, 3.0]),
    margin=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucket_grid_keys_are_the_floor_buckets_of_its_frame(corner, across, side, margin, seed):
    # a dense cluster of across**2 agents spanning its frame, whose extent is
    # exactly ``across`` sides (quarter-integer corners and sides are exact
    # in floats), as the isolation scan's side makes it for a square n: an
    # agent on the far edge floors to bucket ``across``, one past the last
    # full bucket, and the box must hold it
    gen = np.random.default_rng(seed)
    lo, extent = np.array(corner) / 4, across * side
    positions = lo + gen.random((across**2, 2)) * extent
    positions[:4] = [lo, lo + extent, (lo[0] + extent, lo[1]), (lo[0], lo[1] + extent)]
    bounds = (*lo, *(lo + extent))
    assert (bounds[2] - bounds[0]) / side == across
    targets = np.flatnonzero(gen.random(len(positions)) < 0.5)
    grid = BucketGrid(positions, targets, side, bounds, margin)
    # the oracle's buckets from the frame's corner, the box up to its far corner's
    box = bucket_cells(bounds[2:], side, bounds[:2])[0] + 1 + 2 * margin
    keys = np.ravel_multi_index((bucket_cells(positions, side, bounds[:2]) + margin).T, box)
    assert np.array_equal(grid.keys, keys)
    assert np.array_equal(grid.start, np.r_[0, np.cumsum(np.bincount(keys[targets], minlength=box.prod()))])
    assert np.array_equal(grid.order, targets[np.argsort(keys[targets], kind="stable")])
