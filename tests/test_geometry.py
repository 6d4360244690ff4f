"""Regions, cell covers, cell distances, diameter, and eccentricity."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwave import geometry
from redwave.errors import ConfigurationError, GeometryError
from redwave.geometry import (
    BucketGrid,
    CellGrid,
    Region,
    bucket_cells,
    build_cell_grid,
    eccentricity,
)
from tests.conftest import cell_diameter, cell_distance

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
    assert set(grid_4x4.cells) == {(i, j) for i in range(4) for j in range(4)}


def test_disk_cover_excludes_corners(disk_grid):
    # corner-most cells of the 7x7 bounding box cannot meet gamma=1
    assert (0, 0) not in disk_grid.cells
    assert (6, 6) not in disk_grid.cells
    # center cell is fully inside
    assert (3, 3) in disk_grid.cells


def test_disk_cover_matches_subsampling_oracle(disk_grid):
    expected = oracle_cover(Region.disk(10.0), 3.0, 1.0)
    disagree = expected.symmetric_difference(disk_grid.cells)
    assert not disagree
    # the cover is its mask, read-only; cells lists it in index order
    assert disk_grid.cells == sorted(disk_grid.cells)
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
    assert set(grid.cells) == _disk_cover_loop(radius, side, gamma)


def test_indivisible_side_partial_cells():
    # 12/5: boundary strips are 2 wide, so gamma=1 keeps only the 2x2 core
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)
    assert set(grid.cells) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # a permissive gamma keeps the partial cells (area fraction 2*5/25 = 0.4)
    # a permissive gamma keeps the edge strips (area fraction 10/25 = 0.4)
    # but still drops the 2x2 corner cell (4/25 = 0.16)
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=0.4)
    assert set(grid.cells) == {(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)}


def test_degenerate_side_rejected():
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(4.0), 6.0, gamma=0.5)


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
    assert set(grid.cells) == expected
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
            best = min(grid.cells, key=lambda k: max(abs(k[0] - c), abs(k[1] - r)))
            assert np.unravel_index(grid.owner[c, r], (W, H)) == best


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
    return set(geometry.cell_list(geometry.touching(one) & grid.mask))


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


def oracle_transform(start, through, step):
    """min over every cell y of ``through`` of start[y] + step * d(y, x), with
    d the BFS distance through ``through`` (+inf outside it or unreachable)."""
    cells = set(zip(*np.nonzero(through)))
    out = np.full(start.shape, np.inf)
    for y in cells:
        if np.isfinite(start[y]):
            for x, d in oracle_bfs(y, cells).items():
                out[x] = min(out[x], start[y] + step * d)
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
        # unit step from 0 at the sources, some of them blocked
        start = np.where(gen.random(through.shape) < 0.1, 0.0, np.inf)
        got = geometry.distance_transform(start, through)
        assert np.array_equal(got, oracle_transform(start, through, 1))
        # step 0: the minimum of each 8-connected component
        start = gen.permutation(through.size).reshape(through.shape).astype(float)
        got = geometry.distance_transform(start, through, step=0)
        assert np.array_equal(got, oracle_transform(start, through, 0))
        # step = size: distance * size + the index of the nearest, lowest source
        size = through.size
        index = np.arange(size, dtype=float).reshape(through.shape)
        start = np.where(gen.random(through.shape) < 0.3, index, np.inf)
        got = geometry.distance_transform(start, through, step=size)
        assert np.array_equal(got, oracle_transform(start, through, size))


def test_distance_transform_leading_axis_solves_each_problem():
    for gen, through in _random_masks(9):
        starts = np.where(gen.random((3,) + through.shape) < 0.15, 0.0, np.inf)
        got = geometry.distance_transform(starts, through)
        assert got.shape == starts.shape
        for start, one in zip(starts, got):
            assert np.array_equal(one, oracle_transform(start, through, 1))


def _three_step_kinds(gen, shape, density):
    """(start, step) pairs over a box: unit step from 0 at the sources, step
    0 over distinct values at the sources, step = size from the sources' flat
    indices, with sources at a ``density`` share of the cells."""
    size = math.prod(shape[-2:])
    index = np.arange(size, dtype=float).reshape(shape[-2:])
    values = gen.permutation(size).reshape(shape[-2:]).astype(float)
    for value, step in ((0.0, 1), (values, 0), (index, size)):
        yield np.where(gen.random(shape) < density, value, np.inf), step


def _assert_transform(start, through, step):
    before = start.copy()
    got = geometry.distance_transform(start, through, step)
    assert np.array_equal(start, before)
    assert got.shape == start.shape
    box = (-1,) + start.shape[-2:]
    for one, problem in zip(got.reshape(box), start.reshape(box)):
        assert np.array_equal(one, oracle_transform(problem, through, step))


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 23), (23, 1), (40, 70)])
def test_distance_transform_beyond_small_boxes(shape):
    gen = np.random.default_rng(math.prod(shape))
    # thin boxes hold only one path, so they keep every cell
    through = gen.random(shape) < (0.75 if min(shape) > 1 else 1.0)
    density = 0.02 if min(shape) > 1 else 0.3
    for start, step in _three_step_kinds(gen, shape, density):
        _assert_transform(start, through, step)


def test_distance_transform_with_nothing_to_spread():
    gen = np.random.default_rng(3)
    none, every = np.zeros((6, 9), dtype=bool), np.ones((6, 9), dtype=bool)
    for start, step in _three_step_kinds(gen, (6, 9), 0.5):
        # no cell to pass through, then no source to start from
        for s, through in ((start, none), (np.full_like(start, np.inf), every)):
            got = geometry.distance_transform(s, through, step)
            assert got.shape == (6, 9) and np.isinf(got).all()


@pytest.mark.parametrize("seed", range(3))
def test_distance_transform_sources_on_the_box_edge(seed):
    # without a blocked pad, a flat offset from the last column reaches the
    # next row's first, and one from the last row the next problem's first
    gen = np.random.default_rng(seed)
    shape = (3, 7, 11)
    edge = np.ones(shape[1:], dtype=bool)
    edge[1:-1, 1:-1] = False
    for through in (np.ones(shape[1:], dtype=bool), gen.random(shape[1:]) < 0.8):
        for start, step in _three_step_kinds(gen, shape, 0.4):
            start[:, ~edge] = np.inf
            start[-1] = np.inf  # the last problem has no source at all
            _assert_transform(start, through, step)


@pytest.mark.parametrize("step", [1, 0, 144])
def test_distance_transform_visits_each_cell_once(step):
    # a frontier that kept repeats would hold each cell once per path to it,
    # about 3**11 entries by the far corner of an open 12x12 box
    through = np.ones((12, 12), dtype=bool)
    start = np.full(through.shape, np.inf)
    start[0, 0] = 0.0
    # a second, higher source: step 0 re-enters cells, step = size takes minima
    start[5, 5] = {1: np.inf, 0: 1.0, 144: 65.0}[step]
    tracemalloc.start()
    try:
        got = geometry.distance_transform(start, through, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(got, oracle_transform(start, through, step))


def test_touching_marks_cells_in_or_next_to_a_true_cell():
    # the box edge must not count as a True neighbour
    for gen, cells in _random_masks(5):
        expected = np.zeros_like(cells)
        for c, r in zip(*np.nonzero(cells)):
            expected[max(c - 1, 0) : c + 2, max(r - 1, 0) : r + 2] = True
        assert np.array_equal(geometry.touching(cells), expected)
        # integer inputs: the window maximum and the window sum, against a
        # brute-force 3x3 window that skips the cells beyond the box
        values = gen.integers(-50, 50, size=cells.shape)
        for op, reduce in ((np.maximum, np.max), (np.add, np.sum)):
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
        dist = oracle_bfs(a, set(grid_15x15.cells))
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
    for a in disk_grid.cells:
        best = max(best, max(oracle_bfs(a, set(disk_grid.cells)).values()))
    assert cell_diameter(disk_grid) == best


# ---------------------------------------------------------------------------
# eccentricity
# ---------------------------------------------------------------------------


def test_eccentricity_center():
    L = 10.0
    ecc = eccentricity([(L / 2, L / 2)], Region.square(L))
    assert ecc == pytest.approx(L / math.sqrt(2), abs=Region.square(L).diameter / 1000 + 1e-9)


def test_eccentricity_one_corner():
    L = 10.0
    ecc = eccentricity([(0.0, 0.0)], Region.square(L))
    assert ecc == pytest.approx(L * math.sqrt(2), abs=Region.square(L).diameter / 1000 + 1e-9)


def test_eccentricity_four_corners():
    L = 10.0
    corners = [(0.0, 0.0), (0.0, L), (L, 0.0), (L, L)]
    ecc = eccentricity(corners, Region.square(L))
    assert ecc == pytest.approx(L / math.sqrt(2), abs=Region.square(L).diameter / 1000 + 1e-9)


def test_eccentricity_errors():
    with pytest.raises(GeometryError):
        eccentricity(np.empty((0, 2)), Region.square(1.0))
    with pytest.raises(GeometryError):
        eccentricity([(5.0, 5.0)], Region.square(2.0))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


_METRIC_GRID = build_cell_grid(Region.disk(10.0), 3.0, gamma=1.0)
_METRIC_CELLS = _METRIC_GRID.cells


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
    c = data.draw(st.sampled_from(disk_grid.cells))
    nb = _neighborhood(c, disk_grid)
    assert c in nb
    assert 1 <= len(nb) <= 9
    assert nb <= set(disk_grid.cells)


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
    side, origin = 2.5, (-1.0, 0.5)
    expected = oracle_candidates(positions, queries, targets, side, origin, block)
    chunks = list(BucketGrid(positions, targets, side, origin, block).query(queries, block))
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
    side, origin, margin = 2.5, (-1.0, 0.5), 3
    grid = BucketGrid(positions, targets, side, origin, margin)
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
        assert got == oracle_candidates(positions, queries, targets, side, origin, block)
    with pytest.raises(ValueError):
        next(grid.query(queries, margin + 1))


def test_neighbour_blocks_empty_sets():
    positions = np.random.default_rng(0).random((10, 2))
    none, every = np.empty(0, dtype=np.int64), np.arange(10)
    assert list(BucketGrid(positions, every, 0.3).query(none)) == []
    assert list(BucketGrid(positions, none, 0.3).query(every)) == []
    assert list(BucketGrid(positions, none, 0.3, margin=0).query(none, block=0)) == []
