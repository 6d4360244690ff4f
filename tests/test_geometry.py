"""Regions, cell covers, cell distances, diameter, and eccentricity."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwave import geometry
from redwave.errors import ConfigurationError, GeometryError
from redwave.geometry import (
    _ADJ8,
    CellGrid,
    Region,
    bucket_cells,
    build_cell_grid,
    cell_diameter,
    cell_distance,
    cell_of,
    eccentricity,
    neighborhood,
    neighbour_blocks,
)


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


# ---------------------------------------------------------------------------
# cell covers
# ---------------------------------------------------------------------------


def test_square_cover_exact_tiling(grid_4x4):
    assert grid_4x4.cover == frozenset((i, j) for i in range(4) for j in range(4))


def test_disk_cover_excludes_corners(disk_grid):
    # corner-most cells of the 7x7 bounding box cannot meet gamma=1
    assert (0, 0) not in disk_grid.cover
    assert (6, 6) not in disk_grid.cover
    # center cell is fully inside
    assert (3, 3) in disk_grid.cover


def test_disk_cover_matches_subsampling_oracle(disk_grid):
    expected = oracle_cover(Region.disk(10.0), 3.0, 1.0)
    disagree = expected.symmetric_difference(disk_grid.cover)
    # knife-edge cells may differ between sampling resolutions; none here
    assert disagree <= set(disk_grid.knife_edge)


def test_indivisible_side_partial_cells():
    # 12/5: boundary strips are 2 wide, so gamma=1 keeps only the 2x2 core
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)
    assert grid.cover == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    # a permissive gamma keeps the partial cells (area fraction 2*5/25 = 0.4)
    # a permissive gamma keeps the edge strips (area fraction 10/25 = 0.4)
    # but still drops the 2x2 corner cell (4/25 = 0.16)
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=0.4)
    assert grid.cover == frozenset(
        (i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)
    )


def test_degenerate_side_rejected():
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(4.0), 6.0, gamma=0.5)


def test_gamma_validation():
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(12.0), 3.0, gamma=0.0)
    with pytest.raises(ConfigurationError):
        build_cell_grid(Region.square(12.0), 3.0, gamma=1.5)


# ---------------------------------------------------------------------------
# cell_of
# ---------------------------------------------------------------------------


def test_cell_of_basic(grid_4x4):
    assert cell_of((0.0, 0.0), grid_4x4) == (0, 0)
    assert cell_of((3.0, 3.0), grid_4x4) == (1, 1)  # half-open boundary
    assert cell_of((2.999, 0.0), grid_4x4) == (0, 0)


@pytest.mark.parametrize(
    "region, side, gamma",
    [(Region.square(13.0), 2.0, 0.6), (Region.disk(10.0), 3.0, 1.0), (Region.square(12.0), 5.0, 1.0)],
)
def test_owner_is_nearest_covered_cell_lowest_index_first(region, side, gamma):
    grid = build_cell_grid(region, side, gamma)
    W, H = grid.mask.shape
    for c in range(W):
        for r in range(H):
            # sorted cover: the first minimum is the lowest index
            best = min(sorted(grid.cover), key=lambda k: max(abs(k[0] - c), abs(k[1] - r)))
            assert np.unravel_index(grid.owner[c, r], (W, H)) == best


def test_cell_of_uncovered_sliver_goes_to_nearest_covered_cell():
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)  # 2x2 core in a 3x3 box
    assert cell_of((11.0, 11.0), grid) == (1, 1)
    assert cell_of((12.0, 0.0), grid) == (1, 0)  # far edge of the box
    assert cell_of((11.0, 7.0), grid) == (1, 0)  # tie between (1, 0) and (1, 1)


def test_cell_of_outside_region(grid_4x4):
    with pytest.raises(GeometryError):
        cell_of((13.0, 1.0), grid_4x4)


# ---------------------------------------------------------------------------
# neighborhood
# ---------------------------------------------------------------------------


def test_neighborhood_sizes(grid_4x4):
    assert len(neighborhood((1, 1), grid_4x4)) == 9
    assert len(neighborhood((0, 0), grid_4x4)) == 4
    assert len(neighborhood((1, 0), grid_4x4)) == 6


def test_neighborhood_outside_cover(grid_4x4):
    with pytest.raises(GeometryError):
        neighborhood((9, 9), grid_4x4)


# ---------------------------------------------------------------------------
# cell distance and diameter
# ---------------------------------------------------------------------------


def test_cell_distance_basic(grid_15x15):
    assert cell_distance((2, 2), (2, 2), grid_15x15) == 0
    assert cell_distance((2, 2), (3, 3), grid_15x15) == 1
    assert cell_distance((0, 0), (7, 3), grid_15x15) == 7


def test_cell_distance_equals_chebyshev_on_full_grid(grid_15x15):
    for a in [(0, 0), (5, 9), (14, 14)]:
        dist = oracle_bfs(a, grid_15x15.cover)
        for b, d in dist.items():
            assert d == max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            assert cell_distance(a, b, grid_15x15) == d


def test_cell_diameter_full_grid(grid_4x4, grid_15x15):
    assert cell_diameter(grid_4x4) == 3
    assert cell_diameter(grid_15x15) == 14


def test_cell_diameter_single_cell():
    grid = CellGrid(
        Region.square(1.0), 1.0, 1.0, (0.0, 0.0), frozenset({(0, 0)})
    )
    assert cell_diameter(grid) == 0


def test_cell_diameter_disk_matches_allpairs_bfs(disk_grid):
    best = 0
    for a in sorted(disk_grid.cover):
        best = max(best, max(oracle_bfs(a, disk_grid.cover).values()))
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
_METRIC_CELLS = sorted(_METRIC_GRID.cover)


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
    cover = frozenset((i, j) for i in range(cols) for j in range(rows))
    grid = CellGrid(Region.square(max(cols, rows)), 1.0, 1.0, (0.0, 0.0), cover)
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
    c = data.draw(st.sampled_from(sorted(disk_grid.cover)))
    nb = neighborhood(c, disk_grid)
    assert c in nb
    assert 1 <= len(nb) <= 9
    assert nb <= disk_grid.cover


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
    chunks = list(neighbour_blocks(positions, queries, targets, side, origin, block))
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


def test_neighbour_blocks_empty_sets():
    positions = np.random.default_rng(0).random((10, 2))
    none, every = np.empty(0, dtype=np.int64), np.arange(10)
    assert list(neighbour_blocks(positions, none, every, 0.3)) == []
    assert list(neighbour_blocks(positions, every, none, 0.3)) == []
    assert list(neighbour_blocks(positions, none, none, 0.3, block=0)) == []
