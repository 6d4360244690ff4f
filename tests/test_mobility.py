"""Random-walk steps, the cellular walk, and position initialization."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from redwave import mobility
from redwave.cli import _check_regime
from redwave.epidemic import SimParams
from redwave.errors import ConfigurationError, MobilityError
from redwave.geometry import Region
from redwave.mobility import (
    MobilityMode,
    RngStream,
    _uniform_in_region,
    build_supercell_grid,
    cellular_walk_all,
    init_positions,
    rejection_sample,
    walk_all,
)
from tests.conftest import bucket_cells


def test_rng_stream_determinism():
    a = RngStream(42).generator().random(8)
    b = RngStream(42).generator().random(8)
    assert np.array_equal(a, b)
    c = RngStream(42, stream=1).generator().random(8)
    assert not np.array_equal(a, c)


def test_mobility_mode_validation():
    with pytest.raises(ConfigurationError):
        MobilityMode("teleport", 1.0)
    with pytest.raises(ConfigurationError):
        MobilityMode.standard(-1.0)


# ---------------------------------------------------------------------------
# standard walk
# ---------------------------------------------------------------------------


def test_walk_step_rho_zero_is_identity():
    region = Region.square(10.0)
    x = np.array([[3.0, 4.0]])
    assert np.array_equal(walk_all(x, 0.0, region, RngStream(1).generator()), x)


def test_walk_step_stays_within_rho_and_region():
    region = Region.square(10.0)
    gen = RngStream(7).generator()
    pos = np.tile([[5.0, 5.0]], (2000, 1))
    out = walk_all(pos, 1.5, region, gen)
    disp = np.hypot(out[:, 0] - 5.0, out[:, 1] - 5.0)
    assert disp.max() <= 1.5 + 1e-12
    assert np.all(region.contains(out))


class _Draws:
    """A generator stub whose ``random`` hands out fixed draws."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws.copy()


def test_disk_proposal_keeps_the_closed_disk():
    # offsets u * 2 rho - rho, exact in floats: (0, -rho) lies on the circle
    # and is kept; (-rho, -2**-20) lies 2**-40 beyond it in squared radius
    centres = np.array([[5.0, 5.0], [5.0, 5.0]])
    out = mobility._in_disk(centres, 1.0, _Draws([[0.5, 0.0], [0.0, 0.5 - 2.0**-21]]))
    assert out[0].tolist() == [5.0, 4.0]
    assert np.isnan(out[1, 0]) and out[1, 1] == 5.0 - 2.0**-20


def test_walk_step_from_corner():
    region = Region.square(10.0)
    gen = RngStream(11).generator()
    pos = np.zeros((2000, 2))
    out = walk_all(pos, 2.0, region, gen)
    assert np.all(region.contains(out))
    assert np.hypot(out[:, 0], out[:, 1]).max() <= 2.0 + 1e-12


def test_walk_step_uniform_over_interior_disk():
    # 1e5 samples, 8 angular sectors, chi-square at significance 0.01
    region = Region.square(100.0)
    gen = RngStream(3).generator()
    pos = np.tile([[50.0, 50.0]], (100_000, 1))
    out = walk_all(pos, 5.0, region, gen)
    ang = np.arctan2(out[:, 1] - 50.0, out[:, 0] - 50.0)
    sector = np.floor((ang + math.pi) / (2 * math.pi) * 8).astype(int).clip(0, 7)
    counts = np.bincount(sector, minlength=8)
    _, p = stats.chisquare(counts)
    assert p > 0.01
    # radius CDF of the uniform disk is (r/rho)^2: check via KS on r^2
    r2 = ((out[:, 0] - 50.0) ** 2 + (out[:, 1] - 50.0) ** 2) / 25.0
    _, p = stats.kstest(r2, "uniform")
    assert p > 0.01


@pytest.mark.parametrize(
    "region, x",
    [
        (Region.square(20.0), (0.0, 0.0)),  # a corner: a quarter of the disk is in S
        (Region.square(20.0), (10.0, 0.0)),  # an edge point: half of it
        (Region.disk(10.0), (6.0, 7.5)),  # 0.4 from the rim
    ],
    ids=["corner", "edge", "disk_rim"],
)
def test_walk_step_at_the_boundary_is_uniform_on_ball_and_region(region, x):
    # the candidates come from the square around B(x, rho) and those outside
    # the disk are NaN: every output is finite, in S and in the closed ball,
    # and the 8 x 8 sub-cells of that square are hit in proportion to their
    # area in B & S, counted on a 1024 x 1024 lattice of cell midpoints
    # (chi-square at significance 0.01, sub-cells expecting under 5 hits merged)
    rho, n, sub, lattice = 3.0, 100_000, 8, 1024
    x = np.array(x)
    out = walk_all(np.tile(x, (n, 1)), rho, region, RngStream(5).generator())
    assert np.isfinite(out).all()
    assert np.all(region.contains(out))
    assert np.hypot(out[:, 0] - x[0], out[:, 1] - x[1]).max() <= rho + 1e-12

    def sub_cells(points):
        cells = np.floor((points - (x - rho)) / (2 * rho) * sub).astype(int).clip(0, sub - 1)
        return np.bincount(cells[:, 0] * sub + cells[:, 1], minlength=sub * sub)

    mid = (np.arange(lattice) + 0.5) / lattice * 2 * rho + (x - rho)[:, None]
    pts = np.stack(np.meshgrid(mid[0], mid[1], indexing="ij"), axis=-1).reshape(-1, 2)
    inside = region.contains(pts) & (np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1]) <= rho)
    expected = sub_cells(pts[inside]) / np.count_nonzero(inside) * n
    counts = sub_cells(out)
    assert not counts[expected == 0].any()
    small = expected < 5
    counts = np.r_[counts[~small], counts[small].sum()]
    expected = np.r_[expected[~small], expected[small].sum()]
    keep = expected > 0
    _, p = stats.chisquare(counts[keep], expected[keep] * counts.sum() / expected.sum())
    assert p > 0.01


# ---------------------------------------------------------------------------
# cellular walk
# ---------------------------------------------------------------------------


def test_supercell_grid_requires_multiple_of_cell_side():
    # the sec5 regime guard keeps the supercell grid a supergrid of the
    # analysis cell grid
    params = SimParams(Region.square(48.0), n=100, R=2.0, mobility=MobilityMode.cellular(12.0))
    _check_regime("sec5", params, 3.0)  # 12 = 4*3, fine
    with pytest.raises(ConfigurationError):
        _check_regime("sec5", params, 5.0)


def test_cellular_step_stays_in_neighborhood_block():
    region = Region.square(48.0)
    sgrid = build_supercell_grid(region, 12.0)
    gen = RngStream(5).generator()
    # interior supercell (1, 1) spans [12, 24)^2; its block is [0, 36)^2
    pos = np.tile([[18.0, 18.0]], (5000, 1))
    out = cellular_walk_all(pos, sgrid, region, gen)
    assert out.min() >= 0.0
    assert out.max() < 36.0 + 1e-12


def test_cellular_step_uniform_over_nine_supercells():
    region = Region.square(48.0)
    sgrid = build_supercell_grid(region, 12.0)
    gen = RngStream(9).generator()
    n = 90_000
    pos = np.tile([[18.0, 18.0]], (n, 1))
    out = cellular_walk_all(pos, sgrid, region, gen)
    cells = bucket_cells(out, sgrid.side, sgrid.origin)
    keys = [tuple(c) for c in cells]
    counts = np.array(
        [keys.count((i, j)) for i in range(3) for j in range(3)]
    )
    sigma = math.sqrt(n * (1 / 9) * (8 / 9))
    assert np.all(np.abs(counts - n / 9) <= 3 * sigma)


def test_cellular_step_corner_supercell_hits_covered_neighbors_only():
    region = Region.square(48.0)
    sgrid = build_supercell_grid(region, 12.0)
    gen = RngStream(13).generator()
    pos = np.tile([[3.0, 3.0]], (5000, 1))  # corner supercell (0, 0)
    out = cellular_walk_all(pos, sgrid, region, gen)
    hit = {tuple(c) for c in bucket_cells(out, sgrid.side, sgrid.origin)}
    assert hit <= {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_cellular_single_agent_step():
    region = Region.square(48.0)
    sgrid = build_supercell_grid(region, 12.0)
    out = cellular_walk_all(np.array([[18.0, 18.0]]), sgrid, region, RngStream(2).generator())
    assert out.shape == (1, 2) and region.contains(out[0])


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_positions_single_uniform_point():
    region = Region.square(6.0)
    pos = init_positions(1, region, MobilityMode.standard(0.0), RngStream(4).generator(), None)
    assert pos.shape == (1, 2)
    assert region.contains(pos[0])
    again = init_positions(1, region, MobilityMode.standard(0.0), RngStream(4).generator(), None)
    assert np.array_equal(pos, again)


def test_init_positions_needs_agents():
    mode = MobilityMode.standard(1.0)
    with pytest.raises(ConfigurationError):
        init_positions(0, Region.square(4.0), mode, RngStream(0).generator(), None)


def test_init_positions_cellular_burn_in_spreads_over_supercells():
    region = Region.square(48.0)
    n = 9000
    sgrid = build_supercell_grid(region, 12.0)
    pos = init_positions(n, region, MobilityMode.cellular(12.0), RngStream(21).generator(), sgrid)
    cells = bucket_cells(pos, sgrid.side, sgrid.origin)
    counts = np.bincount(cells[:, 0] * 4 + cells[:, 1], minlength=16)
    # all 16 supercells populated, none wildly off the n/16 mean
    assert counts.min() > 0
    assert counts.max() < 4 * n / 16


def test_trajectory_determinism():
    region = Region.square(20.0)
    mode = MobilityMode.standard(2.0)

    def trajectory():
        gen = RngStream(33).generator()
        pos = init_positions(50, region, mode, gen, None)
        for _ in range(10):
            pos = walk_all(pos, mode.rho, region, gen)
        return pos

    assert np.array_equal(trajectory(), trajectory())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rho=st.floats(min_value=0.1, max_value=5.0),
)
def test_walk_displacement_bound_property(seed, rho):
    region = Region.square(12.0)
    gen = RngStream(seed).generator()
    pos = gen.random((200, 2)) * 12.0
    out = walk_all(pos, rho, region, gen)
    disp = np.hypot(out[:, 0] - pos[:, 0], out[:, 1] - pos[:, 1])
    assert disp.max() <= rho + 1e-12
    assert np.all(region.contains(out))


# ---------------------------------------------------------------------------
# the rejection sampler and the stationary start
# ---------------------------------------------------------------------------


def test_rejection_sample_gives_up_after_max_rounds(monkeypatch):
    monkeypatch.setattr(mobility, "_MAX_REJECTIONS", 5)
    rounds = []

    def propose(rows, gen):
        rounds.append(len(rows))
        return gen.random((len(rows), 2))

    four = np.empty((4, 0))  # four rows that carry nothing
    with pytest.raises(MobilityError):
        rejection_sample(
            four, propose, lambda c: np.zeros(len(c), dtype=bool), np.random.default_rng(0)
        )
    assert rounds == [4] * 5
    # rows kept in an earlier round are not drawn again
    rounds.clear()
    out = rejection_sample(four, propose, lambda c: c[:, 0] < 0.5, np.random.default_rng(1))
    assert np.all(out[:, 0] < 0.5) and rounds[0] == 4 and rounds == sorted(rounds, reverse=True)


def test_uniform_placement_draws_are_pinned():
    # the isolated-agent experiments place agents uniformly; their draws
    # (sha256 of the position bytes) must not change
    for region, seed, digest in (
        (Region.square(256.0), 5, "234c1f35bf2ce03f1c923925af4077f4"
         "1b7191c45695090e42d2e3499422c068"),
        (Region.disk(30.0), 7, "4a60632ed0d5759bafe9c0f72d863f53"
         "9dc40c2aa20e12d0e20bf74a49c940e0"),
    ):
        pos = _uniform_in_region(1000, region, RngStream(seed).generator())
        assert hashlib.sha256(pos.tobytes()).hexdigest() == digest


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "region, rho, digest",
    [
        (
            Region.square(48.0), 4.0,
            "ce24b7abc7455a0561e9dcae4008a230"
            "c1a584d3fdd19024096e64492c2028aa",
        ),
        (
            Region.disk(24.0), 3.0,
            "11ca24074432f83340eacc6c37e9d8eb"
            "40eafb0a578266876624a0edce9e28cc",
        ),
    ],
)
def test_walk_draws_are_pinned(region, rho, digest):
    # three standard steps from a uniform start: a faster sampler must
    # keep every draw, bit for bit
    gen = RngStream(3).generator()
    pos = _uniform_in_region(2000, region, gen)
    for _ in range(3):
        pos = walk_all(pos, rho, region, gen)
    assert _sha256(pos) == digest


@pytest.mark.parametrize(
    "region, rho, digest",
    [
        (
            Region.square(48.0), 8.0,
            "e5176acb49507883d7479f3e65a17ada"
            "43bfda07e4afea6038e0f3c0781f5638",
        ),
        (
            Region.disk(24.0), 7.5,
            "c18762cafca89b94900a0872308a8000"
            "649b4fd94dc11f40d95ad1ebe64af394",
        ),
        # the last supercell column (48 <= x <= 50) is uncovered
        (
            Region.square(50.0), 8.0,
            "74afc92a074732ab0c0ddbfca3510266"
            "363060b714d9be5b2c2ee924177e255f",
        ),
    ],
)
def test_cellular_walk_draws_are_pinned(region, rho, digest):
    sgrid = build_supercell_grid(region, rho)
    gen = RngStream(4).generator()
    pos = _uniform_in_region(2000, region, gen)
    for _ in range(3):
        pos = cellular_walk_all(pos, sgrid, region, gen)
    assert _sha256(pos) == digest


@pytest.mark.parametrize(
    "region, rho",
    [(Region.square(48.0), 8.0), (Region.square(50.0), 8.0), (Region.disk(24.0), 7.5)],
)
def test_cellular_cover_test_matches_in_cover(region, rho):
    sgrid = build_supercell_grid(region, rho)
    xmin, ymin, xmax, ymax = region.bounds
    gen = np.random.default_rng(3)
    # beyond the box on every side, and its edges: x = L floors to cell W
    # when rho tiles L, and at L = 50 to the uncovered last column
    pts = gen.uniform(xmin - 3 * rho, xmax + 3 * rho, (2000, 2))
    edge = [(xmax, 10.0), (10.0, ymax), (xmax, ymax), (xmin, ymin), (xmin, 0.0), (xmax - 1e-9, 0.0)]
    pts = np.vstack([pts, edge])
    cells = bucket_cells(pts, sgrid.side, sgrid.origin)
    in_cover = sgrid.in_cover(cells[:, 0], cells[:, 1])
    assert np.array_equal(sgrid.covers(pts), in_cover)
    expected = region.contains(pts) & in_cover
    assert np.array_equal(mobility._covered(pts, sgrid, region), expected)
    if region.kind == "square":
        # a candidate exactly at x = L or y = L is rejected
        assert not expected[-6:-3].any()


@pytest.mark.parametrize(
    "region, rho",
    [(Region.square(192.0), 24.0), (Region.disk(24.0), 7.5), (Region.square(50.0), 8.0)],
)
def test_block_corners_match_bucket_cells(region, rho):
    # the corner arithmetic shifts rows by the scalar origin; the oracle is
    # bucket_cells with the (x, y) origin broadcast over the rows.  The disk's
    # origin is negative, and at L = 50 the last supercell column is uncovered
    sgrid = build_supercell_grid(region, rho)
    xmin, ymin, xmax, ymax = region.bounds
    # the box's edges and one ulp inside each, in every pairing, and the centre
    edge = [xmin, np.nextafter(xmin, xmax), (xmin + xmax) / 2, np.nextafter(xmax, xmin), xmax]
    pts = np.vstack(
        [np.stack(np.meshgrid(edge, edge), axis=-1).reshape(-1, 2),
         _uniform_in_region(2000, region, RngStream(6).generator())]
    )
    pts.flags.writeable = False  # the engine's positions are read-only
    origin = np.array([xmin, ymin])
    expected = origin + (bucket_cells(pts, sgrid.side, origin) - 1) * sgrid.side
    assert np.array_equal(mobility._block_corners(pts, sgrid), expected)


def test_stationary_start_draws_are_pinned():
    digests = iter(
        (
            "bb4f62bf21d10884e9ba4757737e64ab570605fb8e55ed5366a6f6ed89d86153",
            "17c9b554480066c32c32cc5edff2300ede2932c64a01edc5e48292c3b8d8f144",
            "831a7407d3624c0323fc5af43ba3b722d0f2fee9371087edd15d573109229f8c",
            "a5da63a3b659381937112a452e5a22d4c947c2e780717b8db9bd73541bdc3e12",
        )
    )
    for region, rho in ((Region.square(48.0), 8.0), (Region.disk(24.0), 7.5)):
        for mode in (MobilityMode.standard(4.0), MobilityMode.cellular(rho)):
            sgrid = build_supercell_grid(region, rho) if mode.kind == "cellular" else None
            pos = init_positions(2000, region, mode, RngStream(6).generator(), sgrid)
            assert _sha256(pos) == next(digests), (region, mode)


def _supercell_counts(pos, sgrid):
    cells = bucket_cells(pos, sgrid.side, sgrid.origin)
    assert np.all(sgrid.in_cover(cells[:, 0], cells[:, 1]))
    keys = cells[:, 0] * sgrid.mask.shape[1] + cells[:, 1]
    return np.bincount(keys, minlength=sgrid.mask.size)[sgrid.mask.ravel()]


def test_cellular_start_is_stationary_on_full_tiling():
    # the flood_cellular geometry: an 8 x 8 tiling, where the stationary
    # share of a supercell is proportional to its covered 3 x 3 neighbours
    # (4/484 for a corner); chi-square at significance 0.01
    region, rho, n = Region.square(192.0), 24.0, 36864
    sgrid = build_supercell_grid(region, rho)
    mask = np.pad(sgrid.mask, 1)
    neighbours = sum(mask[1 + i : 9 + i, 1 + j : 9 + j] for i in (-1, 0, 1) for j in (-1, 0, 1))
    weights = neighbours[sgrid.mask] / neighbours[sgrid.mask].sum()
    pos = init_positions(n, region, MobilityMode.cellular(rho), RngStream(1).generator(), sgrid)
    _, p = stats.chisquare(_supercell_counts(pos, sgrid), weights * n)
    assert p > 0.01


def test_cellular_start_on_a_disk_matches_a_long_walk():
    # disk supercells with slivers of S outside the cover: the exact start
    # never uses them and its occupancy matches 50 cellular steps from a
    # uniform start (chi-square contingency at significance 0.01)
    region, rho, n = Region.disk(30.0), 7.5, 20000
    sgrid = build_supercell_grid(region, rho)
    assert not sgrid.mask.all()
    exact = init_positions(n, region, MobilityMode.cellular(rho), RngStream(1).generator(), sgrid)
    gen = RngStream(2).generator()
    walked = _uniform_in_region(n, region, gen)
    for _ in range(50):
        walked = cellular_walk_all(walked, sgrid, region, gen)
    table = np.array([_supercell_counts(exact, sgrid), _supercell_counts(walked, sgrid)])
    assert stats.chi2_contingency(table).pvalue > 0.01


@pytest.mark.parametrize("region", [Region.square(48.0), Region.disk(24.0)])
def test_standard_start_matches_a_long_walk(region):
    # boundary-distance histogram over 8 bins (7 within rho of the boundary,
    # where the stationary density dips, and the rest): the exact start
    # agrees with 400 steps from a uniform start to 0.015 per bin, a uniform
    # start misses by about 0.05
    rho, n = 4.0, 20000

    def histogram(pos):
        if region.kind == "square":
            d = np.minimum(pos, region.size - pos).min(axis=1)
        else:
            d = region.size - np.hypot(pos[:, 0], pos[:, 1])
        return np.histogram(d, np.r_[np.linspace(0.0, rho, 8), np.inf])[0] / n

    exact = init_positions(n, region, MobilityMode.standard(rho), RngStream(1).generator(), None)
    gen = RngStream(2).generator()
    walked = _uniform_in_region(n, region, gen)
    for _ in range(400):
        walked = walk_all(walked, rho, region, gen)
    assert np.abs(histogram(exact) - histogram(walked)).max() < 0.015
