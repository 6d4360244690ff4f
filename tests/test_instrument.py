"""Cell/supercell classification, regularity, distances, and audits."""

import json
import math
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwave.cli import trace_run
from redwave.epidemic import BLACK, RED, WHITE, SimParams, run
from redwave.errors import ConfigurationError
from redwave.geometry import Region, build_cell_grid, touching
from redwave.instrument import (
    C0,
    CELL_CODE,
    ETA1,
    ETA2,
    CellAudit,
    CellState,
    SupercellAudit,
    SupercellClassifier,
    classify_cells,
    front_pairs,
    h_hat,
    is_regular,
    ladder_pairs,
    state_constants,
    supercell_front_pairs,
    supercell_regularity,
    top_state,
    wavefront_distances,
)
from redwave.mobility import MobilityMode, RngStream, build_supercell_grid, walk_all
from tests.conftest import bucket_cells, cell_list, covered_cells, make_snapshot


# ---------------------------------------------------------------------------
# set/deque oracles, deliberately different from the dense implementation
# ---------------------------------------------------------------------------

# 8-adjacency offsets (side or corner contact)
_ADJ8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def oracle_distances(sources, cover):
    """Multi-source dict/deque BFS over an explicit cover set."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        c, r = queue.popleft()
        for dc, dr in _ADJ8:
            nb = (c + dc, r + dr)
            if nb in cover and nb not in dist:
                dist[nb] = dist[(c, r)] + 1
                queue.append(nb)
    return dist


def oracle_is_regular(cellstates):
    """The cells breaking properties (a), (b) and (c), counted by set
    lookups and a flood-fill of each white component."""
    whites = {c for c, s in cellstates.items() if s is CellState.WHITE}
    blacks = {c for c, s in cellstates.items() if s is CellState.BLACK}
    reds = {c for c, s in cellstates.items() if s is CellState.RED}
    counts = {
        "grey_cells": sum(s is CellState.GREY for s in cellstates.values()),
        "white_unreached": 0,
        "white_by_black": sum(
            any((c[0] + dc, c[1] + dr) in blacks for dc, dr in _ADJ8) for c in whites
        ),
    }
    seen = set()
    for start in sorted(whites):
        if start in seen:
            continue
        seen.add(start)
        queue, component = deque([start]), 1
        touches_red = False
        while queue:
            cur = queue.popleft()
            for dc, dr in _ADJ8:
                nb = (cur[0] + dc, cur[1] + dr)
                touches_red |= nb in reds
                if nb in whites and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
                    component += 1
        if not touches_red:
            counts["white_unreached"] += component
    return counts


def state_grid(cellstates, grid):
    """The int8 state grid of a ``{cell: CellState}`` map over the cover."""
    codes = np.full(grid.mask.shape, -1, dtype=np.int8)
    for c, s in cellstates.items():
        codes[c] = CELL_CODE[s]
    return codes


def fill_cells(grid, contents):
    """Snapshot with the given agents per cell; untouched cells stay empty.

    contents: {cell: [states...]}; agents are placed at distinct spots
    inside their cell.
    """
    positions, states = [], []
    for (c, r), sts in contents.items():
        for i, s in enumerate(sts):
            positions.append(
                (
                    c * grid.side + 0.3 + 0.3 * (i % 8),
                    r * grid.side + 0.3 + 0.3 * (i // 8),
                )
            )
            states.append(s)
    return make_snapshot(positions, states)


# ---------------------------------------------------------------------------
# cell classification
# ---------------------------------------------------------------------------


def test_classify_cells_rules(grid_4x4):
    snap = fill_cells(
        grid_4x4,
        {
            (0, 0): [WHITE, WHITE, WHITE],
            (1, 0): [RED, BLACK, BLACK, BLACK],
            (2, 0): [WHITE, WHITE, BLACK],
            (3, 0): [BLACK],
        },
    )
    states = classify_cells(snap, grid_4x4)
    assert states[0, 0] == CELL_CODE[CellState.WHITE]
    assert states[1, 0] == CELL_CODE[CellState.RED]
    assert states[2, 0] == CELL_CODE[CellState.GREY]
    assert states[3, 0] == CELL_CODE[CellState.BLACK]
    assert states[2, 2] == CELL_CODE[CellState.EMPTY]


def test_classify_cells_total_over_cover(grid_4x4, disk_grid):
    # an int8 grid over the index box, -1 exactly off the cover
    for grid in (grid_4x4, disk_grid):
        states = classify_cells(fill_cells(grid, {(1, 1): [WHITE]}), grid)
        assert states.dtype == np.int8 and states.shape == grid.mask.shape
        assert np.array_equal(states == -1, ~grid.mask)
        assert set(states[grid.mask].tolist()) <= set(CELL_CODE.values())


def test_classify_cells_folds_uncovered_agents():
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)  # 2x2 core
    snap = make_snapshot([(11.0, 11.0)], [WHITE])  # in S but outside cover
    states = classify_cells(snap, grid)
    assert states[1, 1] == CELL_CODE[CellState.WHITE]  # nearest covered cell
    occupied = grid.mask & (states != CELL_CODE[CellState.EMPTY])
    assert cell_list(occupied) == [(1, 1)]


def test_cells_outside_the_index_box_are_not_covered(grid_4x4):
    # every box cell is covered, so a negative index wrapping round to the
    # far side of the box would find a covered cell
    W, H = grid_4x4.mask.shape
    states = classify_cells(make_snapshot([(1.0, 1.0)], [WHITE]), grid_4x4)
    assert states.shape == (W, H) and (states >= 0).all()
    for c in [(-1, 0), (0, -1), (-1, -1), (W, 0), (0, H)]:
        assert not grid_4x4.in_cover(*c)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regular_all_white_with_adjacent_red(grid_4x4):
    contents = {c: [WHITE] for c in covered_cells(grid_4x4)}
    contents[(1, 1)] = [RED]
    counts = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4))
    assert counts == {"grey_cells": 0, "white_unreached": 0, "white_by_black": 0}


def test_grey_cell_violates_property_a(grid_4x4):
    contents = {c: [WHITE] for c in covered_cells(grid_4x4)}
    contents[(1, 1)] = [RED]
    contents[(0, 0)] = [WHITE, BLACK]
    counts = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4))
    assert counts == {"grey_cells": 1, "white_unreached": 0, "white_by_black": 0}


def test_white_component_needs_adjacent_red(grid_4x4):
    # reds exist but the far white corner is separated by black cells
    contents = {c: [BLACK] for c in covered_cells(grid_4x4)}
    contents[(0, 0)] = [RED]
    contents[(3, 3)] = [WHITE]
    counts = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4))
    # (3, 3) is unreached, and its black neighbours break (c) too
    assert counts == {"grey_cells": 0, "white_unreached": 1, "white_by_black": 1}


def test_white_adjacent_to_black_violates_property_c(grid_4x4):
    contents = {c: [WHITE] for c in covered_cells(grid_4x4)}
    contents[(1, 1)] = [RED]
    contents[(3, 3)] = [BLACK]
    counts = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4))
    # (2, 2), (2, 3) and (3, 2) touch the black corner
    assert counts == {"grey_cells": 0, "white_unreached": 0, "white_by_black": 3}


def test_empty_cells_reported_not_fatal(grid_4x4):
    contents = {(0, 0): [RED], (0, 1): [WHITE]}
    codes = classify_cells(fill_cells(grid_4x4, contents), grid_4x4)
    assert np.count_nonzero(codes == CELL_CODE[CellState.EMPTY]) == 14
    assert not any(is_regular(codes).values())


def test_initial_configurations_mostly_regular():
    # one-source starting configurations at the small acceptance geometry
    region = Region.square(48.0)
    grid = build_cell_grid(region, 6.0 / (2 * math.sqrt(2)), gamma=0.3)
    p = SimParams(
        region=region, n=2304, R=6.0, k=1, mobility=MobilityMode.standard(2.0)
    )
    ok = 0
    trials = 1000
    for seed in range(trials):
        maps = []
        run(
            replace(p, seed=seed, max_steps=1),
            on_step=lambda s, last: maps.append(classify_cells(s, grid)),
        )
        if not any(is_regular(maps[0]).values()):
            ok += 1
    assert ok / trials >= 0.99


# a square whose last row and column are uncovered slivers, and a disk
_ORACLE_GRIDS = [
    build_cell_grid(Region.square(13.0), 2.0, gamma=0.6),
    build_cell_grid(Region.disk(7.0), 2.0, gamma=0.5),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dense_regularity_and_wavefront_match_oracles(data):
    grid = data.draw(st.sampled_from(_ORACLE_GRIDS))
    palette = sorted(data.draw(st.sets(st.sampled_from(CellState), min_size=1)), key=str)
    cells = covered_cells(grid)
    drawn = data.draw(st.lists(st.sampled_from(palette), min_size=len(cells), max_size=len(cells)))
    cellstates = dict(zip(cells, drawn))
    codes = state_grid(cellstates, grid)

    assert is_regular(codes) == oracle_is_regular(cellstates)

    reds = [c for c, s in cellstates.items() if s is CellState.RED]
    expected = oracle_distances(reds, set(cells))
    got = wavefront_distances(codes, grid)
    assert all(got[c] == expected.get(c, math.inf) for c in cells)
    assert np.isinf(got[~grid.mask]).all()


# ---------------------------------------------------------------------------
# red-close, rho-close
# ---------------------------------------------------------------------------


def red_close(codes):
    """White cells 8-adjacent to at least one red cell of a state grid."""
    return (codes == CELL_CODE[CellState.WHITE]) & touching(codes == CELL_CODE[CellState.RED])


def red_close_cells(cellstates, grid):
    return set(cell_list(red_close(cellstates)))


def test_red_close_cells(grid_4x4):
    all_white = {c: [WHITE] for c in covered_cells(grid_4x4)}
    no_red = classify_cells(fill_cells(grid_4x4, all_white), grid_4x4)
    assert red_close_cells(no_red, grid_4x4) == set()

    contents = dict(all_white)
    contents[(1, 1)] = [RED]
    states = classify_cells(fill_cells(grid_4x4, contents), grid_4x4)
    assert red_close_cells(states, grid_4x4) == {
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)
    }

    contents = dict(all_white)
    contents[(0, 0)] = [RED]
    states = classify_cells(fill_cells(grid_4x4, contents), grid_4x4)
    assert red_close_cells(states, grid_4x4) == {(0, 1), (1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# wavefront distances
# ---------------------------------------------------------------------------


def test_wavefront_distances_basics(grid_4x4):
    contents = {c: [WHITE] for c in covered_cells(grid_4x4)}
    contents[(1, 1)] = [RED]
    states = classify_cells(fill_cells(grid_4x4, contents), grid_4x4)
    d = wavefront_distances(states, grid_4x4)
    assert d[(1, 1)] == 0
    assert d[(1, 2)] == 1
    assert d[(3, 3)] == 2


def test_wavefront_corner_red_is_chebyshev(grid_15x15):
    contents = {c: [WHITE] for c in covered_cells(grid_15x15)}
    contents[(0, 0)] = [RED]
    states = classify_cells(fill_cells(grid_15x15, contents), grid_15x15)
    d = wavefront_distances(states, grid_15x15)
    for c, r in covered_cells(grid_15x15):
        assert d[c, r] == max(c, r)


def test_wavefront_no_reds_is_infinite(grid_4x4):
    states = classify_cells(
        fill_cells(grid_4x4, {c: [WHITE] for c in covered_cells(grid_4x4)}), grid_4x4
    )
    assert np.isinf(wavefront_distances(states, grid_4x4)).all()


def test_distances_to_set_on_disconnected_target(grid_4x4):
    targets = np.zeros(grid_4x4.mask.shape, dtype=bool)
    targets[0, 0] = targets[3, 3] = True
    d = grid_4x4.distances(targets)
    assert d[(0, 0)] == 0
    assert d[(1, 1)] == 1
    assert d[(2, 2)] == 1  # served by (3, 3)
    assert d[(2, 1)] == 2  # two steps from either target


# ---------------------------------------------------------------------------
# density audit
# ---------------------------------------------------------------------------


def density_check(snapshot, grid):
    """Cells whose agent count falls outside [ETA1*l^2, ETA2*l^2].

    A cell's count is the number of agents in c & S: agents in uncovered
    boundary slivers are left out rather than folded into a covered cell.
    """
    own = grid.covers(snapshot.positions)
    tot = grid.bin(snapshot.positions[own], snapshot.states[own]).sum(axis=0)
    bad = grid.mask & ((tot < ETA1 * grid.side**2) | (tot > ETA2 * grid.side**2))
    return [(c, int(tot[c])) for c in cell_list(bad)]


def test_density_check_concentration(grid_4x4):
    snap = fill_cells(grid_4x4, {(0, 0): [WHITE] * 40})
    bad = density_check(snap, grid_4x4)
    assert ((0, 0), 40) in bad  # above ETA2 * 9 = 18
    assert all(count == 0 or cell == (0, 0) for cell, count in bad)


def test_density_check_no_agents(grid_4x4):
    snap = make_snapshot(np.empty((0, 2)), np.empty(0, dtype=np.int8))
    bad = density_check(snap, grid_4x4)
    assert len(bad) == len(covered_cells(grid_4x4))


def test_density_audit_uniform_population():
    # 1e4 agents on a 100x100 square, l=8: violations are rare over 100
    # steps.  gamma=1 keeps only full cells, whose count bounds apply as-is.
    region = Region.square(100.0)
    grid = build_cell_grid(region, 8.0, gamma=1.0)
    gen = RngStream(12).generator()
    pos = gen.random((10_000, 2)) * 100.0
    violations = 0
    pairs = 0
    for _ in range(100):
        pos = walk_all(pos, 2.0, region, gen)
        snap = make_snapshot(pos, np.zeros(len(pos), dtype=np.int8))
        violations += len(density_check(snap, grid))
        pairs += len(covered_cells(grid))
    assert violations / pairs < 1e-3


# ---------------------------------------------------------------------------
# ladder constants
# ---------------------------------------------------------------------------


def test_h_hat_direct_evaluations():
    assert C0 == 1.0
    # R=10, rho=1000, ln n = 100: ceil(log_100(10^6)) = 3
    assert h_hat(10.0, 1000.0, round(math.exp(100))) == 3
    # rho = R, ln n = R^2: ceil(log_{R^2}(R^2)) = 1
    assert h_hat(6.0, 6.0, round(math.exp(36))) == 1
    # R=10, rho=10^4, ln n = 50: ceil(log_100(5 * 10^7)) = 4
    assert h_hat(10.0, 1.0e4, round(math.exp(50))) == 4


def test_h_hat_requires_r_above_one():
    with pytest.raises(ConfigurationError):
        h_hat(1.0, 10.0, 100)


def test_state_constants_substitutions():
    eta1, eta2 = 0.5, 2.0
    assert (ETA1, ETA2) == (eta1, eta2)
    assert state_constants(1) == pytest.approx((eta1 / 2, 15 * eta2, eta1 / 2))
    assert state_constants(2) == pytest.approx(
        (eta1**2 / 4320, 1020 * eta2**2, eta1 / 40)
    )
    assert state_constants(3) == pytest.approx(
        (eta1**3 / (2 * 2160**2 * 20), 15 * 68**2 * eta2**3, eta1 / 800)
    )
    with pytest.raises(ConfigurationError):
        state_constants(0)


def test_state_constants_monotonicity():
    a, b, c = zip(*(state_constants(h) for h in range(1, 6)))
    assert all(x >= y for x, y in zip(a, a[1:]))  # a non-increasing
    assert all(x <= y for x, y in zip(b, b[1:]))  # b non-decreasing
    assert all(x >= y for x, y in zip(c, c[1:]))  # c non-increasing
    assert all(x < y for x, y in zip(a, b))


def test_state_constants_past_the_float_range():
    # h_hat = 44 here, and 20.0 ** ((h-1)(h-2)/2) overflows from h = 24 on
    cls = SupercellClassifier(R=1.1, rho=24.0, n=9216)
    assert cls.h_hat == 44
    marks = cls.classify(100, 5, 0)
    assert marks.shape == (46,)
    assert marks[24:44].all()  # a_h = 0, b_h large and c_h tiny there
    assert not marks[[0, 44, 45]].any()
    # bit for bit the formulas as written, wherever they stay finite
    for h in range(1, 24):
        assert state_constants(h) == (
            ETA1**h / (2.0 * 2160.0 ** (h - 1) * 20.0 ** ((h - 1) * (h - 2) / 2)),
            15.0 * 68.0 ** (h - 1) * ETA2**h,
            ETA1 / (2.0 * 20.0 ** (h - 1)),
        )
    a, b, c = zip(*(state_constants(h) for h in range(1, 2001)))
    assert set(a[23:]) == {0.0}
    assert all(x <= y for x, y in zip(b, b[1:])) and b[-1] == math.inf
    assert all(x >= y for x, y in zip(c, c[1:])) and c[-1] == 0.0


# ---------------------------------------------------------------------------
# supercell classification
# ---------------------------------------------------------------------------


def marked(states):
    """The states one supercell's classification marks, as a set."""
    return set(np.flatnonzero(states).tolist())


def supercell_map(snap, sgrid, classifier):
    """The state marks of a snapshot's supercell counts, none off the cover."""
    return classifier.classify(*sgrid.bin(snap.positions, snap.states)) & sgrid.mask


@pytest.fixture(scope="module")
def classifier():
    return SupercellClassifier(R=6.0, rho=24.0, n=9216)


def test_classify_supercell_white_black_red(classifier):
    hh = classifier.h_hat
    assert marked(classifier.classify(100, 0, 0)) == {0}
    assert marked(classifier.classify(0, 3, 50)) == {classifier.h_hat + 1}
    thresh = math.ceil(classifier.red_threshold)
    got = marked(classifier.classify(10, thresh, 0))
    assert hh in got
    # arrays broadcast, one count triple per position
    got = classifier.classify(np.array([[100], [0]]), np.array([0, 3]), 50)
    assert got.shape == (hh + 2, 2, 2)
    assert marked(got[:, 0, 1]) == marked(classifier.classify(100, 3, 50))
    assert marked(got[:, 1, 0]) == {hh + 1}


def test_classify_supercell_unclassifiable(classifier):
    # a lone red among whites matches no state at these parameters
    assert marked(classifier.classify(500, 1, 0)) == set()


def test_classify_supercell_intermediate():
    cls = SupercellClassifier(R=6.0, rho=24.0, n=9216)
    a1, b1, c1 = state_constants(1)
    n_red = math.ceil(a1 * 36)
    n_white = math.ceil(c1 * 576)
    assert 1 in marked(cls.classify(n_white, n_red, 0))


def test_supercell_regularity_reports():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    cls = SupercellClassifier(R=6.0, rho=24.0, n=9216)

    cover = covered_cells(sgrid)
    snap = make_snapshot(
        [(c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1) for (c, r) in cover for i in range(20)],
        [WHITE] * (20 * len(cover)),
    )
    counts = supercell_regularity(supercell_map(snap, sgrid, cls), sgrid)
    assert counts == {"supercell_unclassifiable": 0, "black_by_open": 0}

    # black supercell (no whites) beside white-state neighbors: violation
    positions, states = [], []
    for (c, r) in covered_cells(sgrid):
        for i in range(20):
            positions.append((c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1))
            states.append(BLACK if (c, r) == (0, 0) else WHITE)
    snap = make_snapshot(positions, states)
    counts = supercell_regularity(supercell_map(snap, sgrid, cls), sgrid)
    assert counts == {"supercell_unclassifiable": 0, "black_by_open": 1}

    # a supercell matching no state: condition-1 violation
    positions, states = [], []
    for (c, r) in covered_cells(sgrid):
        for i in range(20):
            positions.append((c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1))
            states.append(RED if ((c, r) == (0, 0) and i == 0) else WHITE)
    snap = make_snapshot(positions, states)
    counts = supercell_regularity(supercell_map(snap, sgrid, cls), sgrid)
    assert counts == {"supercell_unclassifiable": 1, "black_by_open": 0}


# ---------------------------------------------------------------------------
# transition audit
# ---------------------------------------------------------------------------


def _uniform_map(sgrid, states, hh=2):
    """A state map marking ``states`` at every covered supercell."""
    out = np.zeros((hh + 2,) + sgrid.mask.shape, dtype=bool)
    out[list(states)] = sgrid.mask
    return out


def test_transition_audit_examples():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    hh = 2

    # (a): all-white stays all-white
    pairs = ladder_pairs(top_state(_uniform_map(sgrid, {0})), _uniform_map(sgrid, {0}), sgrid)
    assert pairs["rule_a"] == len(covered_cells(sgrid))
    assert pairs["rule_a_missed"] == 0

    # (e): all-black stays all-black
    black = _uniform_map(sgrid, {hh + 1})
    pairs = ladder_pairs(top_state(black), black, sgrid)
    assert pairs["rule_e"] == len(covered_cells(sgrid))

    # (b) violated: a state-1 neighborhood observed dropping to 0
    pairs = ladder_pairs(top_state(_uniform_map(sgrid, {1})), _uniform_map(sgrid, {0}), sgrid)
    assert pairs["rule_b"] == pairs["rule_b_missed"] == len(covered_cells(sgrid))


def test_transition_audit_skips_unclassifiable():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    cur = _uniform_map(sgrid, {0})
    cur[:, 0, 0] = False  # unclassifiable
    pairs = ladder_pairs(top_state(cur), _uniform_map(sgrid, {0}), sgrid)
    # (0,0) and its neighbors are skipped
    assert pairs["skipped"] == 4
    assert pairs["rule_a"] == len(covered_cells(sgrid)) - 4


# ---------------------------------------------------------------------------
# wave-front checks
# ---------------------------------------------------------------------------


def _front_run(codes, grid):
    """The summed ``front_pairs`` counts over consecutive state grids."""
    dists = [wavefront_distances(c, grid) for c in codes]
    tally = Counter()
    for prev_dist, c, dist in zip(dists, codes[1:], dists[1:]):
        tally.update(front_pairs(prev_dist, c, dist))
    return tally


def test_wavefront_speed_audit_expanding_wave(grid_15x15):
    # red square growing by one ring per step: distances drop by exactly 1
    def ring_map(k):
        cover = covered_cells(grid_15x15)
        return state_grid(
            {c: CellState.RED if max(c) <= k else CellState.WHITE for c in cover}, grid_15x15
        )

    tally = _front_run([ring_map(k) for k in range(4)], grid_15x15)
    assert tally["front_missed"] == 0
    assert tally["front"] > 0


def test_wavefront_speed_audit_stalled_wave(grid_15x15):
    fixed = state_grid(
        {c: CellState.RED if c == (0, 0) else CellState.WHITE for c in covered_cells(grid_15x15)},
        grid_15x15,
    )
    tally = _front_run([fixed, fixed], grid_15x15)
    assert tally["front"] == tally["front_missed"] == len(covered_cells(grid_15x15)) - 1


def test_supercell_speed_audit_advancing_front():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)

    def front(k):
        out = np.zeros((4,) + sgrid.mask.shape, dtype=bool)
        behind = np.arange(sgrid.mask.shape[0])[:, None] <= k
        out[3] = sgrid.mask & behind
        out[0] = sgrid.mask & ~behind
        return out

    tops = [top_state(front(k)) for k in range(3)]
    dists = [sgrid.distances(top >= 1) for top in tops]
    tally = Counter()
    for k in range(2):
        tally.update(supercell_front_pairs(dists[k], tops[k + 1], dists[k + 1]))
    assert tally["supercell_front_missed"] == 0
    assert tally["supercell_front"] > 0


def test_high_mobility_red_close_decrease():
    # distance to the red-close set drops by floor(rho / (sqrt(2) l)) per
    # step in nearly every (white cell, step) pair of an in-regime run
    region = Region.square(96.0)
    R, rho = 6.0, 6.0
    l0 = R / (4 * math.sqrt(2))
    grid = build_cell_grid(region, l0, gamma=0.2)
    dec = int(rho // (math.sqrt(2) * l0))
    viol = ok = 0
    for seed in range(3):
        p = SimParams(
            region=region, n=9216, R=R, k=1,
            mobility=MobilityMode.standard(rho), seed=seed,
        )
        maps = []
        run(p, on_step=lambda s, last: maps.append(classify_cells(s, grid)))
        dists = [grid.distances(red_close(c)) for c in maps]
        for cur_d, nxt_d, nxt in zip(dists, dists[1:], maps[1:]):
            sel = (nxt == CELL_CODE[CellState.WHITE]) & np.isfinite(cur_d)
            held = nxt_d[sel] <= np.maximum(cur_d[sel] - dec, 0)
            ok += int(np.count_nonzero(held))
            viol += int(np.count_nonzero(~held))
    assert viol / (viol + ok) <= 0.01


def test_supercell_counts_match_manual():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    gen = RngStream(6).generator()
    pos = gen.random((300, 2)) * 96.0
    states = gen.choice([WHITE, RED, BLACK], size=300).astype(np.int8)
    snap = make_snapshot(pos, states)
    counts = sgrid.bin(snap.positions, snap.states)
    cells = bucket_cells(pos, sgrid.side, sgrid.origin)
    for C in covered_cells(sgrid):
        w, r, b = counts[:, C[0], C[1]]
        sel = (cells[:, 0] == C[0]) & (cells[:, 1] == C[1])
        assert w == int(np.count_nonzero(states[sel] == WHITE))
        assert r == int(np.count_nonzero(states[sel] == RED))
        assert b == int(np.count_nonzero(states[sel] == BLACK))
    assert counts.sum() == 300


# ---------------------------------------------------------------------------
# supercell audits against dict/set oracles: the per-supercell loops the
# dense audits replaced, on synthetic dense populations
# ---------------------------------------------------------------------------


def oracle_classify(classifier, n_white, n_red, n_black):
    """The states of one count triple, each state's conditions in turn."""
    hh, R, rho = classifier.h_hat, classifier.R, classifier.rho
    states = set()
    if n_red == 0 and n_black == 0:
        states.add(0)
    for h in range(1, hh):
        a, b, c = state_constants(h)
        if a * R ** (2 * h) <= n_red <= b * R ** (2 * h) and n_white >= c * rho**2:
            states.add(h)
    if n_red >= classifier.red_threshold:
        states.add(hh)
    if n_white == 0:
        states.add(hh + 1)
    return states


def oracle_counts(snapshot, sgrid):
    counts = sgrid.bin(snapshot.positions, snapshot.states)
    return {c: tuple(counts[:, c[0], c[1]].tolist()) for c in covered_cells(sgrid)}


def oracle_neighborhood(c, sgrid):
    """N(c): c and its covered side/corner neighbours."""
    cover = set(covered_cells(sgrid))
    return {c} | {(c[0] + dc, c[1] + dr) for dc, dr in _ADJ8} & cover


def oracle_supercell_regularity(states, sgrid, hh):
    """The unclassifiable supercells, and the Black-State supercells with a
    neighbour in neither the Red nor the Black State, counted."""
    return {
        "supercell_unclassifiable": sum(not st for st in states.values()),
        "black_by_open": sum(
            any(not {hh, hh + 1} & states[nb] for nb in oracle_neighborhood(c, sgrid) - {c})
            for c, st in states.items()
            if hh + 1 in st
        ),
    }


def oracle_transition_audit(state_maps, sgrid, hh):
    tally = Counter()
    neighborhoods = {c: oracle_neighborhood(c, sgrid) for c in covered_cells(sgrid)}
    for cur, nxt in zip(state_maps[:-1], state_maps[1:]):
        for c, nbs in neighborhoods.items():
            if any(not cur[nb] for nb in nbs) or not nxt[c]:
                tally["skipped"] += 1
                continue
            m = max(max(cur[nb]) for nb in nbs)
            h_now = max(cur[c])
            if m == 0:
                key, expected = "a", 0
            elif 1 <= m <= hh - 1:
                key, expected = "b", m + 1
            elif m == hh and h_now < hh:
                key, expected = "c", hh
            elif m == hh and h_now >= hh:
                key, expected = "d", hh + 1
            else:
                key, expected = "e", hh + 1
            tally[f"rule_{key}"] += 1
            tally[f"rule_{key}_missed"] += expected not in nxt[c]
    return tally


def oracle_supercell_speed_audit(state_maps, sgrid):
    tally = Counter()
    cover = set(covered_cells(sgrid))
    dists = [
        oracle_distances([c for c, st in m.items() if st and max(st) >= 1], cover)
        for m in state_maps
    ]
    for cur_d, nxt_d, nxt in zip(dists[:-1], dists[1:], state_maps[1:]):
        for c, st in nxt.items():
            if st == {0} and cur_d.get(c, 0) != 0:
                tally["supercell_front"] += 1
                tally["supercell_front_missed"] += nxt_d.get(c, math.inf) > cur_d[c] - 1
    return tally


def oracle_spread_audit(snapshots, sgrid, grid, R):
    rho = sgrid.side
    ratio = int(round(rho / grid.side))
    classifier = SupercellClassifier(R=R, rho=rho, n=len(snapshots[0].states))
    hh = classifier.h_hat
    nbhd = {C: oracle_neighborhood(C, sgrid) for C in covered_cells(sgrid)}
    cells = np.argwhere(grid.mask)
    sup = cells // ratio
    keep = sgrid.in_cover(sup[:, 0], sup[:, 1])
    cells, sup = cells[keep], sup[keep]
    cells_per_super = np.zeros(sgrid.mask.shape, dtype=np.int64)
    np.add.at(cells_per_super, (sup[:, 0], sup[:, 1]), 1)

    tally = Counter()
    counts = [oracle_counts(s, sgrid) for s in snapshots]
    for t in range(len(snapshots) - 1):
        cur, nxt = snapshots[t], snapshots[t + 1]
        mid = grid.bin(nxt.positions, cur.states)[:, cells[:, 0], cells[:, 1]]
        fewest_whites = np.full(sgrid.mask.shape, np.inf)
        np.minimum.at(fewest_whites, (sup[:, 0], sup[:, 1]), mid[WHITE])
        red_hit = np.zeros(sgrid.mask.shape, dtype=np.int64)
        np.add.at(red_hit, (sup[:, 0], sup[:, 1]), mid[RED] > 0)
        saturated = red_hit == cells_per_super
        for C in covered_cells(sgrid):
            w_n = sum(counts[t][Cp][0] for Cp in nbhd[C])
            lam_w = w_n / rho**2
            if lam_w >= 720.0 / C0**2:
                tally["white_spread"] += 1
                tally["white_spread_missed"] += fewest_whites[C] < (lam_w / 36.0) * R**2
            lam_r = counts[t][C][1] / R**2
            if lam_r >= 1800.0 / C0**2:
                tally["red_spread"] += 1
                need = min((lam_r / 30.0) * R**2, rho**2 / (2.0 * R**2))
                tally["red_spread_missed"] += not all(red_hit[Cp] >= need for Cp in nbhd[C])
            if hh in oracle_classify(classifier, *counts[t][C]):
                tally["red_saturation"] += 1
                tally["red_saturation_missed"] += not all(saturated[Cp] for Cp in nbhd[C])
            m_red = max(counts[t][Cp][1] for Cp in nbhd[C])
            tally["red_upper"] += 1
            tally["red_upper_missed"] += counts[t + 1][C][1] > 68.0 * ETA2 * max(m_red, 0) * R**2
    return tally


# a supercell kind: its weight in the population, and its white/red/black mix
_KINDS = [
    (1.0, (1.0, 0.0, 0.0)),  # white
    (0.4, (0.9, 0.1, 0.0)),  # intermediate
    (4.0, (0.05, 0.95, 0.0)),  # red
    (1.0, (0.0, 0.3, 0.7)),  # spent: reds and blacks, no whites
    (0.5, (0.0, 0.0, 1.0)),  # black
    (0.05, (0.5, 0.0, 0.5)),  # grey: no state fits
    (0.0, (1.0, 0.0, 0.0)),  # empty
]
_R, _RHO, _SIDE = 1.5, 2.0, 1.0  # h_hat = 4 at n = 40000


def synthetic_run(region, seed, steps=8, n=40000):
    """Snapshots of n agents spread over the covered supercells by a front
    sweeping one supercell column a step: spent supercells behind the red
    column, intermediate ones on the front, white ones ahead, on odd steps
    half of them swapped for a random kind, each weight scaled by 0.5 to 2."""
    sgrid = build_supercell_grid(region, _RHO)
    gen = np.random.default_rng(seed)
    cells = np.array(covered_cells(sgrid))
    weights, mixes = (np.array(x) for x in zip(*_KINDS))
    snapshots = []
    for t in range(steps):
        ahead = cells[:, 0] - (t - 1)
        kind = np.select([ahead < -3, ahead < -1, ahead < 0, ahead == 0], [4, 3, 2, 1], 0)
        swap = gen.random(len(cells)) < 0.5 * (t % 2)
        kind[swap] = gen.integers(0, len(_KINDS), size=swap.sum())
        weight = weights[kind] * gen.uniform(0.5, 2.0, size=len(cells))
        home = gen.choice(len(cells), size=n, p=weight / weight.sum())
        states = (gen.random(n)[:, None] > np.cumsum(mixes[kind[home]], axis=1)).sum(axis=1)
        positions = sgrid.origin + (cells[home] + gen.random((n, 2))) * _RHO
        snapshots.append(make_snapshot(positions, np.minimum(states, BLACK), step=t))
    return snapshots, sgrid, build_cell_grid(region, _SIDE, gamma=0.5)


_SYNTHETIC = [(Region.square(12.0), seed) for seed in range(3)] + [
    (Region.disk(6.0), seed) for seed in range(3)
]


@pytest.fixture(scope="module")
def synthetic_audits():
    """Per case: the dense audits and the oracles' on the same snapshots."""
    out = []
    for region, seed in _SYNTHETIC:
        snapshots, sgrid, grid = synthetic_run(region, seed)
        cls = SupercellClassifier(R=_R, rho=_RHO, n=len(snapshots[0].states))
        maps = [supercell_map(s, sgrid, cls) for s in snapshots]
        sets = [
            {c: oracle_classify(cls, *wrb) for c, wrb in oracle_counts(s, sgrid).items()}
            for s in snapshots
        ]
        out.append((region, sgrid, cls.h_hat, snapshots, grid, maps, sets))
    return out


def test_supercell_audits_match_set_oracles(synthetic_audits):
    for region, sgrid, hh, snapshots, grid, maps, sets in synthetic_audits:
        assert hh == 4
        assert region.kind == "square" or not sgrid.mask.all()
        for states, expected in zip(maps, sets):
            assert states.shape == (hh + 2,) + sgrid.mask.shape
            assert not states[:, ~sgrid.mask].any()
            assert {c: marked(states[:, c[0], c[1]]) for c in covered_cells(sgrid)} == expected
            counts = supercell_regularity(states, sgrid)
            assert counts == oracle_supercell_regularity(expected, sgrid, hh)
        # the per-step audit, summed over the run, against the oracles
        tally = Counter()
        params = SimParams(region=region, n=40000, R=_R, mobility=MobilityMode.cellular(_RHO))
        audit = SupercellAudit(params, tally, grid)
        for t, snap in enumerate(snapshots):
            audit(snap, t >= 1)
        expected = Counter()
        for m in sets:
            counts = oracle_supercell_regularity(m, sgrid, hh)
            expected.update(counts, supercell_regular=not any(counts.values()))
        expected.update(oracle_transition_audit(sets, sgrid, hh))
        expected.update(oracle_supercell_speed_audit(sets, sgrid))
        expected.update(oracle_spread_audit(snapshots, sgrid, grid, _R))
        assert tally == expected


def _check_audit_against_hand_fed(order):
    """``trace_run``'s tally and rows' cell columns on a cellular run against
    audits fed by hand: each step's states at the positions the step's
    transmission acted on, those of the step before under
    transmit_then_move (at step 0, the snapshot's), and a pair wherever a
    move lies between two such configurations.  Returns the tally."""
    region = Region.square(48.0)
    params = SimParams(
        region=region, n=2304, R=3.0, mobility=MobilityMode.cellular(12.0),
        phase_order=order, seed=5,
    )
    grid = build_cell_grid(region, 3.0, gamma=1.0)  # nested in the supercells
    rows = []
    _, tally = trace_run(params, grid, "each", rows.append, supercells=True)
    steps = []
    run(params, on_step=lambda snap, last: steps.append((snap.positions.copy(), snap.states.copy())))

    expected = Counter(configs=len(steps))
    cells, ladder = CellAudit(grid, expected), SupercellAudit(params, expected, grid)
    names = [s.value for s in CellState]
    lag = order == "transmit_then_move"
    read_at = [max(t - lag, 0) for t in range(len(steps))]  # the step whose positions are read
    for t, (row, (_, states)) in enumerate(zip(rows, steps, strict=True)):
        config = make_snapshot(steps[read_at[t]][0], states)
        paired = t > 0 and read_at[t] != read_at[t - 1]
        ladder(config, paired)
        codes, regular, dist = cells(config, paired)
        front = dist[(codes == CELL_CODE[CellState.WHITE]) & np.isfinite(dist)]
        assert row["regular"] == regular
        assert row["max_wavefront"] == (float(front.max()) if front.size else None)
        assert row["mean_wavefront"] == (float(front.mean()) if front.size else None)
        assert json.loads(row["cells"]) == {
            f"{c},{r}": names[codes[c, r]] for c, r in covered_cells(grid)
        }
    assert tally == expected
    assert tally["front"] > 0 and tally["red_upper"] > 0 and tally["rule_a"] > 0
    return tally


def test_transmit_first_audit_reads_the_step_before_positions():
    # under transmit_then_move the hook audits each step's states at the
    # step before's positions, and steps 0 and 1 share the placement
    # positions, so the first pair is step 1 -> step 2
    tally = _check_audit_against_hand_fed("transmit_then_move")
    covered = int(np.count_nonzero(build_supercell_grid(Region.square(48.0), 12.0).mask))
    assert tally["red_upper"] == (tally["configs"] - 2) * covered


def test_move_first_audit_reads_the_snapshot_from_the_first_pair():
    # under move_then_transmit the hook audits the snapshot, and every step
    # from step 1 closes a pair
    tally = _check_audit_against_hand_fed("move_then_transmit")
    covered = int(np.count_nonzero(build_supercell_grid(Region.square(48.0), 12.0).mask))
    assert tally["red_upper"] == (tally["configs"] - 1) * covered


def test_synthetic_populations_reach_every_rule_and_lemma(synthetic_audits):
    # every rule judged both ways, every lemma's hypothesis met with its
    # conclusion both holding and failing, and some maps regular
    tally = Counter()
    regular = 0
    for _, sgrid, hh, snapshots, grid, maps, sets in synthetic_audits:
        tally.update(oracle_transition_audit(sets, sgrid, hh))
        tally.update(oracle_supercell_speed_audit(sets, sgrid))
        tally.update(oracle_spread_audit(snapshots, sgrid, grid, _R))
        regular += sum(not any(oracle_supercell_regularity(m, sgrid, hh).values()) for m in sets)
    keys = [f"rule_{k}" for k in "abcde"]
    keys += ["white_spread", "red_spread", "red_saturation", "red_upper"]
    assert all(tally[key] > tally[f"{key}_missed"] > 0 for key in keys), tally
    assert regular > 0 and tally["supercell_front"] > 0
