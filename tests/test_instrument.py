"""Cell/supercell classification, regularity, distances, and audits."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwave.epidemic import BLACK, RED, WHITE, SimParams, run
from redwave.errors import ConfigurationError, GeometryError
from redwave.geometry import _ADJ8, Region, bucket_cells, build_cell_grid, neighborhood
from redwave.instrument import (
    C0,
    ETA1,
    ETA2,
    CellState,
    SupercellClassifier,
    classify_cells,
    classify_supercells,
    density_check,
    h_hat,
    is_regular,
    red_close_cells,
    spread_audit,
    state_constants,
    supercell_counts,
    supercell_regularity,
    supercell_speed_audit,
    transition_audit,
    wavefront_distances,
    wavefront_speed_audit,
)
from redwave.mobility import MobilityMode, RngStream, build_supercell_grid, walk_all
from tests.conftest import make_snapshot


# ---------------------------------------------------------------------------
# set/deque oracles, deliberately different from the dense implementation
# ---------------------------------------------------------------------------


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
    """(regular, violations, empty cells) by set lookups and a flood-fill of
    each white component."""
    violations = [("a", c) for c, s in cellstates.items() if s is CellState.GREY]
    whites = {c for c, s in cellstates.items() if s is CellState.WHITE}
    blacks = {c for c, s in cellstates.items() if s is CellState.BLACK}
    reds = {c for c, s in cellstates.items() if s is CellState.RED}
    for c in sorted(whites):
        if any((c[0] + dc, c[1] + dr) in blacks for dc, dr in _ADJ8):
            violations.append(("c", c))
    seen = set()
    for start in sorted(whites):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        touches_red = False
        while queue:
            cur = queue.popleft()
            for dc, dr in _ADJ8:
                nb = (cur[0] + dc, cur[1] + dr)
                touches_red |= nb in reds
                if nb in whites and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if not touches_red:
            violations.append(("b", start))
    empties = [c for c, s in cellstates.items() if s is CellState.EMPTY]
    return not violations, violations, empties


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
    assert states[(0, 0)] is CellState.WHITE
    assert states[(1, 0)] is CellState.RED
    assert states[(2, 0)] is CellState.GREY
    assert states[(3, 0)] is CellState.BLACK
    assert states[(2, 2)] is CellState.EMPTY


def test_classify_cells_total_over_cover(grid_4x4):
    snap = fill_cells(grid_4x4, {(0, 0): [WHITE]})
    states = classify_cells(snap, grid_4x4)
    assert set(states) == set(grid_4x4.cells)


def test_classify_cells_folds_uncovered_agents():
    grid = build_cell_grid(Region.square(12.0), 5.0, gamma=1.0)  # 2x2 core
    snap = make_snapshot([(11.0, 11.0)], [WHITE])  # in S but outside cover
    states = classify_cells(snap, grid)
    assert states[(1, 1)] is CellState.WHITE  # nearest covered cell
    assert [c for c, s in states.items() if s is not CellState.EMPTY] == [(1, 1)]


def test_cells_outside_the_index_box_are_not_covered(grid_4x4):
    # every box cell is covered, so a negative index wrapping round to the
    # far side of the box would find a covered cell
    W, H = grid_4x4.mask.shape
    states = classify_cells(make_snapshot([(1.0, 1.0)], [WHITE]), grid_4x4)
    for c in [(-1, 0), (0, -1), (-1, -1), (W, 0), (0, H)]:
        with pytest.raises(KeyError):
            states[c]
        assert c not in states
        with pytest.raises(GeometryError):
            neighborhood(c, grid_4x4)
    assert len(states) == W * H


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regular_all_white_with_adjacent_red(grid_4x4):
    contents = {c: [WHITE] for c in grid_4x4.cells}
    contents[(1, 1)] = [RED]
    report = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4), grid_4x4)
    assert report.regular
    assert report.violations == []


def test_grey_cell_violates_property_a(grid_4x4):
    contents = {c: [WHITE] for c in grid_4x4.cells}
    contents[(1, 1)] = [RED]
    contents[(0, 0)] = [WHITE, BLACK]
    report = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4), grid_4x4)
    assert not report.regular
    assert ("a", (0, 0)) in report.violations


def test_white_component_needs_adjacent_red(grid_4x4):
    # reds exist but the far white corner is separated by black cells
    contents = {c: [BLACK] for c in grid_4x4.cells}
    contents[(0, 0)] = [RED]
    contents[(3, 3)] = [WHITE]
    report = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4), grid_4x4)
    assert not report.regular
    assert ("b", (3, 3)) in report.violations


def test_white_adjacent_to_black_violates_property_c(grid_4x4):
    contents = {c: [WHITE] for c in grid_4x4.cells}
    contents[(1, 1)] = [RED]
    contents[(3, 3)] = [BLACK]
    report = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4), grid_4x4)
    assert not report.regular
    assert any(v[0] == "c" for v in report.violations)


def test_empty_cells_reported_not_fatal(grid_4x4):
    contents = {(0, 0): [RED], (0, 1): [WHITE]}
    report = is_regular(classify_cells(fill_cells(grid_4x4, contents), grid_4x4), grid_4x4)
    assert report.regular
    assert len(report.empty_cells) == 14


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
            SimParams(**{**p.__dict__, "seed": seed, "max_steps": 1}),
            on_step=lambda s: maps.append(classify_cells(s, grid)),
        )
        if is_regular(maps[0], grid).regular:
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
    cells = grid.cells
    drawn = data.draw(st.lists(st.sampled_from(palette), min_size=len(cells), max_size=len(cells)))
    cellstates = dict(zip(cells, drawn))

    report = is_regular(cellstates, grid)
    regular, violations, empties = oracle_is_regular(cellstates)
    assert report.regular == regular
    assert sorted(report.violations) == sorted(violations)
    assert sorted(report.empty_cells) == sorted(empties)

    reds = [c for c, s in cellstates.items() if s is CellState.RED]
    expected = oracle_distances(reds, set(cells))
    got = wavefront_distances(cellstates, grid)
    assert set(got) == set(cells)
    assert all(got[c] == expected.get(c, math.inf) for c in cells)


# ---------------------------------------------------------------------------
# red-close, rho-close
# ---------------------------------------------------------------------------


def test_red_close_cells(grid_4x4):
    all_white = {c: [WHITE] for c in grid_4x4.cells}
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
    contents = {c: [WHITE] for c in grid_4x4.cells}
    contents[(1, 1)] = [RED]
    states = classify_cells(fill_cells(grid_4x4, contents), grid_4x4)
    d = wavefront_distances(states, grid_4x4)
    assert d[(1, 1)] == 0
    assert d[(1, 2)] == 1
    assert d[(3, 3)] == 2


def test_wavefront_corner_red_is_chebyshev(grid_15x15):
    contents = {c: [WHITE] for c in grid_15x15.cells}
    contents[(0, 0)] = [RED]
    states = classify_cells(fill_cells(grid_15x15, contents), grid_15x15)
    d = wavefront_distances(states, grid_15x15)
    for (c, r), v in d.items():
        assert v == max(c, r)


def test_wavefront_no_reds_is_infinite(grid_4x4):
    states = classify_cells(
        fill_cells(grid_4x4, {c: [WHITE] for c in grid_4x4.cells}), grid_4x4
    )
    assert all(math.isinf(v) for v in wavefront_distances(states, grid_4x4).values())


def test_distances_to_set_on_disconnected_target(grid_4x4):
    d = grid_4x4.distances(grid_4x4.mask_of({(0, 0), (3, 3)}))
    assert d[(0, 0)] == 0
    assert d[(1, 1)] == 1
    assert d[(2, 2)] == 1  # served by (3, 3)
    assert d[(2, 1)] == 2  # two steps from either target


# ---------------------------------------------------------------------------
# density audit
# ---------------------------------------------------------------------------


def test_density_check_concentration(grid_4x4):
    snap = fill_cells(grid_4x4, {(0, 0): [WHITE] * 40})
    bad = density_check(snap, grid_4x4)
    assert ((0, 0), 40) in bad  # above ETA2 * 9 = 18
    assert all(count == 0 or cell == (0, 0) for cell, count in bad)


def test_density_check_no_agents(grid_4x4):
    snap = make_snapshot(np.empty((0, 2)), np.empty(0, dtype=np.int8))
    bad = density_check(snap, grid_4x4)
    assert len(bad) == len(grid_4x4.cells)


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
        pairs += len(grid.cells)
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


# ---------------------------------------------------------------------------
# supercell classification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def classifier():
    return SupercellClassifier(R=6.0, rho=24.0, n=9216)


def test_classify_supercell_white_black_red(classifier):
    hh = classifier.h_hat
    assert classifier.classify(100, 0, 0) == {0}
    assert classifier.classify(0, 3, 50) == {classifier.h_hat + 1}
    thresh = math.ceil(classifier.red_threshold)
    got = classifier.classify(10, thresh, 0)
    assert hh in got


def test_classify_supercell_unclassifiable(classifier):
    # a lone red among whites matches no state at these parameters
    assert classifier.classify(500, 1, 0) == set()


def test_classify_supercell_intermediate():
    cls = SupercellClassifier(R=6.0, rho=24.0, n=9216)
    a1, b1, c1 = state_constants(1)
    n_red = math.ceil(a1 * 36)
    n_white = math.ceil(c1 * 576)
    assert 1 in cls.classify(n_white, n_red, 0)


def test_supercell_regularity_reports():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    cls = SupercellClassifier(R=6.0, rho=24.0, n=9216)

    snap = make_snapshot(
        [(c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1) for (c, r) in sgrid.cells for i in range(20)],
        [WHITE] * (20 * len(sgrid.cells)),
    )
    report = supercell_regularity(snap, sgrid, cls)
    assert report.regular

    # black supercell (no whites) beside white-state neighbors: violation
    positions, states = [], []
    for (c, r) in sgrid.cells:
        for i in range(20):
            positions.append((c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1))
            states.append(BLACK if (c, r) == (0, 0) else WHITE)
    report = supercell_regularity(make_snapshot(positions, states), sgrid, cls)
    assert not report.regular
    assert report.black_neighbor_violations

    # a supercell matching no state: condition-1 violation
    positions, states = [], []
    for (c, r) in sgrid.cells:
        for i in range(20):
            positions.append((c * 24.0 + 1 + 0.01 * i, r * 24.0 + 1))
            states.append(RED if ((c, r) == (0, 0) and i == 0) else WHITE)
    report = supercell_regularity(make_snapshot(positions, states), sgrid, cls)
    assert not report.regular
    assert (0, 0) in report.unclassifiable


# ---------------------------------------------------------------------------
# transition audit
# ---------------------------------------------------------------------------


def _uniform_map(sgrid, states):
    return {c: set(states) for c in sgrid.cells}


def test_transition_audit_examples():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    hh = 2

    # (a): all-white stays all-white
    audit = transition_audit(
        [_uniform_map(sgrid, {0}), _uniform_map(sgrid, {0})], sgrid, hh
    )
    assert audit.tallies["a"].agreements == len(sgrid.cells)
    assert audit.tallies["a"].violations == 0

    # (e): all-black stays all-black
    audit = transition_audit(
        [_uniform_map(sgrid, {hh + 1}), _uniform_map(sgrid, {hh + 1})], sgrid, hh
    )
    assert audit.tallies["e"].agreements == len(sgrid.cells)

    # (b) violated: a state-1 neighborhood observed dropping to 0
    cur = _uniform_map(sgrid, {1})
    nxt = _uniform_map(sgrid, {0})
    audit = transition_audit([cur, nxt], sgrid, hh, require_regular=False)
    assert audit.tallies["b"].violations == len(sgrid.cells)
    assert audit.tallies["b"].agreements == 0


def test_transition_audit_skips_unclassifiable():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    cur = _uniform_map(sgrid, {0})
    cur[(0, 0)] = set()  # unclassifiable
    audit = transition_audit([cur, _uniform_map(sgrid, {0})], sgrid, 2, require_regular=False)
    # (0,0) and its neighbors are skipped
    assert audit.skipped_unclassifiable == 4
    assert audit.tallies["a"].observed == len(sgrid.cells) - 4


def test_transition_audit_regularity_gate():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    hh = 2
    cur = _uniform_map(sgrid, {0})
    cur[(0, 0)] = {hh + 1}  # black supercell beside white ones: irregular
    audit = transition_audit(
        [cur, _uniform_map(sgrid, {0})], sgrid, hh, require_regular=True
    )
    assert audit.skipped_irregular == len(sgrid.cells)
    assert all(t.observed == 0 for t in audit.tallies.values())


# ---------------------------------------------------------------------------
# speed audits
# ---------------------------------------------------------------------------


def test_wavefront_speed_audit_expanding_wave(grid_15x15):
    # red square growing by one ring per step: distances drop by exactly 1
    def ring_map(k):
        out = {}
        for c in grid_15x15.cells:
            if max(c) <= k:
                out[c] = CellState.RED
            else:
                out[c] = CellState.WHITE
        return out

    maps = [ring_map(k) for k in range(4)]
    audit = wavefront_speed_audit(maps, grid_15x15, min_decrease=1, target="red")
    assert audit.violations == 0
    assert audit.ok_pairs > 0


def test_wavefront_speed_audit_stalled_wave(grid_15x15):
    def fixed(_):
        return {
            c: (CellState.RED if c == (0, 0) else CellState.WHITE)
            for c in grid_15x15.cells
        }

    audit = wavefront_speed_audit([fixed(0), fixed(1)], grid_15x15, min_decrease=1, target="red")
    assert audit.ok_pairs == 0
    assert audit.violations == len(grid_15x15.cells) - 1
    assert audit.violation_rate() == 1.0


def test_supercell_speed_audit_advancing_front():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)

    def front(k):
        return {c: ({3} if c[0] <= k else {0}) for c in sgrid.cells}

    audit = supercell_speed_audit([front(0), front(1), front(2)], sgrid)
    assert audit.violations == 0
    assert audit.ok_pairs > 0


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
        run(p, on_step=lambda s: maps.append(classify_cells(s, grid)))
        audit = wavefront_speed_audit(maps, grid, min_decrease=dec, target="red_close")
        viol += audit.violations
        ok += audit.ok_pairs
    assert viol / (viol + ok) <= 0.01


# ---------------------------------------------------------------------------
# spread audit
# ---------------------------------------------------------------------------


def test_spread_audit_on_cellular_run():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    grid = build_cell_grid(region, 6.0, gamma=0.3)
    p = SimParams(
        region=region, n=9216, R=6.0, k=1,
        mobility=MobilityMode.cellular(24.0),
        transmission_scope="same_supercell",
        phase_order="move_then_transmit",
        seed=2,
    )
    snapshots = []
    run(p, on_step=lambda s: snapshots.append(s.copy()))
    audit = spread_audit(snapshots, sgrid, grid, R=6.0)
    assert audit.pairs == len(sgrid.cells) * (len(snapshots) - 1)
    # the red upper bound is always applicable and holds throughout
    assert audit.red_upper.hypothesis_met == audit.pairs
    assert audit.red_upper.holds == audit.pairs
    # the spread hypotheses need far denser populations than this scale has
    assert audit.white_spread.hypothesis_met == 0
    assert audit.red_spread.hypothesis_met == 0
    assert audit.red_saturation.hypothesis_met == 0


def test_supercell_counts_match_manual():
    region = Region.square(96.0)
    sgrid = build_supercell_grid(region, 24.0)
    gen = RngStream(6).generator()
    pos = gen.random((300, 2)) * 96.0
    states = gen.choice([WHITE, RED, BLACK], size=300).astype(np.int8)
    snap = make_snapshot(pos, states)
    counts = supercell_counts(snap, sgrid)
    cells = bucket_cells(pos, sgrid.side, sgrid.origin)
    for C, (w, r, b) in counts.items():
        sel = (cells[:, 0] == C[0]) & (cells[:, 1] == C[1])
        assert w == int(np.count_nonzero(states[sel] == WHITE))
        assert r == int(np.count_nonzero(states[sel] == RED))
        assert b == int(np.count_nonzero(states[sel] == BLACK))
    assert sum(w + r + b for w, r, b in counts.values()) == 300
