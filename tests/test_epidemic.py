"""The k-flooding state machine: phases, hand traces, and invariants."""

import math
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redwave import epidemic, geometry, mobility
from redwave.cli import parse_config
from redwave.epidemic import (
    BLACK,
    RED,
    WHITE,
    Engine,
    SimParams,
    _inform_euclidean,
    _inform_same_supercell,
    move,
    run,
    transmit,
)
from redwave.errors import ConfigurationError, GeometryError, MobilityError, RedwaveError
from redwave.experiments import isolated_indices
from redwave.geometry import Region, bucket_side
from redwave.mobility import MobilityMode, RngStream, build_supercell_grid
from tests.conftest import bucket_cells, isolated_indices_bruteforce, make_snapshot, red_white


def params(region_side=10.0, n=2, R=3.0, rho=0.0, k=1, **kw):
    return SimParams(
        region=Region.square(region_side),
        n=n,
        R=R,
        k=k,
        mobility=MobilityMode.standard(rho),
        **kw,
    )


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ConfigurationError):
        params(R=0.0)
    with pytest.raises(ConfigurationError):
        params(k=0)
    with pytest.raises(ConfigurationError):
        params(n=0)
    with pytest.raises(ConfigurationError):
        params(phase_order="simultaneous")
    with pytest.raises(ConfigurationError):
        params(transmission_scope="telepathy")
    with pytest.raises(ConfigurationError):
        # same-supercell transmission without cellular movement
        params(transmission_scope="same_supercell")


@pytest.mark.parametrize(
    "sources, message",
    [
        ([], "empty"),
        ([(20.0, 20.0)], "inside the region"),
        ([(6, 6), (1, 1), (2, 2)], "3 explicit sources but only 2 agents"),
    ],
)
def test_explicit_sources_are_checked_with_the_params(sources, message):
    with pytest.raises(RedwaveError, match=message):
        params(sources=sources)
    with pytest.raises(ConfigurationError, match="unknown source spec"):
        params(sources="nearest")


# ---------------------------------------------------------------------------
# transmission phase
# ---------------------------------------------------------------------------


def test_transmission_no_reds_is_inert():
    snap = make_snapshot([(1.0, 1.0), (2.0, 2.0)], [WHITE, BLACK])
    assert transmit(snap, params(), 1) == 0
    assert list(snap.states) == [WHITE, BLACK]


def test_transmission_closed_ball_boundary():
    # white exactly at distance R: the closed-ball decision informs it
    R = 3.0
    snap = make_snapshot([(0.0, 0.0), (R, 0.0)], [RED, WHITE])
    transmit(snap, params(R=R), 1)
    assert snap.states[1] == RED
    assert np.array_equal(snap.chain_origin[1], snap.chain_origin[0])


def test_transmission_beyond_radius():
    snap = make_snapshot([(0.0, 0.0), (3.1, 0.0)], [RED, WHITE])
    transmit(snap, params(R=3.0), 1)
    assert snap.states[1] == WHITE


def test_transmission_same_supercell_scope():
    region = Region.square(48.0)
    p = SimParams(
        region=region,
        n=2,
        R=6.0,
        mobility=MobilityMode.cellular(12.0),
        transmission_scope="same_supercell",
    )
    # distance 0.1 R, but on opposite sides of the x=12 supercell border
    snap = make_snapshot([(11.8, 6.0), (12.4, 6.0)], [RED, WHITE])
    transmit(snap, p, 1)
    assert snap.states[1] == WHITE
    # same supercell, any in-cell distance: informed
    snap = make_snapshot([(12.5, 6.0), (23.0, 11.0)], [RED, WHITE])
    transmit(snap, p, 1)
    assert snap.states[1] == RED


@pytest.mark.parametrize(
    "scope, mobility, t, speed",
    [
        ("euclidean", MobilityMode.standard(2.0), 3, 6.0 + 2.0),  # R + rho
        ("same_supercell", MobilityMode.cellular(8.0), 1, 3 * math.sqrt(2) * 8.0),
    ],
    ids=["euclidean", "same_supercell"],
)
def test_transmit_counts_chain_speed_violations(scope, mobility, t, speed):
    region = Region.square(48.0)
    p = SimParams(region=region, n=2, R=6.0, mobility=mobility, transmission_scope=scope)
    # the white at x = 44 is 3 from the red, in reach and in its side-8
    # supercell; the red's chain started t * speed from the white, or just
    # past that and the check's 1e-9 relative slack
    for stretch, violations in ((1.0, 0), (1 + 2e-9, 1)):
        snap = make_snapshot([(41.0, 1.0), (44.0, 1.0)], [RED, WHITE])
        snap.chain_origin[0] = (44.0 - t * speed * stretch, 1.0)
        assert transmit(snap, p, t) == violations
        assert snap.states[1] == RED
        assert np.array_equal(snap.chain_origin[1], snap.chain_origin[0])


def test_newly_informed_do_not_relay_within_a_step():
    # chain A(red) - B - C with |AB| <= R, |BC| <= R, |AC| > R:
    # B is informed during the step, C must wait for the next one
    snap = make_snapshot([(0.0, 0.0), (2.5, 0.0), (5.0, 0.0)], [RED, WHITE, WHITE])
    transmit(snap, params(n=3, R=3.0), 1)
    assert snap.states[1] == RED
    assert snap.states[2] == WHITE


def test_red_countdown_expiry():
    snap = make_snapshot([(0.0, 0.0)], [RED])
    transmit(snap, params(n=1, k=1), 1)
    assert snap.states[0] == BLACK
    # with k=2, the red survives its first active step
    snap2 = make_snapshot([(0.0, 0.0)], [RED])
    snap2.countdown[0] = 2
    transmit(snap2, params(n=1, k=2), 1)
    assert snap2.states[0] == RED
    assert snap2.countdown[0] == 1


def test_params_form_their_supercell_grid_once():
    assert params().sgrid is None
    p = SimParams(region=Region.square(48.0), n=2, R=6.0, mobility=MobilityMode.cellular(12.0))
    sgrid = p.sgrid
    assert p.sgrid is sgrid and sgrid.side == 12.0 and sgrid.mask.shape == (4, 4)
    # params made by replace form their own grid, equal to the first
    again = replace(p, seed=1).sgrid
    assert again is not sgrid and np.array_equal(again.mask, sgrid.mask)


# ---------------------------------------------------------------------------
# move phase
# ---------------------------------------------------------------------------


def test_move_phase_rho_zero_keeps_positions():
    snap = make_snapshot([(1.0, 1.0), (2.0, 2.0)], [RED, WHITE])
    before = snap.positions.copy()
    snap.positions = move(snap.positions, params(rho=0.0), RngStream(0).generator())
    assert np.array_equal(snap.positions, before)


def test_move_phase_keeps_states_and_bounds_displacement():
    snap = make_snapshot([(5.0, 5.0)] * 100, [BLACK] * 100)
    snap.positions = move(snap.positions, params(n=100, rho=1.0), RngStream(1).generator())
    assert np.all(snap.states == BLACK)
    disp = np.hypot(snap.positions[:, 0] - 5.0, snap.positions[:, 1] - 5.0)
    assert disp.max() <= 1.0 + 1e-12


def _sequential_step(eng):
    """One step of ``eng`` with the two phases run one after the other on
    this thread, in the engine's phase order."""
    s, t = eng.snapshot, eng.snapshot.step + 1
    if eng.params.phase_order == "move_then_transmit":
        s.positions = move(s.positions, eng.params, eng.gen)
    eng.chain_violations += transmit(s, eng.params, t)
    if eng.params.phase_order == "transmit_then_move":
        s.positions = move(s.positions, eng.params, eng.gen)
    s.step = t


ORDERS = ["transmit_then_move", "move_then_transmit"]


def _force_cpus(monkeypatch, cpus):
    """Make the CPU affinity the engine reads hold ``cpus`` CPUs."""
    affinity = set(range(cpus))
    monkeypatch.setattr(epidemic.os, "sched_getaffinity", lambda pid: affinity, raising=False)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    # the pipeline tests check the threaded move, which the engine runs
    # inline on a one-CPU host (see test_one_cpu_moves_inline_as_the_threads_do)
    _force_cpus(monkeypatch, 2)


def _patch_walk(monkeypatch, walk="walk_all", delay=0.0, fail_after=None):
    """Patch the engine's walk to record the thread of each call, after
    sleeping ``delay`` s; with ``fail_after``, every call after that many
    raises.  Returns the recorded threads."""
    threads = []
    real = getattr(epidemic, walk)

    def patched(*args):
        threads.append(threading.current_thread())
        time.sleep(delay)
        if fail_after is not None and len(threads) > fail_after:
            raise MobilityError("a move no step uses")
        return real(*args)

    monkeypatch.setattr(epidemic, walk, patched)
    return threads


@pytest.mark.parametrize("phase_order", ORDERS)
@pytest.mark.parametrize(
    "region, mobility_mode, walk",
    [
        # rho near the side: many rows are rejected, so the walk runs several rounds
        (Region.square(12.0), MobilityMode.standard(9.0), "walk_all"),
        (Region.disk(8.0), MobilityMode.standard(2.0), "walk_all"),
        (Region.square(12.0), MobilityMode.cellular(3.0), "cellular_walk_all"),
    ],
)
def test_move_beside_transmit_matches_the_sequential_step(
    monkeypatch, region, mobility_mode, walk, phase_order
):
    p = SimParams(
        region=region, n=300, R=2.0, mobility=mobility_mode, seed=3, phase_order=phase_order
    )
    sequential, expected = Engine(p), []
    names = ("positions", "states", "countdown", "chain_origin")

    def sequential_step():
        _sequential_step(sequential)
        s = sequential.snapshot
        arrays = {name: getattr(s, name).copy() for name in names}
        expected.append((s.step, arrays, sequential.chain_violations))

    # step until the run completes, and once more on its empty front
    while sequential.snapshot.counts() != (0, 0, p.n):
        assert len(expected) < 50, "the run did not complete"
        sequential_step()
    sequential_step()

    threads = _patch_walk(monkeypatch, walk)
    pipelined = Engine(p)
    for step, arrays, violations in expected:
        pipelined.step()
        for name in names:
            assert np.array_equal(getattr(pipelined.snapshot, name), arrays[name]), name
        assert pipelined.snapshot.step == step
        assert pipelined.chain_violations == violations
    pipelined._join_ahead()
    # every engine move ran off this thread, and none was started ahead of a
    # step after the empty one, which no run would take
    assert len(threads) == len(expected)
    assert threading.main_thread() not in threads


@pytest.mark.parametrize("phase_order", ORDERS)
@pytest.mark.parametrize("k, max_steps", [(1, 10_000), (2, 10_000), (1, 3)])
def test_a_run_moves_once_a_step(monkeypatch, phase_order, k, max_steps):
    # as often as the sequential engine: no move of a completed or exhausted
    # run is started ahead and dropped
    p = params(
        n=80, region_side=16.0, R=4.0, rho=2.0, k=k, seed=17,
        phase_order=phase_order, max_steps=max_steps,
    )
    calls = _patch_walk(monkeypatch)
    rec = run(p)
    assert rec.failed_at is None and rec.exhausted == (max_steps == 3)
    assert len(calls) == rec.steps_run()


@pytest.mark.parametrize("phase_order", ORDERS)
def test_a_dropped_move_never_raises(monkeypatch, phase_order):
    # a run that dies out with whites left starts one move that no step
    # uses; its error is dropped with it
    p = SimParams(
        region=Region.square(16.0), n=40, R=1.5, mobility=MobilityMode.standard(1.0),
        seed=0, phase_order=phase_order,
    )
    expected = run(p)
    assert expected.failed_at is not None and expected.series.white[-1] > 0
    before = threading.active_count()
    calls = _patch_walk(monkeypatch, fail_after=expected.failed_at)
    rec = run(p)
    assert len(calls) == expected.failed_at + 1
    assert threading.active_count() == before
    assert rec.failed_at == expected.failed_at
    assert rec.series == expected.series
    assert rec.chain_violations == expected.chain_violations
    for name in ("positions", "states", "countdown", "chain_origin"):
        assert np.array_equal(getattr(rec.final, name), getattr(expected.final, name)), name


@pytest.mark.parametrize("phase_order", ORDERS)
def test_a_raising_hook_leaves_run_with_its_type_and_no_thread(monkeypatch, phase_order):
    def hook(snap, last):
        if snap.step == 2:
            raise OSError("trace file gone")

    # a move is still running when the hook raises, unless joined
    movers = _patch_walk(monkeypatch, delay=0.05)
    before = threading.active_count()
    with pytest.raises(OSError, match="trace file gone") as err:
        run(params(n=80, region_side=16.0, R=4.0, rho=2.0, seed=17, phase_order=phase_order), on_step=hook)
    assert type(err.value) is OSError
    assert len(movers) == 3  # the third move was started ahead of step 3
    assert not any(t.is_alive() for t in movers)
    assert threading.active_count() == before


@pytest.mark.parametrize("phase_order", ORDERS)
def test_a_failing_step_joins_the_move_started_ahead(monkeypatch, phase_order):
    # Engine.step itself joins the pending move: under move_then_transmit
    # the next step's move is already running when the transmission fails
    def failing_transmit(*args):
        raise GeometryError("no transmission")

    movers = _patch_walk(monkeypatch, delay=0.05)
    monkeypatch.setattr(epidemic, "transmit", failing_transmit)
    eng = Engine(params(n=50, rho=1.0, seed=2, phase_order=phase_order))
    with pytest.raises(GeometryError, match="no transmission"):
        eng.step()
    assert len(movers) == (2 if phase_order == "move_then_transmit" else 1)
    assert not any(t.is_alive() for t in movers)


def _spy_thread_starts(monkeypatch):
    """Record every thread started while the patch holds."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(epidemic.threading, "Thread", Spy)
    return started


@pytest.mark.parametrize("phase_order", ORDERS)
@pytest.mark.parametrize(
    "mobility_mode, walk",
    [(MobilityMode.standard(2.0), "walk_all"), (MobilityMode.cellular(3.0), "cellular_walk_all")],
)
def test_one_cpu_moves_inline_as_the_threads_do(monkeypatch, mobility_mode, walk, phase_order):
    p = SimParams(
        region=Region.square(12.0), n=300, R=2.0, mobility=mobility_mode, seed=3,
        phase_order=phase_order,
    )
    started = _spy_thread_starts(monkeypatch)
    threaded = run(p)
    assert len(started) == threaded.steps_run()
    started.clear()
    _force_cpus(monkeypatch, 1)
    movers = _patch_walk(monkeypatch, walk)
    inline = run(p)
    # no thread starts; every move runs on this thread, once a step
    assert started == [] and set(movers) == {threading.current_thread()}
    assert len(movers) == inline.steps_run()
    assert inline.completion_time == threaded.completion_time is not None
    assert inline.series == threaded.series
    assert inline.chain_violations == threaded.chain_violations
    for name in ("positions", "states", "countdown", "chain_origin"):
        assert np.array_equal(getattr(inline.final, name), getattr(threaded.final, name)), name


@pytest.mark.parametrize("phase_order", ORDERS)
def test_one_cpu_drops_a_failed_move_no_step_uses(monkeypatch, phase_order):
    p = SimParams(
        region=Region.square(16.0), n=40, R=1.5, mobility=MobilityMode.standard(1.0),
        seed=0, phase_order=phase_order,
    )
    expected = run(p)
    _force_cpus(monkeypatch, 1)
    started = _spy_thread_starts(monkeypatch)
    with monkeypatch.context() as m:
        _patch_walk(m, fail_after=0)
        with pytest.raises(MobilityError):  # raised by the step that uses the move
            Engine(p).step()
    calls = _patch_walk(monkeypatch, fail_after=expected.failed_at)
    rec = run(p)
    assert started == [] and len(calls) == expected.failed_at + 1
    assert rec.failed_at == expected.failed_at and rec.series == expected.series
    # an interrupt is no error of the move: it leaves the run at once, also
    # from the move that no step uses
    moves = []

    def interrupted(*args):
        moves.append(args)
        if len(moves) > expected.failed_at:
            raise KeyboardInterrupt
        return mobility.walk_all(*args)

    monkeypatch.setattr(epidemic, "walk_all", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(p)
    assert len(moves) == expected.failed_at + 1


def test_cpu_count_stands_in_for_a_missing_affinity(monkeypatch):
    monkeypatch.delattr(epidemic.os, "sched_getaffinity", raising=False)
    for count, inline in ((1, True), (None, True), (2, False)):
        monkeypatch.setattr(epidemic.os, "cpu_count", lambda: count)
        assert Engine(params())._inline == inline


@pytest.mark.parametrize("phase_order", ORDERS)
def test_published_positions_are_read_only(phase_order):
    p = params(n=20, rho=1.0, seed=1, phase_order=phase_order)
    given = np.full((20, 2), 5.0)
    eng = Engine(p, initial_positions=given)
    given[0] = 1.0  # the engine keeps a copy; the caller's array stays writable
    published = [Engine(p).snapshot.positions, eng.snapshot.positions, eng.step().positions]
    eng._join_ahead()
    for positions in published:
        with pytest.raises(ValueError, match="read-only"):
            positions[0, 0] = 0.0

    def write(snap, last):  # a hook writing into positions a pending move reads
        snap.positions[:, 0] += 0.0

    before = threading.active_count()
    with pytest.raises(ValueError, match="read-only"):
        run(p, on_step=write)
    assert threading.active_count() == before


def test_a_failing_move_leaves_step_and_run_with_its_type(monkeypatch):
    p = params(n=200, region_side=12.0, R=2.0, rho=9.0, seed=4)
    before = threading.active_count()
    eng = Engine(p)
    with monkeypatch.context() as m, pytest.raises(MobilityError) as err:
        m.setattr(mobility, "_MAX_REJECTIONS", 1)  # a rejected row is not redrawn
        eng.step()
    assert type(err.value) is MobilityError
    assert threading.active_count() == before

    def fail(*args):
        raise MobilityError("no move")

    monkeypatch.setattr(epidemic, "walk_all", fail)
    with pytest.raises(MobilityError, match="no move") as err:
        run(p)
    assert type(err.value) is MobilityError
    assert threading.active_count() == before


def test_a_failing_transmission_joins_the_move_first(monkeypatch):
    started, walked = threading.Event(), []
    walk = epidemic.walk_all

    def slow_walk(*args):
        started.set()
        time.sleep(0.05)
        walked.append(walk(*args))
        return walked[-1]

    def failing_transmit(*args):
        assert started.wait(5)  # the move is running
        raise GeometryError("no transmission")

    monkeypatch.setattr(epidemic, "walk_all", slow_walk)
    monkeypatch.setattr(epidemic, "transmit", failing_transmit)
    before = threading.active_count()
    with pytest.raises(GeometryError, match="no transmission"):
        run(params(n=50, rho=1.0, seed=2))
    # the move finished before the error left the step
    assert len(walked) == 1
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# run-level hand traces
# ---------------------------------------------------------------------------


def test_single_agent_completes_at_step_one():
    rec = run(params(n=1, sources=[(5.0, 5.0)]))
    assert rec.completion_time == 1
    assert rec.failed_at is None


def test_two_agents_within_range_complete_at_step_two():
    # stationary pair, d < R, k=1: B informed at step 1 (red at its end),
    # B transmits (to nobody new) in step 2, everyone black at its end
    p = params(n=2, R=3.0, rho=0.0, sources=[(1.0, 1.0)])
    rec = None
    for seed in range(50):
        cand = run(replace(p, seed=seed))
        d = math.dist(cand.final.positions[0], cand.final.positions[1])
        if d < 3.0:
            rec = cand
            break
    assert rec is not None
    assert rec.completion_time == 2


def test_two_agents_out_of_range_fail_at_step_one():
    for seed in range(50):
        rec = run(params(n=2, R=0.5, rho=0.0, seed=seed))
        d = math.dist(rec.final.positions[0], rec.final.positions[1])
        if d > 0.5:
            assert rec.failed_at == 1
            assert rec.completion_time is None
            return
    pytest.fail("no out-of-range placement found")


def test_all_sources_complete_at_step_one():
    p = params(n=5, rho=1.0)
    probe = run(p)  # learn the realized start positions
    pts = [tuple(map(float, xy)) for xy in probe.final.chain_origin[:5]]
    rec = run(replace(p, sources=pts))
    assert rec.completion_time == 1


def _sources_by_stable_sort(positions, points):
    """Each point's source: the first agent not yet chosen in the stable
    argsort of its distances."""
    chosen = []
    for x, y in points:
        order = np.argsort(np.hypot(positions[:, 0] - x, positions[:, 1] - y), kind="stable")
        chosen.append(next(int(i) for i in order if int(i) not in chosen))
    return tuple(chosen)


def test_sources_are_the_nearest_agents_lowest_index_first():
    # tied distances (a cross around (5, 5)), a duplicate position, and the
    # same point asked for again
    pos = np.array([(5, 5), (3, 5), (7, 5), (5, 5), (5, 3), (5, 7)], dtype=float)
    points = [(5, 5), (5, 5), (5, 5), (5, 4), (5, 5)]
    eng = Engine(params(n=len(pos), sources=points), initial_positions=pos)
    assert eng.source_indices == (0, 3, 1, 4, 2) == _sources_by_stable_sort(pos, points)
    # half-integer lattices, so duplicates and equal distances abound
    gen = np.random.default_rng(0)
    for _ in range(6):
        pos = gen.integers(0, 21, (60, 2)) / 2
        points = [tuple(p) for p in gen.integers(0, 21, (12, 2)) / 2]
        points += points[:4]
        eng = Engine(params(n=len(pos), sources=points), initial_positions=pos)
        assert eng.source_indices == _sources_by_stable_sort(pos, points)
        assert len(set(eng.source_indices)) == len(points)


def test_exhaustion_when_steps_run_out():
    # two stationary whites never informed: failure, not exhaustion;
    # but k large keeps the source red past max_steps
    p = params(n=1, k=100, max_steps=3, sources=[(5.0, 5.0)])
    rec = run(p)
    assert rec.exhausted
    assert rec.completion_time is None and rec.failed_at is None


def test_run_record_series_conservation():
    rec = run(params(n=40, region_side=12.0, R=4.0, rho=1.0, seed=3))
    for w, r, b in zip(rec.series.white, rec.series.red, rec.series.black):
        assert w + r + b == 40


# ---------------------------------------------------------------------------
# transmission kernel equivalence
# ---------------------------------------------------------------------------


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def oracle_inform(positions, reds, whites, reach, chunk=256):
    """All pairs: each white that ``reach(whites, reds, d2)`` connects to some
    red, informed by the nearest such red, ties to the lowest red index."""
    whites = whites if reds.size else reds  # argmin needs a red
    informed, informers = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for a in range(0, len(whites), chunk):
        w = whites[a : a + chunk]
        dx = positions[w, None, 0] - positions[None, reds, 0]
        dy = positions[w, None, 1] - positions[None, reds, 1]
        d2 = dx * dx + dy * dy
        ok = reach(w, reds, d2)
        hit = ok.any(axis=1)
        informed.append(w[hit])
        informers.append(reds[np.argmin(np.where(ok, d2, np.inf)[hit], axis=1)])
    return np.concatenate(informed), np.concatenate(informers)


def euclidean_oracle(positions, reds, whites, R):
    return oracle_inform(positions, reds, whites, lambda w, r, d2: d2 <= R * R * (1 + 1e-12))


def same_supercell_oracle(positions, reds, whites, sgrid):
    key = bucket_cells(positions, sgrid.side, sgrid.origin) @ np.array([1 << 32, 1])
    # every pair at distance 0: the informer is the lowest-index red of the supercell
    return oracle_inform(
        np.zeros_like(positions), reds, whites, lambda w, r, d2: key[w, None] == key[None, r]
    )


def assert_same_inform(got, expected):
    order = np.argsort(got[0], kind="stable")
    assert np.array_equal(got[0][order], expected[0])
    assert np.array_equal(got[1][order], expected[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spatial_hash_matches_brute_force(seed):
    gen = RngStream(seed).generator()
    n = 120
    positions = gen.random((n, 2)) * 20.0
    states = gen.choice([WHITE, RED, BLACK], size=n, p=[0.5, 0.3, 0.2]).astype(np.int8)
    # dense agents behind a thin red front, as in a flood: 8 x 8 buckets,
    # most whites with no red in their bucket block
    dense = gen.random((3000, 2)) * 20.0
    front = np.where(np.abs(dense[:, 0] - 10.0) < 0.5, RED, WHITE).astype(np.int8)
    front[gen.random(3000) < 0.1] = BLACK
    for pos, s in ((positions, states), (dense, front)):
        assert_same_inform(
            _inform_euclidean(pos, *red_white(s), 2.5, Region.square(20.0)),
            euclidean_oracle(pos, *red_white(s), 2.5),
        )


# a coarse lattice with the supercell borders and the far edge x = L, y = L,
# so that duplicate positions, exact distance ties and distance exactly R occur
_L, _RHO, _R = 48.0, 12.0, 6.0
_coord = st.sampled_from([0.0, 5.5, 6.0, 11.5, 12.0, 18.0, 24.0, 30.0, 47.5, _L]) | st.floats(
    0.0, _L
)


@settings(max_examples=200, deadline=None)
@given(
    agents=st.lists(
        st.tuples(_coord, _coord, st.sampled_from([WHITE, RED, BLACK])), min_size=1, max_size=40
    )
)
# a white exactly R from two reds in the buckets on either side of its own:
# the tie goes to the lower index, 1, not to the bucket visited first
@example(agents=[(6.0, 6.0, WHITE), (12.0, 6.0, RED), (0.0, 6.0, RED)])
def test_transmit_kernels_match_all_pairs_oracle(agents):
    positions = np.array([(x, y) for x, y, _ in agents], dtype=float)
    states = np.array([s for _, _, s in agents], dtype=np.int8)
    sgrid = build_supercell_grid(Region.square(_L), _RHO)
    assert_same_inform(
        _inform_same_supercell(positions, *red_white(states), sgrid),
        same_supercell_oracle(positions, *red_white(states), sgrid),
    )
    assert_same_inform(
        _inform_euclidean(positions, *red_white(states), _R, Region.square(_L)),
        euclidean_oracle(positions, *red_white(states), _R),
    )


@pytest.mark.parametrize("cap", [1, 7, 50])
def test_kernels_and_isolation_match_oracles_in_small_chunks(monkeypatch, cap):
    # chunks of a few pairs end inside a bucket's run of queries, and a
    # white beside a crowd of 60 has more candidates than a chunk holds
    monkeypatch.setattr(geometry, "_CHUNK_PAIRS", cap)
    gen = RngStream(cap).generator()
    sgrid = build_supercell_grid(Region.square(_L), _RHO)
    crowd = np.r_[gen.random((300, 2)) * _L, 20.0 + gen.random((60, 2))]
    # duplicates and exact distance ties on a half-unit lattice
    lattice = gen.integers(0, 97, (360, 2)) / 2
    states = gen.choice([WHITE, RED, BLACK], size=360, p=[0.5, 0.4, 0.1]).astype(np.int8)
    for pos in (crowd, lattice):
        assert_same_inform(
            _inform_euclidean(pos, *red_white(states), _R, Region.square(_L)),
            euclidean_oracle(pos, *red_white(states), _R),
        )
        assert_same_inform(
            _inform_same_supercell(pos, *red_white(states), sgrid),
            same_supercell_oracle(pos, *red_white(states), sgrid),
        )
        for R in (0.5, 2.0):
            assert np.array_equal(isolated_indices(pos, R), isolated_indices_bruteforce(pos, R))
        # no white, or no red: nobody is informed
        for only in (RED, WHITE):
            uniform = np.full(len(pos), only, dtype=np.int8)
            assert _inform_euclidean(pos, *red_white(uniform), _R, Region.square(_L))[0].size == 0
            assert _inform_same_supercell(pos, *red_white(uniform), sgrid)[0].size == 0


def _in_supercell(gen, sgrid, cell, k, lattice=False):
    """k points uniform in supercell ``cell``, or on its half-unit lattice."""
    lo = np.asarray(sgrid.origin) + np.asarray(cell) * sgrid.side
    if lattice:
        return lo + gen.integers(0, int(2 * sgrid.side), (k, 2)) / 2
    return lo + gen.random((k, 2)) * sgrid.side


@pytest.mark.parametrize("seed", [1, 7, 50, 1 << 14])
def test_same_supercell_stages_match_oracle(seed):
    gen = RngStream(100 + seed).generator()
    sgrid = build_supercell_grid(Region.square(_L), _RHO)  # 4 x 4 supercells
    edges = np.arange(5) * _RHO  # supercell edges, the far edge x = L among them
    groups = [
        # hundreds of reds and whites in one supercell
        (_in_supercell(gen, sgrid, (1, 1), 600), [RED, WHITE]),
        # duplicate positions on a half-unit lattice
        (_in_supercell(gen, sgrid, (2, 2), 400, lattice=True), [RED, WHITE]),
        # two reds among many whites
        (_in_supercell(gen, sgrid, (0, 3), 100), [WHITE]),
        (np.array([[3.0, 40.0], [9.0, 44.0]]), [RED]),
        # agents on supercell edges
        (np.column_stack([gen.choice(edges, 80), gen.random(80) * _L]), [RED, WHITE, BLACK]),
        (np.column_stack([gen.random(80) * _L, gen.choice(edges, 80)]), [RED, WHITE, BLACK]),
        # a white whose nearest red (0.2 away) is across the supercell edge
        # x = 36; a red of its own supercell is 1.9 away
        (np.array([[36.1, 40.0], [35.9, 40.0], [38.0, 40.0]]), [WHITE, RED, RED]),
    ]
    pos = np.vstack([g for g, _ in groups])
    states = np.concatenate(
        [np.resize(np.array(kinds, dtype=np.int8), len(g)) for g, kinds in groups]
    )
    got = _inform_same_supercell(pos, *red_white(states), sgrid)
    assert_same_inform(got, same_supercell_oracle(pos, *red_white(states), sgrid))
    # informed from its own supercell, not by the nearer red across the edge
    white = len(pos) - 3
    [red] = got[1][got[0] == white]
    cells = bucket_cells(pos[[white, red]], sgrid.side, sgrid.origin)
    assert np.array_equal(cells[0], cells[1])


def _spy_grid_queries(monkeypatch):
    """(block, queries) of each query of a BucketGrid, as the euclidean
    kernel runs its stages."""
    calls = []
    query = geometry.BucketGrid.query

    def spy(grid, queries, block=1):
        calls.append((block, len(queries)))
        return query(grid, queries, block)

    monkeypatch.setattr(geometry.BucketGrid, "query", spy)
    return calls


@pytest.mark.parametrize("cap", [7, 1 << 14])
def test_euclidean_stages_match_oracle(monkeypatch, cap):
    monkeypatch.setattr(geometry, "_CHUNK_PAIRS", cap)
    calls = _spy_grid_queries(monkeypatch)
    gen = RngStream(200 + cap).generator()
    # 1200 agents on [0, L]^2: the side is R / 3 (with its margin), not
    # widened, so stage 2 takes block 3
    pos = gen.random((1200, 2)) * _L
    assert bucket_side(len(pos), _R / 3, Region.square(_L).bounds) == _R / 3 * (1 + 1e-9)
    # dense reds settle most whites in stage 1; from sparse reds most fall through
    for p, settle in (([0.5, 0.4, 0.1], True), ([0.97, 0.01, 0.02], False)):
        states = gen.choice([WHITE, RED, BLACK], size=len(pos), p=p).astype(np.int8)
        calls.clear()
        got = _inform_euclidean(pos, *red_white(states), _R, Region.square(_L))
        assert_same_inform(got, euclidean_oracle(pos, *red_white(states), _R))
        whites = np.count_nonzero(states == WHITE)
        (one, first), (three, fell) = calls
        assert (one, three, first) == (1, 3, whites) and (fell < whites / 2) == settle
        # stage 2 informs whites in both, and leaves some uninformed in the sparse one
        assert 0 < fell and whites - fell < len(got[0]) <= whites - (not settle)


def test_euclidean_settles_below_the_side_only(monkeypatch):
    # Stage 1 settles a white only below the side s.  Three whites go to
    # stage 2: w, with two reds at the same distance t, just above s, where
    # b (lower index) lies two buckets away and a in w's block: b informs
    # it; a white exactly s from a red; a white exactly R from a red.
    calls = _spy_grid_queries(monkeypatch)
    gen = RngStream(9).generator()
    s = _R / 3 * (1 + 1e-9)

    def bucket(x):
        return math.floor(x / s)

    xw = 6 * s  # the highest coordinate in bucket 5
    while bucket(xw) > 5:
        xw = np.nextafter(xw, -np.inf)
    xb = 7 * s  # the lowest coordinate in bucket 7
    while bucket(xb) < 7:
        xb = np.nextafter(xb, np.inf)
    t = xb - xw
    assert s < t < 2 * s
    special = [(xb, 0.0), (xw, t), (xw, 0.0), (40.0, s), (40.0, 0.0), (36.0, 40.0), (30.0, 40.0)]
    # black agents keep the side at s without taking part
    pos = np.vstack([gen.random((1200, 2)) * _L, special])
    states = np.full(len(pos), BLACK, dtype=np.int8)
    states[-7:] = [RED, RED, WHITE, RED, WHITE, RED, WHITE]
    assert bucket_side(len(pos), _R / 3, Region.square(_L).bounds) == s
    got = _inform_euclidean(pos, *red_white(states), _R, Region.square(_L))
    assert_same_inform(got, euclidean_oracle(pos, *red_white(states), _R))
    w = len(pos) - 5
    assert dict(zip(got[0].tolist(), got[1].tolist())) == {w: w - 2, w + 2: w + 1, w + 4: w + 3}
    assert calls == [(1, 3), (3, 3)]  # no white is settled


def test_euclidean_single_stage_when_the_side_is_widened(monkeypatch):
    calls = _spy_grid_queries(monkeypatch)
    gen = RngStream(10).generator()
    # 30 agents over [0, L]^2 widen the side to about L / sqrt(30) > R, and
    # a white R from a red; at R = 1e-13 the side is over 1e12 R, which
    # rounds the least block b to 0 unless it is kept at 1
    for R in (_R, 1e-13):
        calls.clear()
        pos = np.vstack([gen.random((28, 2)) * _L, [(10.0, 10.0), (10.0 + R, 10.0)]])
        states = gen.choice([WHITE, RED, BLACK], size=len(pos)).astype(np.int8)
        states[-2:] = [RED, WHITE]
        assert bucket_side(len(pos), R / 3, Region.square(_L).bounds) >= R * (1 + 1e-9)
        got = _inform_euclidean(pos, *red_white(states), R, Region.square(_L))
        assert_same_inform(got, euclidean_oracle(pos, *red_white(states), R))
        assert got[1][got[0] == len(pos) - 1].tolist() == [len(pos) - 2]
        assert calls == [(1, np.count_nonzero(states == WHITE))]


def test_euclidean_kernel_on_the_regions_frame():
    # the grid starts at the region's corner, not at the origin or at the
    # agents' own corner: a disk about the origin, agents on its rim (its
    # bounding box's edges) among them, and a square whose agents leave
    # its far half empty
    gen = RngStream(12).generator()
    disk = Region.disk(20.0)
    angles = gen.random(40) * 2 * np.pi
    edges = [[20.0, 0.0], [-20.0, 0.0], [0.0, 20.0], [0.0, -20.0]]
    rim = np.r_[edges, 20.0 * np.c_[np.cos(angles), np.sin(angles)]]
    rim = rim[disk.contains(rim)]
    inner = gen.random((3000, 2)) * 40.0 - 20.0
    for pos, region in (
        (np.r_[inner[disk.contains(inner)], rim], disk),
        (gen.random((800, 2)) * 10.0, Region.square(40.0)),
    ):
        states = gen.choice([WHITE, RED, BLACK], size=len(pos), p=[0.6, 0.2, 0.2]).astype(np.int8)
        for R in (0.7, 3.0):
            assert_same_inform(
                _inform_euclidean(pos, *red_white(states), R, region),
                euclidean_oracle(pos, *red_white(states), R),
            )


def test_cellular_run_matches_all_pairs_oracle(monkeypatch):
    base = parse_config(str(CONFIGS / "speedup_rho24_cellular.ini")).base
    for seed in (base.seed, base.seed + 1):
        p = replace(base, seed=seed)
        fast = run(p)
        with monkeypatch.context() as m:
            m.setattr(epidemic, "_inform_same_supercell", same_supercell_oracle)
            slow = run(p)
        assert fast.completion_time is not None
        assert fast.series == slow.series
        assert fast.chain_violations == slow.chain_violations == 0
        for name in ("positions", "states", "countdown", "chain_origin"):
            assert np.array_equal(getattr(fast.final, name), getattr(slow.final, name)), name


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    k=st.integers(min_value=1, max_value=3),
    order=st.sampled_from(["transmit_then_move", "move_then_transmit"]),
)
def test_state_monotonicity_and_conservation(seed, k, order):
    p = params(
        n=60, region_side=14.0, R=4.0, rho=1.5, k=k, seed=seed, phase_order=order
    )
    prev = []  # the states of the previous step

    def check(snap, last):
        w, r, b = snap.counts()
        assert w + r + b == p.n
        if prev:
            # white -> red -> black, never backwards
            assert not np.any((prev[0] == RED) & (snap.states == WHITE))
            assert not np.any((prev[0] == BLACK) & (snap.states != BLACK))
        prev[:] = [snap.states.copy()]

    rec = run(p, on_step=check)
    assert rec.chain_violations == 0


def test_determinism_same_seed_same_record():
    p = params(n=80, region_side=16.0, R=4.0, rho=2.0, seed=17)
    seen = [], []
    a = run(p, on_step=lambda s, last: seen[0].append((s.positions.copy(), s.states.copy())))
    b = run(p, on_step=lambda s, last: seen[1].append((s.positions.copy(), s.states.copy())))
    assert a.completion_time == b.completion_time
    assert a.series.white == b.series.white
    assert len(seen[0]) == len(seen[1])
    for (pa, sa), (pb, sb) in zip(*seen):
        assert np.array_equal(pa, pb)
        assert np.array_equal(sa, sb)


def test_layers_draw_from_independent_streams():
    # placement, random source choice and moves each draw from their own
    # stream of the seed: the source spec, R and k shift no position at any
    # step, and rho, which sets the stationary law and the moves, leaves the
    # random source choice alone
    base = params(n=60, region_side=16.0, R=4.0, rho=2.0, seed=23)

    def trajectory(p):
        eng = Engine(p)
        start = eng.snapshot.positions.copy()
        return eng, [start] + [eng.step().positions.copy() for _ in range(3)]

    eng, expected = trajectory(base)
    for other in (replace(base, sources=[(8.0, 8.0)]), replace(base, R=1.0), replace(base, k=3)):
        for a, b in zip(expected, trajectory(other)[1]):
            assert np.array_equal(a, b)
    for mobility in (MobilityMode.standard(5.0), MobilityMode.cellular(4.0)):
        assert Engine(replace(base, mobility=mobility)).source_indices == eng.source_indices


def test_on_step_sees_every_step_once():
    # called once after placement and once after each step, with the live
    # snapshot whose counts the record keeps, and told on the final call
    # alone that the run ends there: at completion, at max_steps (the run
    # is exhausted) or where the flood dies out, under either phase order
    steps, lasts, counts, states = [], [], [], []

    def observe(snap, last):
        steps.append(snap.step)
        lasts.append(last)
        counts.append(snap.counts())
        states[:] = [snap.states.copy()]

    for order in ORDERS:
        p = params(n=80, region_side=16.0, R=4.0, rho=2.0, seed=17, phase_order=order)
        for other, ended in (
            (p, "completion_time"),
            (replace(p, max_steps=2), "exhausted"),
            (replace(p, R=0.01), "failed_at"),
        ):
            steps.clear(), lasts.clear(), counts.clear()
            rec = run(other, on_step=observe)
            assert getattr(rec, ended)
            at = rec.steps_run()
            assert steps == list(range(at + 1))
            assert lasts == [False] * at + [True]
            assert counts == list(zip(rec.series.white, rec.series.red, rec.series.black))
            assert np.array_equal(states[0], rec.final.states)
        assert at == 1  # the die-out: the lone source turns black at step 1


def test_completion_time_respects_speed_lower_bound():
    # any chain of informs advances at most R + rho per step
    p = params(
        n=500, region_side=22.0, R=3.0, rho=1.0, seed=5, sources=[(0.5, 0.5)]
    )
    rec = run(p)
    # the source's eccentricity: the distance to the square's farthest corner
    ecc = math.hypot(22.0 - 0.5, 22.0 - 0.5)
    if rec.completion_time is not None:
        lower = math.ceil(ecc / (p.R + p.mobility.rho)) - 1
        assert rec.completion_time >= lower
    assert rec.chain_violations == 0
