"""Sweep harness, scaling fits, and the isolated-agent experiments."""

import math

import numpy as np
import pytest

from redwave.epidemic import RED, WHITE, SimParams, _inform_euclidean, run
from redwave.errors import ConfigurationError, GeometryError
from redwave.experiments import (
    ExperimentPlan,
    isolated_bound,
    isolated_count,
    isolated_indices,
    multi_source_run,
    replicate,
    scaling_fit,
    threshold_experiment,
)
from redwave.geometry import Region, bucket_cells, bucket_side
from redwave.mobility import MobilityMode, RngStream, _uniform_in_region
from tests.conftest import isolated_indices_bruteforce, red_white


def base_params(**kw):
    defaults = dict(
        region=Region.square(16.0),
        n=256,
        R=4.0,
        k=1,
        mobility=MobilityMode.standard(1.0),
    )
    defaults.update(kw)
    return SimParams(**defaults)


# ---------------------------------------------------------------------------
# sweep plans
# ---------------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        ExperimentPlan(base=base_params(), replicas=0)
    with pytest.raises(ConfigurationError):
        ExperimentPlan(base=base_params(), sweep_axis="L")
    with pytest.raises(ConfigurationError):
        ExperimentPlan(base=base_params(), sweep_axis="speed", sweep_values=(1,)).points()


def test_plan_points_sweep_side_length():
    plan = ExperimentPlan(
        base=base_params(), sweep_axis="L", sweep_values=(8.0, 16.0, 32.0)
    )
    pts = plan.points()
    assert [p.region.size for p in pts] == [8.0, 16.0, 32.0]
    # density-one population: n tracks the area
    assert [p.n for p in pts] == [64, 256, 1024]


def test_plan_density_one_off():
    plan = ExperimentPlan(
        base=base_params(n=50),
        sweep_axis="L",
        sweep_values=(8.0, 16.0),
        density_one=False,
    )
    assert [p.n for p in plan.points()] == [50, 50]


def test_plan_density_one_rejects_another_n():
    base = SimParams(region=Region.square(24.0), n=50, R=6.0)
    axes = [(None, ()), ("L", (24.0, 48.0)), ("R", (3.0,)), ("rho", (1.0,)), ("k", (2,))]
    for axis, values in axes:
        with pytest.raises(ConfigurationError, match="density_one"):
            ExperimentPlan(base=base, sweep_axis=axis, sweep_values=values)
    # the n axis, density_one off, or n = floor(area) itself
    assert ExperimentPlan(base=base, sweep_axis="n", sweep_values=(10,)).points()[0].n == 10
    assert ExperimentPlan(base=base, density_one=False).points()[0].n == 50
    assert ExperimentPlan(base=base_params(region=Region.square(24.0), n=576)).points()[0].n == 576


def test_plan_sweep_axes():
    base = base_params()
    for axis, values, get in [
        ("R", (2.0, 3.0), lambda p: p.R),
        ("rho", (0.5, 1.5), lambda p: p.mobility.rho),
        ("k", (1, 4), lambda p: p.k),
        ("n", (10, 20), lambda p: p.n),
    ]:
        plan = ExperimentPlan(base=base, sweep_axis=axis, sweep_values=values)
        assert [get(p) for p in plan.points()] == list(values)


def test_replicate_is_reproducible():
    plan = ExperimentPlan(
        base=base_params(region=Region.square(12.0), n=144, R=5.0, seed=100), replicas=4
    )
    a = replicate(plan)
    b = replicate(plan)
    assert a.points[0].completion_times == b.points[0].completion_times
    # each replica matches a standalone run at seed base + r
    for r, t in enumerate(a.points[0].completion_times):
        solo = run(base_params(region=Region.square(12.0), n=144, R=5.0, seed=100 + r))
        assert solo.completion_time == t


def test_replicate_captures_per_run_errors():
    # parameters pass construction, but one sweep point breaks the cellular
    # grid at run time (a supercell of side 12 cannot fit a square of side 8)
    base = SimParams(
        region=Region.square(48.0),
        n=64,
        R=6.0,
        mobility=MobilityMode.cellular(12.0),
        transmission_scope="same_supercell",
    )
    plan = ExperimentPlan(
        base=base, sweep_axis="L", sweep_values=(48.0, 8.0),
        replicas=2, density_one=False,
    )
    result = replicate(plan)
    assert result.points[0].errors == [None, None]
    assert all(e is not None for e in result.points[1].errors)
    assert result.points[1].completion_times == [None, None]


def test_point_summary_aggregates():
    plan = ExperimentPlan(base=base_params(R=6.0, seed=7), replicas=5)
    point = replicate(plan).points[0]
    times = point.completed_times
    assert point.completion_fraction() == len(times) / 5
    if times:
        assert point.median_completion() == float(np.median(times))


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


def test_scaling_fit_exact_line():
    fit = scaling_fit([(1.0, 5.0), (2.0, 8.0), (3.0, 11.0)])
    assert fit.slope == pytest.approx(3.0)
    assert fit.intercept == pytest.approx(2.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_scaling_fit_constant_series():
    fit = scaling_fit([(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)])
    assert fit.slope == pytest.approx(0.0)
    assert fit.r_squared == 1.0


def test_scaling_fit_needs_three_distinct_x():
    with pytest.raises(ConfigurationError):
        scaling_fit([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])


def test_scaling_fit_recovers_noisy_slope():
    gen = RngStream(99).generator()
    xs = np.linspace(1, 10, 40)
    ys = 3.0 * xs + 1.0 + gen.normal(0, 0.5, size=40)
    fit = scaling_fit(list(zip(xs, ys)))
    assert 2.7 <= fit.slope <= 3.3
    assert fit.r_squared >= 0.95


# ---------------------------------------------------------------------------
# isolated agents
# ---------------------------------------------------------------------------


def test_isolated_zero_radius_everyone_isolated():
    pos = np.zeros((5, 2))
    assert list(isolated_indices(pos, 0.0)) == [0, 1, 2, 3, 4]


def test_isolated_close_pair_none_isolated():
    pos = np.array([[1.0, 1.0], [1.5, 1.0]])
    assert len(isolated_indices(pos, 1.0)) == 0
    # exactly at distance R: the closed ball makes both non-isolated
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert len(isolated_indices(pos, 1.0)) == 0
    assert len(isolated_indices(pos, 0.99)) == 2


def test_isolated_bound_formula_and_clamp():
    n, R = 4096, 1.2
    expected = n * (1 - math.pi * R**2 / n) ** (n - 1)
    assert isolated_bound(n, R) == pytest.approx(expected)
    assert isolated_bound(10, 10.0) == 0.0


def test_isolated_hash_matches_bruteforce():
    gen = RngStream(31).generator()
    cases = []
    for trial in range(50):
        n = int(gen.integers(2, 2000))
        side = float(gen.uniform(5.0, 60.0))
        R = float(gen.uniform(0.2, 4.0))
        cases.append((gen.random((n, 2)) * side, R))
    # agents spread sparsely around a dense core: the bucket side stays R
    core = gen.random((4000, 2)) * 10.0
    sparse = [(np.r_[core, gen.random((n, 2)) * 20.0], R) for n, R in ((20, 2.5), (60, 2.0))]
    # a dense cluster with a few agents around it: the side widens
    cluster = np.r_[gen.normal(40.0, 0.3, (3000, 2)), gen.random((30, 2)) * 80.0]
    dense = [(cluster, 0.02), (cluster, 0.3)]
    # negative coordinates, as in a disk region
    disk = [(_uniform_in_region(n, Region.disk(30.0), gen), 1.5) for n in (200, 2000)]
    # duplicate positions on a /10 lattice, with pairs exactly R apart whose
    # coordinate differences carry rounding noise (1.1 - 1.0 > 0.1)
    lattices = [gen.integers(0, hi, (600, 2)) / 10 for hi in (40, 160)]
    radii = (0.1, 0.2, np.hypot(0.1, 0.2))
    dups = [(lattice, R) for lattice in lattices for R in radii]
    single = [(np.array([[3.0, 4.0]]), 1.0)]
    # the side is R up to its rounding margin when R buckets are not too many
    assert all(R < bucket_side(pos, R) <= R * (1 + 1e-8) for pos, R in sparse)
    # a dense cluster widens it: at most ceil(sqrt(n)) + 1 buckets across the
    # agents, plus the query's margin of one empty bucket on either side
    for pos, R in dense:
        across = np.ptp(bucket_cells(pos, bucket_side(pos, R)), axis=0) + 3
        assert bucket_side(pos, R) > R and across.prod() < (math.sqrt(len(pos)) + 4) ** 2
    for pos, R in cases + sparse + dense + disk + dups + single:
        got = isolated_indices(pos, R)
        exp = isolated_indices_bruteforce(pos, R)
        assert np.array_equal(got, exp)


def test_isolation_uses_the_kernels_closed_ball():
    # (0, 0)-(a, b) with R = hypot(a, b) as the oracle computes it: the
    # kernel informs across every pair, so neither agent is isolated
    states = np.array([RED, WHITE], dtype=np.int8)
    for a in np.arange(1, 30) / 10:
        for b in np.arange(1, 30) / 10:
            pos = np.array([[0.0, 0.0], [a, b]])
            R = float(np.hypot(a, b))
            assert list(_inform_euclidean(pos, *red_white(states), R)[0]) == [1]
            assert len(isolated_indices_bruteforce(pos, R)) == 0
            assert len(isolated_indices(pos, R)) == 0, (a, b)


def test_isolated_count_reports_bound():
    region = Region.square(64.0)
    res = isolated_count(4096, 0.8, region, RngStream(5).generator())
    assert res.bound == pytest.approx(isolated_bound(4096, 0.8))
    assert res.positions.shape == (4096, 2)
    assert 0 <= res.count <= 4096


# ---------------------------------------------------------------------------
# multi-source runs
# ---------------------------------------------------------------------------


def test_multi_source_all_agents_complete_immediately():
    p = base_params(n=6, region=Region.square(10.0))
    probe = run(p)
    pts = [tuple(map(float, xy)) for xy in probe.final.chain_origin[:6]]
    rec = multi_source_run(SimParams(**{**p.__dict__, "sources": pts}))
    assert rec.completion_time == 1
    assert rec.ecc_sources > 0


def test_multi_source_single_point_matches_plain_run():
    p = base_params(seed=3, sources=[(8.0, 8.0)])
    a = multi_source_run(p)
    b = run(p)
    assert a.completion_time == b.completion_time
    assert np.array_equal(a.final.states, b.final.states)


def test_multi_source_validates_containment():
    with pytest.raises(GeometryError):
        multi_source_run(base_params(sources=[(99.0, 0.0)]))
    with pytest.raises(ConfigurationError):
        multi_source_run(base_params(sources="random"))


# ---------------------------------------------------------------------------
# sub-threshold experiment
# ---------------------------------------------------------------------------


def test_threshold_isolated_source_fails_at_once():
    # sparse placement, tiny radius: plenty of isolated agents, and
    # 1-flooding from one of them dies in the first step
    p = base_params(
        region=Region.square(64.0), n=100, R=0.5,
        mobility=MobilityMode.standard(0.0), seed=11,
    )
    res = threshold_experiment(p, trials=20)
    assert res.trials == 20
    assert res.isolated_sources_found + res.skipped == 20
    assert res.isolated_sources_found > 0
    assert res.failures == res.isolated_sources_found


def test_threshold_dense_network_skips_trials():
    # R larger than the region diameter: nobody is ever isolated
    p = base_params(region=Region.square(8.0), n=30, R=20.0)
    res = threshold_experiment(p, trials=5)
    assert res.skipped == 5
    assert res.failures == 0


def test_k_flooding_longevity_soft_audit():
    # larger k keeps informers active longer, which should at least not
    # hurt completion reliability; the medians are reported, not gated,
    # because the effect on completion time is noisy at this scale
    region = Region.square(24.0)
    medians = []
    for k in (1, 2, 4):
        plan = ExperimentPlan(
            base=SimParams(
                region=region, n=576, R=3.0, k=k,
                mobility=MobilityMode.standard(1.5), seed=40,
            ),
            replicas=10,
        )
        point = replicate(plan).points[0]
        assert point.completion_fraction() >= 0.8
        medians.append(point.median_completion())
    assert all(not math.isnan(m) and m >= 1 for m in medians)
    print(f"median completion by k in (1, 2, 4): {medians}")
