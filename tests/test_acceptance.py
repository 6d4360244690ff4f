"""Statistical acceptance gates for the whole package.

Each test prints exactly one PASS/FAIL line with the measured quantities
(visible with ``pytest tests/test_acceptance.py -s`` or in the captured
output of a failure).  The expensive simulation batches are shared across
criteria through module-scoped fixtures.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from redwave.cli import emit_trace, instrumentation_options, parse_config, trace_run
from redwave.epidemic import run
from redwave.experiments import (
    isolated_bound,
    isolated_count,
    isolated_indices,
    replicate,
    scaling_fit,
    threshold_experiment,
)
from redwave.geometry import Region, build_cell_grid
from redwave.instrument import (
    CELL_CODE,
    CellState,
    SpeedAudit,
    SupercellClassifier,
    classify_cells,
    classify_supercells,
    is_regular,
    supercell_speed_audit,
    transition_audit,
    wavefront_speed_audit,
)
from redwave.mobility import RngStream, build_supercell_grid
from tests.conftest import distances_from, isolated_indices_bruteforce

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared simulation batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def regularity_batch():
    """20 seeded low-mobility runs with full cell-level instrumentation."""
    cfg = str(CONFIGS / "regularity.ini")
    params = parse_config(cfg)
    opts = instrumentation_options(cfg)
    grid = build_cell_grid(params.region, opts["cell_side"], opts["gamma"])
    out = {
        "configs": 0,
        "regular": 0,
        "grey_free": 0,
        "speed": SpeedAudit(),
        "chain_violations": 0,
        "completions": [],
    }
    for seed in range(20):
        maps = []  # one classified cell map per step, built as the run goes
        rec = run(
            replace(params, seed=seed), on_step=lambda s: maps.append(classify_cells(s, grid))
        )
        out["chain_violations"] += rec.chain_violations
        out["completions"].append(rec.completion_time)
        for m in maps:
            out["configs"] += 1
            if is_regular(m).regular:
                out["regular"] += 1
            if not (m == CELL_CODE[CellState.GREY]).any():
                out["grey_free"] += 1
        out["speed"] = out["speed"].merge(wavefront_speed_audit(maps, grid, 1, "red"))
    return out


@pytest.fixture(scope="module")
def speedup_batch():
    """30 replicas each at rho in {6, 12, 24}; the standard runs carry the
    cell-level wavefront audit, the cellular runs the supercell audits."""
    out = {
        "medians": {},
        "speed": SpeedAudit(),
        "supercell_speed": SpeedAudit(),
        "transitions": {k: [0, 0] for k in "abcde"},
        "chain_violations": 0,
    }
    for name in ("speedup_rho6", "speedup_rho12", "speedup_rho24_cellular"):
        cfg = str(CONFIGS / f"{name}.ini")
        plan = parse_config(cfg)
        opts = instrumentation_options(cfg)
        params = plan.points()[0]
        rho = params.mobility.rho
        cellular = params.mobility.kind == "cellular"
        if cellular:
            sgrid = build_supercell_grid(params.region, rho)
            classifier = SupercellClassifier(R=params.R, rho=rho, n=params.n)

            def classify(s):
                return classify_supercells(s, sgrid, classifier)
        else:
            grid = build_cell_grid(params.region, opts["cell_side"], opts["gamma"])

            def classify(s):
                return classify_cells(s, grid)
        times = []
        for r in range(plan.replicas):
            maps = []
            rec = run(
                replace(params, seed=params.seed + r), on_step=lambda s: maps.append(classify(s))
            )
            out["chain_violations"] += rec.chain_violations
            times.append(rec.completion_time)
            if cellular:
                out["supercell_speed"] = out["supercell_speed"].merge(
                    supercell_speed_audit(maps, sgrid)
                )
                # audits are per run: pairing the final map of one run with
                # the initial map of the next would be meaningless
                audit = transition_audit(maps, sgrid)
                for key, tally in audit.tallies.items():
                    out["transitions"][key][0] += tally.agreements
                    out["transitions"][key][1] += tally.violations
            else:
                out["speed"] = out["speed"].merge(
                    wavefront_speed_audit(maps, grid, 1, "red")
                )
        completed = [t for t in times if t is not None]
        out["medians"][rho] = float(np.median(completed)) if completed else math.nan
    return out


@pytest.fixture(scope="module")
def scaling_batch():
    return replicate(parse_config(str(CONFIGS / "scaling.ini")))


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_ac1_chain_speed_invariant(regularity_batch, speedup_batch):
    total = regularity_batch["chain_violations"] + speedup_batch["chain_violations"]
    _report(
        "AC-1 informer-chain speed",
        total == 0,
        f"{total} violations of the per-step information-speed bound "
        f"(R + rho euclidean, 3 sqrt(2) rho supercell) across all audited runs",
    )


def test_ac2_regularity(regularity_batch):
    b = regularity_batch
    frac_regular = b["regular"] / b["configs"]
    frac_grey_free = b["grey_free"] / b["configs"]
    ok = frac_regular >= 0.99 and frac_grey_free >= 0.99
    _report(
        "AC-2 configuration regularity",
        ok,
        f"{frac_regular:.2%} regular, {frac_grey_free:.2%} grey-free "
        f"over {b['configs']} configurations (gates: >= 99% each)",
    )


def test_ac3_completion_scales_with_diameter(scaling_batch):
    points = scaling_batch.points
    sizes = [p.params.region.size for p in points]
    fractions = [p.completion_fraction() for p in points]
    medians = [p.median_completion() for p in points]
    R = points[0].params.R
    fit = scaling_fit([(L / R, m) for L, m in zip(sizes, medians)])
    normalized = [m * R / L for L, m in zip(sizes, medians)]
    spread = max(normalized) / min(normalized)
    ok = (
        all(f >= 29 / 30 for f in fractions)
        and fit.r_squared >= 0.9
        and spread <= 3.0
    )
    _report(
        "AC-3 linear scaling in L/R",
        ok,
        f"completion {['%.0f/30' % (30 * f) for f in fractions]}, "
        f"r^2={fit.r_squared:.3f} (>= 0.9), normalized-median spread "
        f"{spread:.2f} (<= 3) for medians {medians}",
    )


def test_ac4_mobility_speedup(speedup_batch):
    m = speedup_batch["medians"]
    decreasing = m[6.0] > m[12.0] > m[24.0]
    ratio = m[24.0] / m[6.0]
    ok = decreasing and ratio <= 0.5
    _report(
        "AC-4 mobility speed-up",
        ok,
        f"median T = {m[6.0]} / {m[12.0]} / {m[24.0]} at rho = 6/12/24, "
        f"ratio T(24)/T(6) = {ratio:.2f} (<= 0.5, strictly decreasing)",
    )


def test_ac5_multi_source_speedup():
    medians = {}
    for name in ("multisource_1corner", "multisource_4corners"):
        plan = parse_config(str(CONFIGS / f"{name}.ini"))
        point = replicate(plan).points[0]
        medians[name] = point.median_completion()
    ratio = medians["multisource_4corners"] / medians["multisource_1corner"]
    _report(
        "AC-5 multi-source speed-up",
        ratio <= 0.7,
        f"median T(4 corners)/T(1 corner) = {medians['multisource_4corners']}"
        f"/{medians['multisource_1corner']} = {ratio:.2f} (<= 0.7, 30 paired seeds)",
    )


def test_ac6_sub_threshold_radius():
    params = parse_config(str(CONFIGS / "subthreshold.ini"))
    trials = 200
    total = 0
    for t in range(trials):
        gen = RngStream(params.seed + t).generator()
        total += isolated_count(params.n, params.R, params.region, gen).count
    mean = total / trials
    bound = isolated_bound(params.n, params.R)
    floor = max(1.0, 0.9 * bound)
    res = threshold_experiment(params, trials=100)
    ok = mean >= floor and res.isolated_sources_found > 0 and (
        res.failures == res.isolated_sources_found
    )
    _report(
        "AC-6 sub-threshold isolation",
        ok,
        f"mean isolated {mean:.2f} (>= {floor:.2f}); 1-flooding from an "
        f"isolated source failed {res.failures}/{res.isolated_sources_found} "
        f"times (must be all)",
    )


def test_ac7_wavefront_speed(regularity_batch, speedup_batch):
    pooled = (
        regularity_batch["speed"]
        .merge(speedup_batch["speed"])
        .merge(speedup_batch["supercell_speed"])
    )
    rate = pooled.violation_rate()
    _report(
        "AC-7 per-step wavefront advance",
        rate <= 0.01,
        f"{pooled.violations}/{pooled.total} (white cell, step) pairs missed "
        f"the distance decrease ({rate:.3%}, gate <= 1%)",
    )


def test_ac8_oracle_equivalence():
    grid = build_cell_grid(Region.square(15.0), 1.0, gamma=1.0)
    cells = grid.cells
    chebyshev_ok = all(
        dist[b] == max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        for a in cells
        for dist in [distances_from(a, grid)]  # one transform per source
        for b in cells
    )
    gen = RngStream(800).generator()
    iso_ok = True
    for _ in range(50):
        n = int(gen.integers(2, 2000))
        pos = gen.random((n, 2)) * float(gen.uniform(5.0, 80.0))
        R = float(gen.uniform(0.2, 4.0))
        if not np.array_equal(
            isolated_indices(pos, R), isolated_indices_bruteforce(pos, R)
        ):
            iso_ok = False
            break
    _report(
        "AC-8 oracle equivalence",
        chebyshev_ok and iso_ok,
        f"cell distance == Chebyshev on all {len(cells)**2} pairs: {chebyshev_ok}; "
        f"spatial hash == brute force on 50 instances: {iso_ok}",
    )


def test_ac9_state_ladder_transitions(speedup_batch):
    lines = []
    ok = True
    for key, (agree, viol) in sorted(speedup_batch["transitions"].items()):
        observed = agree + viol
        if observed < 20:
            lines.append(f"({key}) under-sampled ({observed} obs)")
            continue
        rate = agree / observed
        if rate < 0.95:
            ok = False
        lines.append(f"({key}) {rate:.1%} of {observed}")
    _report(
        "AC-9 supercell state ladder",
        ok,
        "; ".join(lines) + " (gate: >= 95% wherever >= 20 observations)",
    )


def test_ac10_byte_identical_traces(tmp_path):
    cfg = str(CONFIGS / "regularity.ini")
    params = parse_config(cfg)
    opts = instrumentation_options(cfg)
    grid = build_cell_grid(params.region, opts["cell_side"], opts["gamma"])
    identical = True
    for fmt in ("ndjson", "csv"):
        paths = []
        for tag in ("a", "b"):
            rows = []
            trace_run(replace(params, seed=3), grid, "final", rows.append)
            path = tmp_path / f"{tag}.{fmt}"
            emit_trace(rows, fmt, str(path))
            paths.append(path)
        if paths[0].read_bytes() != paths[1].read_bytes():
            identical = False
    _report(
        "AC-10 deterministic traces",
        identical,
        "repeated runs of the same config and seed emit byte-identical "
        "ndjson and csv traces",
    )
