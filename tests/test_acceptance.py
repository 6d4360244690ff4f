"""Statistical acceptance gates for the whole package.

Each test prints exactly one PASS/FAIL line with the measured quantities
(visible with ``pytest tests/test_acceptance.py -s`` or in the captured
output of a failure).  The expensive simulation batches are shared across
criteria through module-scoped fixtures.
"""

import csv
import io
import math
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from redwave import cli
from redwave.cli import emit_trace, instrumentation_options, parse_config, trace_run
from redwave.experiments import isolated_indices
from redwave.geometry import Region, build_cell_grid
from redwave.mobility import RngStream
from tests.conftest import (
    covered_cells,
    distances_from,
    isolated_indices_bruteforce,
    scaling_fit,
    threshold_experiment,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared simulation batches
# ---------------------------------------------------------------------------


def _audit(name: str, seeds=None):
    """Each seeded run of a preset as ``redwave audit --dump-cells never``
    runs it: the run records and the summed audit tally.  ``seeds`` default
    to the seeds of an experiment preset's replicas."""
    cfg = str(CONFIGS / f"{name}.ini")
    params = parse_config(cfg)
    if seeds is None:
        plan, params = params, params.points()[0]
        seeds = range(params.seed, params.seed + plan.replicas)
    grid = cli._instrument_grid(params, instrumentation_options(cfg))
    records, tally = [], Counter()
    for seed in seeds:
        rec, run_tally = trace_run(
            replace(params, seed=seed), grid, "never", lambda row: None, supercells=True
        )
        records.append(rec)
        tally.update(run_tally)
    return records, tally


@pytest.fixture(scope="module")
def regularity_batch():
    """20 seeded low-mobility runs, audited by cells."""
    return _audit("regularity", range(20))


@pytest.fixture(scope="module")
def speedup_batch():
    """30 replicas each at rho in {6, 12, 24}: the standard walks audited by
    cells, the cellular walk by supercells."""
    return {
        rho: _audit(name)
        for rho, name in (
            (6.0, "speedup_rho6"),
            (12.0, "speedup_rho12"),
            (24.0, "speedup_rho24_cellular"),
        )
    }


def _verb(*argv: str) -> str:
    """Run a ``redwave`` verb in process; return what it prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    return out.getvalue()


def _sweep(name: str, out: Path) -> list[dict[str, float]]:
    """The aggregate rows of ``redwave sweep`` on a preset: each sweep
    point's L, R, median completion time (nan where no replica completed)
    and completion fraction."""
    _verb("sweep", "--config", str(CONFIGS / f"{name}.ini"), "--out", str(out))
    with open(out / "summary.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["row_kind"] == "aggregate"]
    keys = ("L", "R", "median_t", "completion_fraction")
    return [{key: float(row[key] or "nan") for key in keys} for row in rows]


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_ac1_chain_speed_invariant(regularity_batch, speedup_batch):
    batches = [regularity_batch, *speedup_batch.values()]
    total = sum(rec.chain_violations for records, _ in batches for rec in records)
    _report(
        "AC-1 informer-chain speed",
        total == 0,
        f"{total} violations of the per-step information-speed bound "
        f"(R + rho euclidean, 3 sqrt(2) rho supercell) across all audited runs",
    )


def test_ac2_regularity(regularity_batch):
    _, b = regularity_batch
    frac_regular = b["regular"] / b["configs"]
    frac_grey_free = b["grey_free"] / b["configs"]
    ok = frac_regular >= 0.99 and frac_grey_free >= 0.99
    _report(
        "AC-2 configuration regularity",
        ok,
        f"{frac_regular:.2%} regular, {frac_grey_free:.2%} grey-free "
        f"over {b['configs']} configurations (gates: >= 99% each)",
    )


def test_ac3_completion_scales_with_diameter(tmp_path):
    points = _sweep("scaling", tmp_path)
    sizes = [p["L"] for p in points]
    fractions = [p["completion_fraction"] for p in points]
    medians = [p["median_t"] for p in points]
    R = points[0]["R"]
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
    m = {}
    for rho, (records, _) in speedup_batch.items():
        completed = [rec.completion_time for rec in records if rec.completion_time is not None]
        m[rho] = float(np.median(completed)) if completed else math.nan
    decreasing = m[6.0] > m[12.0] > m[24.0]
    ratio = m[24.0] / m[6.0]
    ok = decreasing and ratio <= 0.5
    _report(
        "AC-4 mobility speed-up",
        ok,
        f"median T = {m[6.0]} / {m[12.0]} / {m[24.0]} at rho = 6/12/24, "
        f"ratio T(24)/T(6) = {ratio:.2f} (<= 0.5, strictly decreasing)",
    )


def test_ac5_multi_source_speedup(tmp_path):
    medians = {}
    for name in ("multisource_1corner", "multisource_4corners"):
        (point,) = _sweep(name, tmp_path / name)
        medians[name] = point["median_t"]
    ratio = medians["multisource_4corners"] / medians["multisource_1corner"]
    _report(
        "AC-5 multi-source speed-up",
        ratio <= 0.7,
        f"median T(4 corners)/T(1 corner) = {medians['multisource_4corners']}"
        f"/{medians['multisource_1corner']} = {ratio:.2f} (<= 0.7, 30 paired seeds)",
    )


def test_ac6_sub_threshold_radius():
    cfg = str(CONFIGS / "subthreshold.ini")
    fields = _verb("isolated", "--config", cfg, "--trials", "200").split()
    printed = dict(field.split("=") for field in fields)
    mean, bound = float(printed["mean_isolated"]), float(printed["bound"])
    floor = max(1.0, 0.9 * bound)
    params = parse_config(cfg)
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
    tallies = [tally for _, tally in [regularity_batch, *speedup_batch.values()]]
    total = sum(t["front"] + t["supercell_front"] for t in tallies)
    missed = sum(t["front_missed"] + t["supercell_front_missed"] for t in tallies)
    rate = missed / total if total else 0.0
    _report(
        "AC-7 per-step wavefront advance",
        rate <= 0.01,
        f"{missed}/{total} (white cell, step) pairs missed "
        f"the distance decrease ({rate:.3%}, gate <= 1%)",
    )


def test_ac8_oracle_equivalence():
    grid = build_cell_grid(Region.square(15.0), 1.0, gamma=1.0)
    cells = covered_cells(grid)
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
    _, tally = speedup_batch[24.0]
    lines = []
    ok = True
    for key in "abcde":
        observed = tally[f"rule_{key}"]
        if observed < 20:
            lines.append(f"({key}) under-sampled ({observed} obs)")
            continue
        rate = (observed - tally[f"rule_{key}_missed"]) / observed
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
