"""Config files, trace/summary emission, and the command-line entry point."""

import contextlib
import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from redwave import cli, epidemic, mobility
from redwave.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_RUN_FAILURE,
    emit_summary,
    emit_trace,
    main,
    parse_config,
    trace_run,
)
from redwave.epidemic import SimParams, run
from redwave.errors import ConfigurationError, GeometryError
from redwave.experiments import ExperimentPlan, replicate
from redwave.geometry import Region, build_cell_grid
from redwave.instrument import CellState, SupercellAudit, classify_cells
from redwave.mobility import MobilityMode, build_supercell_grid
from tests.conftest import covered_cells, make_snapshot

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[region]
kind = square
size = 12

[agents]
n = 40

[protocol]
r = 4.0
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _with_value(text, key, value):
    """``text`` with the line setting ``key`` replaced by ``key = value``."""
    return "\n".join(
        f"{key} = {value}" if line.startswith(f"{key} =") else line for line in text.splitlines()
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config_defaults(tmp_path):
    params = parse_config(write(tmp_path, MINIMAL))
    assert isinstance(params, SimParams)
    assert params.region == Region.square(12.0)
    assert params.n == 40
    assert params.R == 4.0
    assert params.k == 1
    assert params.mobility == MobilityMode.standard(0.0)
    assert params.phase_order == "transmit_then_move"
    assert params.sources == "random"
    assert params.seed == 0


def test_parse_density_one(tmp_path):
    text = MINIMAL.replace("n = 40", "density_one = true")
    params = parse_config(write(tmp_path, text))
    assert params.n == 144


def test_parse_explicit_sources(tmp_path):
    text = MINIMAL + "sources = 1.0,2.0;3.5,4.5\n"
    params = parse_config(write(tmp_path, text))
    assert params.sources == [(1.0, 2.0), (3.5, 4.5)]


def test_parse_experiment_section_yields_plan(tmp_path):
    text = MINIMAL + "\n[experiment]\nsweep_axis = L\nsweep_values = 8,12\nreplicas = 3\n"
    plan = parse_config(write(tmp_path, text))
    assert isinstance(plan, ExperimentPlan)
    assert plan.sweep_axis == "L"
    assert plan.sweep_values == (8.0, 12.0)
    assert plan.replicas == 3


def test_parse_experiment_seed_only_stays_single_run(tmp_path):
    text = MINIMAL + "\n[experiment]\nseed = 9\n"
    params = parse_config(write(tmp_path, text))
    assert isinstance(params, SimParams)
    assert params.seed == 9


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "speed = 9\n"))
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "\n[instrumentation]\nalpha = 1.0\n"))
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "\n[instrumentation]\neta1 = 0.5\n"))
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "\n[physics]\ngravity = 10\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "r = 5.0\n"))
    # names are matched lower-cased, so R and r are one key
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, MINIMAL + "R = 5.0\n"))


def test_mixed_case_keys_parse(tmp_path):
    text = MINIMAL.replace("r = 4.0", "R = 6.0").replace("n = 40", "N = 50")
    params = parse_config(write(tmp_path, text + "Max_Steps = 7\n"))
    assert (params.R, params.n, params.max_steps) == (6.0, 50, 7)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(str(tmp_path / "nope.ini"))


def test_regime_guards(tmp_path):
    # sec3 needs rho <= R / (2 sqrt 2) = 1.41 here
    text = MINIMAL + "regime = sec3\n\n[mobility]\nmode = standard\nrho = 3.0\n"
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, text))
    text = MINIMAL + "regime = sec3\n\n[mobility]\nmode = standard\nrho = 1.0\n"
    params = parse_config(write(tmp_path, text))
    assert params.mobility.rho == 1.0
    # sec5 needs cellular movement and rho >= 5R
    text = MINIMAL + "regime = sec5\n\n[mobility]\nmode = standard\nrho = 30.0\n"
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, text))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _trace_rows(params, grid=None, dump_cells="never"):
    rows = []
    trace_run(params, grid, dump_cells, rows.append)
    return rows


@pytest.fixture()
def tiny_rows():
    return _trace_rows(
        SimParams(
            region=Region.square(6.0),
            n=1,
            R=2.0,
            mobility=MobilityMode.standard(0.0),
            sources=[(3.0, 3.0)],
        )
    )


def test_trace_single_agent_two_rows(tiny_rows, tmp_path):
    path = str(tmp_path / "trace.ndjson")
    emit_trace(tiny_rows, "ndjson", path)
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert len(rows) == 2  # the initial configuration plus one step
    assert rows[0]["white"] == 0 and rows[0]["red"] == 1
    assert rows[1]["black"] == 1
    assert all(r["schema"] == 1 for r in rows)


def test_trace_rerun_byte_identical(tmp_path):
    p = SimParams(
        region=Region.square(10.0), n=25, R=3.0,
        mobility=MobilityMode.standard(1.0), seed=4,
    )
    a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
    emit_trace(_trace_rows(p), "ndjson", a)
    emit_trace(_trace_rows(p), "ndjson", b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_trace_csv_and_ndjson_agree(tmp_path):
    rows = _trace_rows(
        SimParams(
            region=Region.square(10.0), n=30, R=3.0,
            mobility=MobilityMode.standard(1.0), seed=8,
        )
    )
    pj, pc = str(tmp_path / "t.ndjson"), str(tmp_path / "t.csv")
    emit_trace(rows, "ndjson", pj)
    emit_trace(rows, "csv", pc)
    jrows = [json.loads(line) for line in Path(pj).read_text().splitlines()]
    crows = list(csv.DictReader(Path(pc).read_text().splitlines()))
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        for key in ("step", "white", "red", "black"):
            assert j[key] == int(c[key])


def test_trace_cells_dump_matches_cell_maps():
    # a square whose last row and column are uncovered slivers
    region = Region.square(13.0)
    grid = build_cell_grid(region, 2.0, gamma=0.6)
    p = SimParams(region=region, n=150, R=2.0, mobility=MobilityMode.standard(1.0), seed=5)
    assert p.phase_order == "transmit_then_move"
    names = [s.value for s in CellState]
    maps, before = [], []

    def dump(snap, last):
        # the configuration the transmission acted on: this step's states at
        # the step before's positions (at step 0, the snapshot's)
        positions = before[-1] if before else snap.positions
        before.append(snap.positions.copy())
        codes = classify_cells(make_snapshot(positions, snap.states), grid)
        maps.append({f"{c},{r}": names[codes[c, r]] for c, r in covered_cells(grid)})

    run(p, on_step=dump)
    assert [json.loads(row["cells"]) for row in _trace_rows(p, grid, "each")] == maps
    final = [row["cells"] and json.loads(row["cells"]) for row in _trace_rows(p, grid, "final")]
    assert final == [None] * (len(maps) - 1) + maps[-1:]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_trace_cells_dump_encodes_as_sorted_json(tmp_path, fmt):
    # 12 columns: key "10,0" sorts before "2,0", unlike the index order
    region = Region.square(12.0)
    grid = build_cell_grid(region, 1.0, gamma=0.5)
    p = SimParams(region=region, n=150, R=2.0, mobility=MobilityMode.standard(1.0), seed=2)
    keys = [f"{c},{r}" for c, r in covered_cells(grid)]
    assert keys != sorted(keys)
    rows = _trace_rows(p, grid, "each")
    path = tmp_path / f"t.{fmt}"
    emit_trace(rows, fmt, str(path))
    plain = [dict(row, cells=json.loads(row["cells"])) for row in rows]
    encode = lambda v: json.dumps(v, sort_keys=True, separators=(",", ":"))
    if fmt == "ndjson":
        assert path.read_text().splitlines() == [encode(row) for row in plain]
    else:
        cells = [row["cells"] for row in csv.DictReader(path.read_text().splitlines())]
        assert cells == [encode(row["cells"]) for row in plain]


@pytest.mark.parametrize(
    "region, side, gamma",
    [
        (Region.square(92.0), 1.0, 0.3),  # 92 columns: "9,0" sorts between "89,91" and "90,0"
        (Region.square(13.0), 2.0, 0.6),  # the last row and column are uncovered slivers
        (Region.disk(16.0), 1.5, 0.5),
    ],
    ids=["square92", "sliver", "disk"],
)
def test_dump_keys_match_sorted_keys(region, side, gamma):
    # the oracle sorts the "c,r" key strings of the covered cells
    grid = build_cell_grid(region, side, gamma)
    keys = sorted((f"{c},{r}", c * grid.mask.shape[1] + r) for c, r in covered_cells(grid))
    pieces, flat = cli._dump_keys(grid)
    assert pieces == [p for k, _ in keys for p in (',"', k, None)]
    assert flat.tolist() == [i for _, i in keys]


def test_trace_unknown_format(tiny_rows, tmp_path):
    with pytest.raises(ConfigurationError):
        emit_trace(tiny_rows, "yaml", str(tmp_path / "t.yaml"))
    assert not (tmp_path / "t.yaml").exists()


def test_trace_rows_stream_to_the_writer(monkeypatch):
    # row t reaches the writer during step t's hook, before step t + 1 runs
    ended = []
    real_run = cli.run

    def counting_run(params, on_step):
        return real_run(params, on_step=lambda s, last: (ended.append(s.step), on_step(s, last)))

    monkeypatch.setattr(cli, "run", counting_run)
    p = SimParams(
        region=Region.square(10.0), n=30, R=3.0,
        mobility=MobilityMode.standard(1.0), seed=8,
    )
    written = []
    rec, tally = trace_run(p, None, "never", lambda row: written.append((row["step"], len(ended))))
    last = rec.steps_run()
    assert written == [(t, t + 1) for t in range(last + 1)]
    assert tally == {"configs": last + 1}  # no grid and no supercells: nothing audited


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_main_streams_the_bytes_of_emit_trace(tmp_path, fmt):
    # a covered grid with an uncovered sliver, so that every column fills
    cfg = write(
        tmp_path,
        MINIMAL.replace("size = 12", "size = 13")
        + "\n[mobility]\nrho = 1.0\n\n[instrumentation]\ncell_side = 2.0\ngamma = 0.6\n",
    )
    params = parse_config(cfg)
    grid = build_cell_grid(params.region, 2.0, 0.6)
    for dump in ("never", "each", "final"):
        out = tmp_path / dump
        args = ["run", "--config", cfg, "--out", str(out), "--format", fmt, "--dump-cells", dump]
        assert main(args) == EXIT_OK
        ref = tmp_path / f"{dump}.{fmt}"
        emit_trace(_trace_rows(params, grid, dump), fmt, str(ref))
        assert (out / f"trace.{fmt}").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("verb", ["run", "audit"])
def test_failed_run_keeps_the_earlier_trace(tmp_path, verb, monkeypatch):
    # the run fails at step 2, after the trace has been opened and its first
    # rows written
    out = tmp_path / "out"
    good = write(tmp_path, MINIMAL + "\n[instrumentation]\ncell_side = 3.0\n")
    assert main([verb, "--config", good, "--out", str(out)]) == EXIT_OK
    trace = out / f"{'audit' if verb == 'audit' else 'trace'}.ndjson"
    before = trace.read_bytes()
    real_run = cli.run

    def failing_run(params, on_step):
        def step(s, last):
            on_step(s, last)
            if s.step == 2:
                raise GeometryError("agent left the region")

        return real_run(params, on_step=step)

    monkeypatch.setattr(cli, "run", failing_run)
    assert main([verb, "--config", good, "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
    assert trace.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [trace.name]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summary_rows_and_recomputation(tmp_path):
    plan = ExperimentPlan(
        base=SimParams(
            region=Region.square(14.0), n=196, R=4.0,
            mobility=MobilityMode.standard(1.0), seed=5,
        ),
        replicas=3,
    )
    sweep = replicate(plan)
    path = str(tmp_path / "summary.csv")
    emit_summary(sweep, path)
    rows = list(csv.DictReader(Path(path).read_text().splitlines()))
    replicas = [r for r in rows if r["row_kind"] == "replica"]
    aggregates = [r for r in rows if r["row_kind"] == "aggregate"]
    assert len(replicas) == 3 and len(aggregates) == 1

    D = Region.square(14.0).diameter
    for row in replicas:
        if row["failed"] == "True":
            assert row["completion_time"] == ""
            assert row["t_r_over_d"] == ""
        else:
            t = int(row["completion_time"])
            assert float(row["t_r_over_d"]) == pytest.approx(t * 4.0 / D)
            assert float(row["t_rho_over_d"]) == pytest.approx(t * 1.0 / D)
    agg = aggregates[0]
    med = sweep.points[0].median_completion()
    if not math.isnan(med):
        assert float(agg["median_t"]) == med
    assert float(agg["completion_fraction"]) == sweep.points[0].completion_fraction()


def test_failed_summary_write_keeps_the_earlier_summary(tmp_path, monkeypatch):
    # the writer fails once the header is written
    cfg = write(tmp_path, MINIMAL + "\n[experiment]\nreplicas = 2\nseed = 3\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    before = (out / "summary.csv").read_bytes()

    class HeaderOnly(csv.DictWriter):
        def writerow(self, row):
            if row["row_kind"] != "row_kind":
                raise OSError("no space left on device")
            return super().writerow(row)

    monkeypatch.setattr(cli, "csv", SimpleNamespace(DictWriter=HeaderOnly))
    assert main(["sweep", "--config", cfg, "--seed", "4", "--out", str(out)]) == EXIT_IO
    assert (out / "summary.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_run_ok(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "trace.ndjson").exists()
    assert "completion_time=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, size",
    [
        ("square", "96"),  # the last column is a 0.25-cell sliver below gamma
        ("disk", "27"),  # the rim cells below gamma hold agents
    ],
)
def test_main_run_counts_agents_in_uncovered_slivers(tmp_path, kind, size):
    text = (CONFIGS / "regularity.ini").read_text()
    text = text.replace("kind = square", f"kind = {kind}").replace("size = 48", f"size = {size}")
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    trace = (tmp_path / "out" / "trace.ndjson").read_text()
    rows = [json.loads(line) for line in trace.splitlines()]
    assert rows and all(isinstance(row["regular"], bool) for row in rows)


def test_main_config_error(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL + "voltage = 9\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_more_sources_than_agents(tmp_path, capsys):
    text = MINIMAL.replace("n = 40", "n = 2") + "sources = 1,1;2,2;3,3\n"
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "3 explicit sources but only 2 agents" in capsys.readouterr().err


def test_main_sweep_more_sources_than_agents(tmp_path, capsys):
    # rejected before any replica runs, so no summary is written
    text = MINIMAL.replace("n = 40", "n = 2") + "sources = 1,1;2,2;3,3\n"
    cfg = write(tmp_path, text + "\n[experiment]\nreplicas = 2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert "3 explicit sources but only 2 agents" in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.csv").exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_main_rejects_a_source_outside_the_region(tmp_path, capsys, verb):
    # the library raises GeometryError; the CLI exits 2 before any run
    cfg = write(tmp_path, MINIMAL + "sources = 50,50\n")
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "source points must lie inside the region" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize(
    "experiment",
    [
        "sweep_axis = k\nsweep_values = 1.5, 2.9",
        "sweep_axis = k\nsweep_values = nan",
        "sweep_axis = k\nsweep_values = inf",
        "sweep_axis = n\nsweep_values = 40, 1e400",
        "sweep_axis = k\nsweep_values = abc",
        "sweep_axis = speed\nsweep_values = 1",
        "replicas = abc",
        "sweep_values = 1, 2\nreplicas = 2",
    ],
)
def test_main_sweep_rejects_bad_experiment_values(tmp_path, capsys, experiment):
    # rejected before any replica runs, so no summary is written
    cfg = write(tmp_path, MINIMAL + f"\n[experiment]\n{experiment}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.csv").exists()


_CELLULAR_RHO_0 = MINIMAL + "\n[mobility]\nmode = cellular\nrho = 0\n"
# rho >= D: the supercell cover cannot be formed
_CELLULAR_RHO_40 = _CELLULAR_RHO_0.replace("size = 12", "size = 24").replace("rho = 0", "rho = 40")


@pytest.mark.parametrize(
    "verb, text, message",
    [
        # k beyond the int32 countdown, as a single run and as a sweep point
        ("run", MINIMAL + "k = 3000000000\n", "k must be an integer"),
        (
            "sweep",
            MINIMAL + "\n[experiment]\nsweep_axis = k\nsweep_values = 3000000000\n",
            "k must be an integer",
        ),
        ("run", _CELLULAR_RHO_0, "cellular mobility requires rho > 0"),
        ("sweep", _CELLULAR_RHO_0 + "\n[experiment]\nreplicas = 2\n", "requires rho > 0"),
        ("run", _CELLULAR_RHO_40, "degenerate grid"),
        ("audit", _CELLULAR_RHO_40, "degenerate grid"),
        ("sweep", _CELLULAR_RHO_40 + "\n[experiment]\nreplicas = 2\n", "degenerate grid"),
        # the base's cover forms, the L = 8 point's does not
        (
            "sweep",
            _CELLULAR_RHO_40.replace("rho = 40", "rho = 12")
            + "\n[experiment]\nsweep_axis = L\nsweep_values = 24, 8\n",
            "degenerate grid",
        ),
    ],
    ids=[
        "run-k",
        "sweep-k",
        "run-cellular-rho0",
        "sweep-cellular-rho0",
        "run-cellular-rho-over-d",
        "audit-cellular-rho-over-d",
        "sweep-cellular-rho-over-d",
        "sweep-point-cellular-rho-over-d",
    ],
)
def test_main_rejects_a_config_that_fails_only_inside_a_run(tmp_path, capsys, verb, text, message):
    # rejected before any run: no trace, no summary of failed replicas, and
    # no --out directory
    cfg = write(tmp_path, text)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_sweep_checks_the_regime_on_every_point(tmp_path, capsys):
    # sec3 needs rho <= R / (2 sqrt 2) = 2.12 at R = 6: the base rho and
    # rho = 2 pass, rho = 12 does not, so no replica runs
    text = MINIMAL.replace("r = 4.0", "r = 6.0") + "regime = sec3\n\n[mobility]\nrho = 1\n"
    cfg = write(tmp_path, text + "\n[experiment]\nsweep_axis = rho\nsweep_values = 2, 12\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert "regime sec3 requires rho" in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.csv").exists()
    cfg = write(tmp_path, text + "\n[experiment]\nsweep_axis = rho\nsweep_values = 1, 2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_OK
    # a base rho beyond the bound runs nowhere, so it is not checked
    base = text.replace("rho = 1\n", "rho = 12\n")
    cfg = write(tmp_path, base + "\n[experiment]\nsweep_axis = rho\nsweep_values = 1, 2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert len((tmp_path / "b" / "summary.csv").read_text().splitlines()) == 5
    # an L sweep under sec3, each point's n taken from its area
    assert parse_config(str(CONFIGS / "scaling.ini")).sweep_values == (32, 48, 64, 96)


@pytest.mark.parametrize("verb", ["run", "sweep", "isolated"])
def test_main_rejects_n_with_density_one(tmp_path, capsys, verb):
    cfg = write(tmp_path, MINIMAL.replace("n = 40", "n = 50\ndensity_one = true"))
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "takes n or density_one = true, not both" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []
    off = write(tmp_path, MINIMAL.replace("n = 40", "n = 50\ndensity_one = false"))
    assert parse_config(off).n == 50


@pytest.mark.parametrize("verb", ["run", "sweep", "isolated"])
def test_main_rejects_gamma_without_cell_side(tmp_path, capsys, verb):
    cfg = write(tmp_path, MINIMAL + "\n[instrumentation]\ngamma = 0.9\n")
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "gamma needs cell_side" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("key", ["cell_side", "gamma"])
def test_main_non_numeric_instrumentation_value(tmp_path, capsys, key):
    text = _with_value((CONFIGS / "regularity.ini").read_text(), key, "abc")
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: invalid config value" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["size", "r", "rho", "cell_side"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_non_finite_number(tmp_path, capsys, key, value):
    text = _with_value((CONFIGS / "regularity.ini").read_text(), key, value)
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.ndjson").exists()


def test_main_non_finite_cell_side_under_sec5(tmp_path, capsys):
    text = MINIMAL.replace("r = 4.0", "r = 2.0") + (
        "regime = sec5\n\n[mobility]\nmode = cellular\nrho = 12\n"
        "\n[instrumentation]\ncell_side = nan\n"
    )
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "cell_side must be finite" in capsys.readouterr().err


def test_main_negative_seed(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--seed", "-1", "--out", out]) == EXIT_CONFIG
    plan = write(tmp_path, MINIMAL + "\n[experiment]\nreplicas = 2\nseed = -2\n", "plan.ini")
    assert main(["sweep", "--config", plan, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("seed must be non-negative") == 2
    assert not (tmp_path / "out" / "trace.ndjson").exists()
    assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_main_isolated_needs_a_trial(tmp_path, capsys, trials):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["isolated", "--config", cfg, "--trials", trials, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--trials must be at least 1" in captured.err
    assert "mean_isolated" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "audit"])
def test_main_single_run_verbs_reject_a_plan(tmp_path, capsys, verb):
    text = MINIMAL + "\n[instrumentation]\ncell_side = 1.5\n"
    cfg = write(tmp_path, text + "\n[experiment]\nreplicas = 2\n")
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"{verb} verb needs a single-run config" in capsys.readouterr().err
    assert not out.exists()


_HUGE_GRIDS = {
    "cells": "[instrumentation]\ncell_side = 6",
    "supercells": "[mobility]\nmode = cellular\nrho = 8",
}


@pytest.mark.parametrize(
    "verb, grid",
    [("run", "cells"), ("audit", "cells")]
    + [(verb, "supercells") for verb in ("run", "audit", "sweep", "isolated")],
)
def test_main_rejects_a_grid_too_large_to_allocate(tmp_path, capsys, verb, grid):
    # a cell grid or a supercell grid over a region of side 1e9: an index box
    # of about 1e16 cells, rejected before any array over it is allocated
    text = MINIMAL.replace("size = 12", "size = 1e9") + f"\n{_HUGE_GRIDS[grid]}\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "index box" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "sweep", "isolated"])
def test_main_rejects_a_population_too_large_to_allocate(tmp_path, capsys, verb):
    # density one over a region of side 1e9 asks for about 1e18 agents,
    # rejected with the params, before --out is made
    text = MINIMAL.replace("size = 12", "size = 1e9").replace("n = 40", "density_one = true")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert str(epidemic._MAX_AGENTS) in capsys.readouterr().err
    assert not out.exists()


def test_main_expect_completion_failure(tmp_path):
    # two stationary agents, microscopic radius: the flood dies at step 1
    text = """\
[region]
kind = square
size = 100

[agents]
n = 2

[protocol]
r = 0.001
"""
    cfg = write(tmp_path, text)
    code = main(["run", "--config", cfg, "--expect-completion", "--out", str(tmp_path / "o")])
    assert code == EXIT_RUN_FAILURE


def test_main_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = write(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == EXIT_IO


def test_main_sweep_and_isolated(tmp_path, capsys):
    text = MINIMAL + "\n[experiment]\nreplicas = 2\nseed = 3\n"
    cfg = write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "s" / "summary.csv").read_text().splitlines()))
    assert len(rows) == 3

    assert main(["isolated", "--config", cfg, "--trials", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mean_isolated=" in out and "bound=" in out


def test_main_seed_flag_overrides(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"o{seed}"
        assert main(["run", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == EXIT_OK
        outs.append((out / "trace.ndjson").read_bytes())
    assert outs[0] != outs[1]


def test_main_audit_needs_cell_side(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    text = MINIMAL + "\n[instrumentation]\ncell_side = 1.5\ngamma = 1.0\n"
    cfg = write(tmp_path, text, name="audit.ini")
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    rows = [json.loads(line) for line in (tmp_path / "a" / "audit.ndjson").read_text().splitlines()]
    assert all(row["cells"] is not None for row in rows)
    assert all(row["regular"] in (True, False) for row in rows)


def test_main_audit_of_a_cellular_walk_prints_the_supercell_tally(tmp_path, capsys):
    # the cellular preset as a single run: no cell_side, so no cell dumps
    text = (CONFIGS / "speedup_rho24_cellular.ini").read_text()
    lines = text.splitlines(True)
    cfg = write(tmp_path, "".join(line for line in lines if not line.startswith("replicas")))
    out = tmp_path / "a"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in (out / "audit.ndjson").read_text().splitlines()]
    assert all(row["cells"] is None and row["regular"] is None for row in rows)

    params = parse_config(cfg)
    tally = Counter(configs=0)
    audit = SupercellAudit(params, tally)

    def step(snap, last):  # the preset moves first: the snapshot is audited
        tally["configs"] += 1
        audit(snap, snap.step >= 1)

    run(params, on_step=step)
    fields = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    assert capsys.readouterr().out == f"audit={out / 'audit.ndjson'} {fields}\n"
    assert tally["configs"] == len(rows) and tally["rule_a"] > 0 and tally["supercell_front"] > 0
    # the irregular state maps are accounted for by the condition counts
    assert tally["supercell_regular"] < tally["configs"]
    assert tally["supercell_unclassifiable"] + tally["black_by_open"] > 0


_SPREAD = ("white_spread", "red_spread", "red_saturation", "red_upper")


@pytest.mark.parametrize("order", ["move_then_transmit", "transmit_then_move"])
def test_main_audit_of_a_cellular_walk_checks_the_spread_bounds(tmp_path, capsys, order):
    # the cellular preset as a single run, with cells nested in its supercells
    lines = (CONFIGS / "speedup_rho24_cellular.ini").read_text().splitlines(True)
    text = "".join(line for line in lines if not line.startswith("replicas"))
    text = _with_value(text, "phase_order", order) + "\n[instrumentation]\ncell_side = 6\n"
    cfg = write(tmp_path, text)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    fields = capsys.readouterr().out.split()[1:]
    tally = {key: int(value) for key, value in (field.split("=") for field in fields)}
    spread = [f"{key}{tail}" for key in _SPREAD for tail in ("", "_missed")]
    # under either order the audit reads the configuration the transmission
    # acted on, so the spread bounds are rebuilt and no rule is missed
    assert set(spread) <= set(tally)
    assert all(tally[f"rule_{key}_missed"] == 0 for key in "abcde")
    supercells = len(covered_cells(build_supercell_grid(Region.square(96.0), 24.0)))
    # a pair spans a move, and under transmit_then_move steps 0 and 1 are
    # audited at the same (placement) positions
    first_pair = 2 if order == "transmit_then_move" else 1
    assert tally["red_upper"] == (tally["configs"] - first_pair) * supercells
    assert tally["red_upper_missed"] == 0
    # the preset's seed 400: the cell front (a low-mobility claim) misses
    # cells on the cellular walk under move_then_transmit, and none under
    # transmit_then_move
    pinned = {
        "move_then_transmit": dict(front=352, front_missed=74, red_upper=64, rule_a=17, skipped=6),
        "transmit_then_move": dict(front=224, front_missed=0, red_upper=64, rule_a=14, skipped=0),
    }
    assert {key: tally[key] for key in pinned[order]} == pinned[order]
    # the spread hypotheses need far denser populations than this scale has
    assert all(tally[key] == 0 for key in spread if not key.startswith("red_upper"))


@pytest.mark.parametrize(
    "r, n", [(1.0, 200), (6.0, 1)], ids=["r_at_most_one", "one_agent"]
)
def test_main_audit_of_a_cellular_walk_needs_a_state_ladder(tmp_path, capsys, monkeypatch, r, n):
    # h_hat needs R > 1 and ln n > 0: a config error before placement and
    # before --out is made
    text = f"[region]\nkind = square\nsize = 48\n\n[agents]\nn = {n}\n\n[protocol]\nr = {r}\n"
    cfg = write(tmp_path, text + "\n[mobility]\nmode = cellular\nrho = 12\n")
    placed = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: placed.append(args))
    out = tmp_path / "a"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: h_hat" in capsys.readouterr().err
    assert placed == [] and not out.exists()


def test_main_cellular_audit_forms_one_supercell_grid(tmp_path, monkeypatch):
    # the walk, the same-supercell kernel, placement and the supercell
    # audit all read the grid that parsing formed, through the epidemic
    # module's binding; every supercell grid is a side-rho cell grid.
    # Parsing applies --seed before it forms the grid.
    text = (CONFIGS / "speedup_rho24_cellular.ini").read_text()
    lines = text.splitlines(True)
    cfg = write(tmp_path, "".join(line for line in lines if not line.startswith("replicas")))
    formed, cells = [], []
    for owner, name, calls in (
        (epidemic, "build_supercell_grid", formed),
        (mobility, "build_cell_grid", cells),
    ):
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, b=build, c=calls: c.append(a) or b(*a))
    for seed in ([], ["--seed", "7"]):
        formed.clear(), cells.clear()
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a"), *seed]) == EXIT_OK
        assert len(formed) == len(cells) == 1


@pytest.mark.parametrize(
    "verb, flag, dumped",
    [
        ("audit", [], "each"),
        ("audit", ["--dump-cells", "never"], "never"),
        ("audit", ["--dump-cells", "final"], "final"),
        ("run", [], "never"),
    ],
)
def test_main_dump_cells_default_and_explicit(tmp_path, verb, flag, dumped):
    cfg = write(tmp_path, MINIMAL + "\n[instrumentation]\ncell_side = 1.5\ngamma = 1.0\n")
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "a"), *flag]) == EXIT_OK
    name = "audit.ndjson" if verb == "audit" else "trace.ndjson"
    rows = [json.loads(line) for line in (tmp_path / "a" / name).read_text().splitlines()]
    assert len(rows) > 2 and all(row["regular"] in (True, False) for row in rows)
    has_cells = [row["cells"] is not None for row in rows]
    last = dumped != "never"
    assert has_cells == [dumped == "each"] * (len(rows) - 1) + [last]


@pytest.mark.parametrize("dump", ["each", "final", "never"])
def test_main_run_dump_cells_needs_cell_side(tmp_path, capsys, dump):
    # a dump needs cells; an explicit never stays a plain run
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "a"
    code = main(["run", "--config", cfg, "--out", str(out), "--dump-cells", dump])
    if dump == "never":
        assert code == EXIT_OK and (out / "trace.ndjson").exists()
        return
    assert code == EXIT_CONFIG
    assert f"--dump-cells {dump} needs [instrumentation] cell_side" in capsys.readouterr().err
    assert not (out / "trace.ndjson").exists()


@pytest.mark.parametrize("verb", ["sweep", "isolated"])
@pytest.mark.parametrize("flag", [["--format", "csv"], ["--dump-cells", "each"]])
def test_main_trace_flags_only_for_run_and_audit(tmp_path, verb, flag):
    cfg = write(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", cfg, "--out", str(tmp_path / "s"), *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# the process's malloc policy
# ---------------------------------------------------------------------------

_VERB_CONFIG = MINIMAL + "\n[instrumentation]\ncell_side = 1.5\n"


def _main_outputs(tmp_path, verb, name):
    """Exit code, stdout and output file bytes of ``main`` running ``verb``."""
    cfg = write(tmp_path, _VERB_CONFIG)
    out = tmp_path / name
    args = [verb, "--config", cfg, "--seed", "4", "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args + (["--trials", "2"] if verb == "isolated" else []))
    files = {p.name: p.read_bytes() for p in out.glob("*")}
    return code, stdout.getvalue().replace(str(out), "<out>"), files


@pytest.mark.parametrize("verb", ["run", "sweep", "audit", "isolated"])
def test_main_sets_the_malloc_policy_first(tmp_path, monkeypatch, verb):
    # mmap threshold 32 MiB, then trim threshold 1 GiB (glibc's M_MMAP_THRESHOLD
    # is -3, M_TRIM_THRESHOLD -1), before main parses its arguments
    events = []
    libc = SimpleNamespace(mallopt=lambda param, value: events.append(("mallopt", param, value)))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: events.append("parser") or build())
    code, _, files = _main_outputs(tmp_path, verb, "o")
    assert code == EXIT_OK and (files or verb == "isolated")
    assert events == [("mallopt", -3, 32 << 20), ("mallopt", -1, 1 << 30), "parser"]


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("verb", ["run", "sweep", "audit", "isolated"])
@pytest.mark.parametrize(
    "cdll", [_no_library, lambda name: object()], ids=["oserror", "no_mallopt"]
)
def test_main_without_mallopt_gives_the_same_outputs(tmp_path, monkeypatch, verb, cdll):
    expected = _main_outputs(tmp_path, verb, "with")
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert _main_outputs(tmp_path, verb, "without") == expected


# ---------------------------------------------------------------------------
# pinned outputs: a refactor that leaves the RNG stream alone leaves these
# bytes alone
# ---------------------------------------------------------------------------

_PINNED_TRACES = {
    "ndjson": "1acd8d7a445d7aab209f9aaa47fb7f5b6f257cc0c15d9342611615c8ffeddd95",
    "csv": "8be06bc248743d2ecff597b59ba2475c31466a4eee58636efb99efac21c932ae",
}

# a single run of the rho = 12 speed-up preset at k = 2: a wide front, so
# that the euclidean kernel's second stage and its distance ties are used
_PINNED_WIDE_FRONT = "e1e62a6169471030ccbcdc2df938a5d09fe9cf33113eff1a048763db82e88137"

_PINNED_SWEEP = "76afa107724d95de87250dd132e7b20eca85223e816e0374f122217141961cc5"

# the audit of CI's disk config: rim cells short of gamma, empty cells, and
# uncovered cells in the index box
_PINNED_DISK_AUDIT = {
    "ndjson": "cc1c2b56098d76c2761120cded2fe35e8cd5f894409a7734d775570d8c67c9d1",
    "csv": "58a71161be70e2c3b6c61590eb02d17f32f7aa1599ccf68b221613b612e9985a",
}

DISK_AUDIT = """\
[region]
kind = disk
size = 16

[agents]
n = 800

[protocol]
r = 4

[mobility]
rho = 1

[instrumentation]
cell_side = 1.5
gamma = 0.5
"""

SAME_SUPERCELL_SWEEP = """\
[region]
kind = square
size = 48

[agents]
density_one = true

[protocol]
r = 3
phase_order = move_then_transmit
transmission_scope = same_supercell

[mobility]
mode = cellular
rho = 12

[experiment]
replicas = 2
seed = 5
"""


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_run_trace_bytes_are_pinned(tmp_path, fmt):
    cfg = str(CONFIGS / "regularity.ini")
    out = tmp_path / "o"
    args = ["run", "--config", cfg, "--seed", "3", "--dump-cells", "each"]
    assert main(args + ["--format", fmt, "--out", str(out)]) == EXIT_OK
    assert _sha256(out / f"trace.{fmt}") == _PINNED_TRACES[fmt]


def test_wide_front_trace_bytes_are_pinned(tmp_path):
    text = (CONFIGS / "speedup_rho12.ini").read_text()
    assert text.count("replicas = 30\n") == text.count("k = 1\n") == 1
    cfg = write(tmp_path, text.replace("replicas = 30\n", "").replace("k = 1\n", "k = 2\n"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert _sha256(out / "trace.ndjson") == _PINNED_WIDE_FRONT


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_disk_audit_bytes_are_pinned(tmp_path, fmt):
    cfg = write(tmp_path, DISK_AUDIT)
    out = tmp_path / "o"
    args = ["audit", "--config", cfg, "--seed", "3"]
    assert main(args + ["--format", fmt, "--out", str(out)]) == EXIT_OK
    assert _sha256(out / f"audit.{fmt}") == _PINNED_DISK_AUDIT[fmt]


def test_sweep_summary_bytes_are_pinned(tmp_path):
    cfg = write(tmp_path, SAME_SUPERCELL_SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_OK
    assert _sha256(tmp_path / "s" / "summary.csv") == _PINNED_SWEEP
