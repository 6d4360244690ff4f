"""Config files, trace/summary emission, and the command-line entry point."""

import csv
import json
import math
from pathlib import Path

import pytest

from redwave import cli
from redwave.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_RUN_FAILURE,
    emit_config,
    emit_summary,
    emit_trace,
    main,
    parse_config,
    trace_run,
)
from redwave.epidemic import SimParams, run
from redwave.errors import ConfigurationError
from redwave.experiments import ExperimentPlan, replicate
from redwave.geometry import Region, build_cell_grid
from redwave.instrument import classify_cells
from redwave.mobility import MobilityMode

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
    assert params.burn_in == 0


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


def test_redwave_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REDWAVE_SEED", "777")
    params = parse_config(write(tmp_path, MINIMAL))
    assert params.seed == 777


def test_config_round_trip(tmp_path):
    params = SimParams(
        region=Region.square(17.5),
        n=33,
        R=2.75,
        k=2,
        mobility=MobilityMode.standard(0.625),
        sources=[(1.25, 2.5)],
        seed=11,
        burn_in=7,
    )
    path = str(tmp_path / "emitted.ini")
    emit_config(params, path)
    assert parse_config(path) == params


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
    rows = [json.loads(line) for line in open(path)]
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
    assert open(a, "rb").read() == open(b, "rb").read()


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
    jrows = [json.loads(line) for line in open(pj)]
    crows = list(csv.DictReader(open(pc)))
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        for key in ("step", "white", "red", "black"):
            assert j[key] == int(c[key])


def test_trace_cells_dump_matches_cell_maps():
    # a square whose last row and column are uncovered slivers
    region = Region.square(13.0)
    grid = build_cell_grid(region, 2.0, gamma=0.6)
    p = SimParams(region=region, n=150, R=2.0, mobility=MobilityMode.standard(1.0), seed=5)
    maps = []
    run(
        p,
        on_step=lambda s: maps.append(
            {f"{c},{r}": v.value for (c, r), v in classify_cells(s, grid).items()}
        ),
    )
    assert [row["cells"] for row in _trace_rows(p, grid, "each")] == maps
    final = [row["cells"] for row in _trace_rows(p, grid, "final")]
    assert final == [None] * (len(maps) - 1) + maps[-1:]


def test_trace_unknown_format(tiny_rows, tmp_path):
    with pytest.raises(ConfigurationError):
        emit_trace(tiny_rows, "yaml", str(tmp_path / "t.yaml"))
    assert not (tmp_path / "t.yaml").exists()


def test_trace_rows_stream_to_the_writer(monkeypatch):
    # row t reaches the writer once step t + 1 has ended (the last row once
    # the run has)
    ended = []
    real_run = cli.run

    def counting_run(params, on_step):
        return real_run(params, on_step=lambda s: (ended.append(s.step), on_step(s)))

    monkeypatch.setattr(cli, "run", counting_run)
    p = SimParams(
        region=Region.square(10.0), n=30, R=3.0,
        mobility=MobilityMode.standard(1.0), seed=8,
    )
    written = []
    rec = trace_run(p, None, "never", lambda row: written.append((row["step"], len(ended))))
    last = rec.steps_run()
    assert written == [(t, t + 2) for t in range(last)] + [(last, last + 1)]


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
def test_failed_run_keeps_the_earlier_trace(tmp_path, verb):
    # the source lies outside the region, which only the engine detects,
    # after the trace has been opened
    out = tmp_path / "out"
    good = write(tmp_path, MINIMAL + "\n[instrumentation]\ncell_side = 3.0\n")
    assert main([verb, "--config", good, "--out", str(out)]) == EXIT_OK
    trace = out / f"{'audit' if verb == 'audit' else 'trace'}.ndjson"
    before = trace.read_bytes()
    bad = write(
        tmp_path,
        MINIMAL + "sources = 20.0,20.0\n\n[instrumentation]\ncell_side = 3.0\n",
        "bad.ini",
    )
    assert main([verb, "--config", bad, "--out", str(out)]) == EXIT_CONFIG
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
    rows = list(csv.DictReader(open(path)))
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
    rows = [json.loads(line) for line in (tmp_path / "out" / "trace.ndjson").open()]
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


@pytest.mark.parametrize("key", ["cell_side", "gamma"])
def test_main_non_numeric_instrumentation_value(tmp_path, capsys, key):
    text = (CONFIGS / "regularity.ini").read_text()
    text = "\n".join(
        f"{key} = abc" if line.startswith(f"{key} =") else line for line in text.splitlines()
    )
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: invalid config value" in capsys.readouterr().err


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
    rows = list(csv.DictReader(open(tmp_path / "s" / "summary.csv")))
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
    rows = [json.loads(line) for line in open(tmp_path / "a" / "audit.ndjson")]
    assert all(row["cells"] is not None for row in rows)
    assert all(row["regular"] in (True, False) for row in rows)
