"""Configuration parsing, run orchestration, and deterministic serialization.

Config files are INI-style with sections [region], [agents], [protocol],
[mobility], [instrumentation] and optionally [experiment].  Unknown keys and
duplicate keys are hard errors.  All randomness flows from the config seed,
which ``--seed`` overrides.

CLI verbs: ``run`` (single run), ``sweep`` (experiment plan), ``audit``
(per-step instrument checks and per-cell dumps), ``isolated`` (isolated-agent
experiment).  Exit codes: 0 success, 2 config error, 3 run failure with
--expect-completion, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import instrument
from .epidemic import RunRecord, SimParams, Snapshot, run
from .errors import ConfigurationError, RedwaveError
from .experiments import ExperimentPlan, SweepResult, density_one_n, replicate
from .experiments import isolated_bound, isolated_count
from .geometry import Region, build_cell_grid
from .mobility import MobilityMode, RngStream

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILURE = 3
EXIT_IO = 4

_SCHEMA = {
    "region": {"kind", "size"},
    "agents": {"n", "density_one"},
    "protocol": {
        "r",
        "k",
        "phase_order",
        "transmission_scope",
        "sources",
        "max_steps",
        "regime",
    },
    "mobility": {"mode", "rho"},
    "instrumentation": {"cell_side", "gamma"},
    "experiment": {"sweep_axis", "sweep_values", "replicas", "seed"},
}


def _fmt(x) -> str:
    """Serialize a number with 17 significant digits (bit-exact round trip)."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _validate_keys(cp: configparser.ConfigParser) -> None:
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")


def _check_regime(regime: str, params: SimParams, cell_side: float | None) -> None:
    """Enforce the declared parameter regime's guards."""
    R, rho = params.R, params.mobility.rho
    if regime == "sec3":
        if rho > R / (2 * math.sqrt(2)) * (1 + 1e-12):
            raise ConfigurationError(
                f"regime sec3 requires rho <= R/(2*sqrt(2)) = {R / (2 * math.sqrt(2)):g}, got {rho:g}"
            )
    elif regime == "sec4":
        upper = params.R**2 / math.sqrt(math.log(params.n)) if params.n > 1 else math.inf
        if not (R / 2 <= rho * (1 + 1e-12) and rho <= upper * (1 + 1e-12)):
            raise ConfigurationError(
                f"regime sec4 requires R/2 <= rho <= R^2/sqrt(log n), got rho={rho:g}"
            )
    elif regime == "sec5":
        if rho < 5 * R * (1 - 1e-12):
            raise ConfigurationError(f"regime sec5 requires rho >= 5R, got rho={rho:g}")
        if cell_side is not None:
            ratio = rho / cell_side
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigurationError(
                    "regime sec5 requires rho to be an integer multiple of the cell side"
                )
        if params.mobility.kind != "cellular":
            raise ConfigurationError("regime sec5 requires cellular mobility")
    else:
        raise ConfigurationError(f"unknown regime {regime!r}")


def _read_config(path: str) -> tuple[configparser.ConfigParser, dict[str, float]]:
    """Read and key-check a config file; also return its [instrumentation]
    section as floats.  Every failure is a ConfigurationError."""
    # option names are read lower-cased: ``R = 6`` sets ``r``
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
        _validate_keys(cp)
        opts = {}
        if cp.has_section("instrumentation"):
            for key in cp["instrumentation"]:
                opts[key] = cp.getfloat("instrumentation", key)
                if not math.isfinite(opts[key]):
                    raise ConfigurationError(f"[instrumentation] {key} must be finite")
            if "gamma" in opts and "cell_side" not in opts:
                raise ConfigurationError("[instrumentation] gamma needs cell_side")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc
    return cp, opts


def parse_config(path: str, seed: int | None = None):
    """Parse and validate a config file; a ``seed`` replaces the config's.

    Returns a SimParams, or an ExperimentPlan when an [experiment] section is
    present.
    """
    cp, opts = _read_config(path)

    try:
        region = Region(cp.get("region", "kind"), cp.getfloat("region", "size"))
        mode = cp.get("mobility", "mode", fallback=SimParams.mobility.kind)
        rho = cp.getfloat("mobility", "rho", fallback=SimParams.mobility.rho)
        mobility = MobilityMode(mode, rho)

        density_one = cp.getboolean("agents", "density_one", fallback=False)
        if density_one and cp.has_option("agents", "n"):
            raise ConfigurationError("[agents] takes n or density_one = true, not both")
        if density_one:
            n = density_one_n(region)
        else:
            n = cp.getint("agents", "n")

        sources: object = cp.get("protocol", "sources", fallback=SimParams.sources)
        if isinstance(sources, str) and sources != "random":
            pts = []
            for part in sources.split(";"):
                x, y = part.split(",")
                pts.append((float(x), float(y)))
            sources = pts

        params = SimParams(
            region=region,
            n=n,
            R=cp.getfloat("protocol", "r"),
            k=cp.getint("protocol", "k", fallback=SimParams.k),
            mobility=mobility,
            phase_order=cp.get("protocol", "phase_order", fallback=SimParams.phase_order),
            transmission_scope=cp.get(
                "protocol", "transmission_scope", fallback=SimParams.transmission_scope
            ),
            sources=sources,
            seed=cp.getint("experiment", "seed", fallback=SimParams.seed),
            max_steps=cp.getint("protocol", "max_steps", fallback=SimParams.max_steps),
        )
        if seed is not None:  # before any supercell grid forms
            params = replace(params, seed=seed)

        parsed, runs = params, [params]
        is_plan = cp.has_section("experiment") and any(
            cp.has_option("experiment", key)
            for key in ("sweep_axis", "sweep_values", "replicas")
        )
        if is_plan:
            axis = cp.get("experiment", "sweep_axis", fallback=None)
            values: tuple = ()
            if cp.has_option("experiment", "sweep_values"):
                values = tuple(float(v) for v in cp.get("experiment", "sweep_values").split(","))
            parsed = ExperimentPlan(
                base=params,
                sweep_axis=axis,
                sweep_values=values,
                replicas=cp.getint("experiment", "replicas", fallback=ExperimentPlan.replicas),
                density_one=density_one,
            )
            # a sweep runs its points, never its base
            runs = parsed.points()

        regime = cp.get("protocol", "regime", fallback=None)
        for point in runs:
            if regime is not None:
                _check_regime(regime, point, opts.get("cell_side"))
            point.sgrid  # a supercell cover that cannot be formed is a config error
        return parsed
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc


def instrumentation_options(path: str) -> dict:
    """The [instrumentation] section as a plain dict of floats."""
    return _read_config(path)[1]


# ---------------------------------------------------------------------------
# trace and summary emission
# ---------------------------------------------------------------------------

_TRACE_FIELDS = [
    "schema",
    "step",
    "white",
    "red",
    "black",
    "regular",
    "max_wavefront",
    "mean_wavefront",
    "cells",
]


_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# each int8 cell code's dump text after a key, '":"state"' (a code is its CellState's position)
_CELL_SLOTS = np.array(['":' + _json(s.value) for s in instrument.CellState], dtype=object)
_WHITE_CELL = instrument.CELL_CODE[instrument.CellState.WHITE]


def _trace_row(snap: Snapshot, audit: tuple | None, dump: tuple | None) -> dict:
    """One trace row: the agent counts of ``snap``, the instrument columns
    of its cell ``audit``'s result, if any, and with ``dump`` its cell dump."""
    w, r, b = snap.counts()
    row = dict(dict.fromkeys(_TRACE_FIELDS), schema=SCHEMA_VERSION, step=snap.step)
    row.update(white=w, red=r, black=b)
    if audit is not None:
        states, row["regular"], dist = audit
        dists = dist[(states == _WHITE_CELL) & np.isfinite(dist)]
        if dists.size:
            row["max_wavefront"] = float(dists.max())
            row["mean_wavefront"] = float(np.mean(dists))
        if dump is not None:
            row["cells"] = _cells_text(states, dump)
    return row


def _cells_text(states: np.ndarray, dump: tuple) -> str:
    """The ``_json`` text of a state grid's ``"c,r" -> state name`` map."""
    pieces, cells = dump
    pieces[2::3] = _CELL_SLOTS.take(states.take(cells)).tolist()
    return "{" + "".join(pieces)[1:] + "}"


def _dump_keys(grid) -> tuple[list, np.ndarray]:
    """The cell dump's text pieces in the key order of JSON sort_keys, ',"',
    "c,r" (no key needs escaping) and a slot each step fills, and the
    covered cells' flat box indices in that order.  As "," sorts below every
    digit, that order is the product of each axis's order as strings."""
    width, height = grid.mask.shape
    cols, rows = (np.array(sorted(range(m), key=str)) for m in (width, height))
    flat = np.add.outer(cols * height, rows).ravel()
    covered = grid.mask.ravel()[flat]
    text = np.add.outer(
        np.array([f"{c}," for c in cols], dtype=object), np.array(rows.astype(str), dtype=object)
    ).ravel()[covered]
    pieces = [',"', None, None] * len(text)
    pieces[1::3] = text.tolist()
    return pieces, flat[covered]


def trace_run(
    params: SimParams, grid, dump_cells: str, write, supercells: bool = False
) -> tuple[RunRecord, Counter]:
    """Run once; each step's trace row goes to ``write`` from the step's
    hook.  With a grid the steps are audited by cells and the rows carry
    the instrument columns, and per-cell states on every step (``"each"``)
    or on the last (``"final"``); with ``supercells`` a cellular walk is
    also audited by supercells, and by the spread bounds where the grid
    allows (see ``instrument.SupercellAudit``).  Both audits and the cell
    columns read the configuration that each step's transmission acted on:
    the snapshot under ``move_then_transmit``, and under
    ``transmit_then_move`` the step before's positions with this step's
    states (at step 0, the snapshot).  They judge a step against the step
    before where a move and a transmission lie between the two, from step
    1 (step 2 under ``transmit_then_move``).  Returns the record and tally."""
    tally = Counter(configs=0)  # the steps audited
    cells = instrument.CellAudit(grid, tally) if grid is not None else None
    cellular = supercells and params.mobility.kind == "cellular"
    ladder = instrument.SupercellAudit(params, tally, grid) if cellular else None
    keys = _dump_keys(grid) if grid is not None and dump_cells != "never" else None
    lagged = params.phase_order == "transmit_then_move" and (grid is not None or cellular)
    # the step before's positions, kept where an audit reads them: the
    # engine replaces the positions array each step and never writes it,
    # so none is copied
    before: list[np.ndarray] = []

    def on_step(snap: Snapshot, last: bool) -> None:
        tally["configs"] += 1
        audited = replace(snap, positions=before.pop()) if before else snap
        if lagged:
            before.append(snap.positions)
        # a pair spans a move; under transmit_then_move steps 0 and 1 share positions
        paired = snap.step >= (2 if lagged else 1)
        if ladder is not None:
            ladder(audited, paired)
        audit = cells(audited, paired) if cells is not None else None
        write(_trace_row(audited, audit, keys if last or dump_cells == "each" else None))

    return run(params, on_step=on_step), tally


@contextmanager
def _replacing(path: str, what: str):
    """Yield a text file that replaces ``path`` only if the block ends
    without an error, so a failed write leaves an earlier file untouched.
    Makes the file's directory first, so that a call that writes no file
    makes none."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@contextmanager
def trace_writer(fmt: str, path: str):
    """Yield a function writing one trace row; identical rows give
    byte-identical files.  The rows replace ``path`` only if the block ends
    without an error, so a failed run leaves an earlier trace untouched."""
    if fmt not in ("ndjson", "csv"):
        raise ConfigurationError(f"unknown trace format {fmt!r}")
    with _replacing(path, "trace") as fh:
        if fmt == "ndjson":
            yield lambda row: fh.write(_json_row(row) + "\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=_TRACE_FIELDS, lineterminator="\n")
            writer.writeheader()
            yield lambda row: writer.writerow(_csv_row(row))


def _json_row(row: dict) -> str:
    """``_json(row)``, with a cell dump's JSON text spliced in."""
    cells = row["cells"] or "null"
    return _json(dict(row, cells=None)).replace('"cells":null', f'"cells":{cells}', 1)


def _csv_row(row: dict) -> dict:
    out = dict(row)
    for key in ("max_wavefront", "mean_wavefront"):
        if out[key] is not None:
            out[key] = _fmt(float(out[key]))
    return out


def emit_trace(rows, fmt: str, path: str) -> None:
    """Write the per-step trace rows, byte-identical for identical runs."""
    with trace_writer(fmt, path) as write:
        for row in rows:
            write(row)


_SUMMARY_FIELDS = [
    "row_kind",
    "point",
    "replica",
    "seed",
    "L",
    "n",
    "R",
    "rho",
    "k",
    "completion_time",
    "failed",
    "failed_at",
    "t_r_over_d",
    "t_rho_over_d",
    "median_t",
    "completion_fraction",
]


def _summary_row(kind: str, p_idx: int, params: SimParams, t) -> dict:
    """The fields that the replica and aggregate rows of a sweep point share,
    for completion time ``t``: its ratios are blank when ``t`` is None or
    nan, and the rho ratio also at rho = 0."""
    D, rho = params.region.diameter, params.mobility.rho
    done = t is not None and not math.isnan(t)
    return {
        "row_kind": kind,
        "point": p_idx,
        "L": _fmt(params.region.size),
        "n": params.n,
        "R": _fmt(params.R),
        "rho": _fmt(rho),
        "k": params.k,
        "t_r_over_d": _fmt(t * params.R / D) if done else "",
        "t_rho_over_d": _fmt(t * rho / D) if done and rho != 0 else "",
    }


def emit_summary(sweep: SweepResult, path: str) -> None:
    """One CSV row per (sweep point, replica), plus one aggregate row per
    point.  Failed runs carry the failure step and a flag, never a fake
    completion time; fields a row does not set are blank.  The rows
    replace ``path`` only once all are written."""
    with _replacing(path, "summary") as fh:
        writer = csv.DictWriter(fh, _SUMMARY_FIELDS, restval="", lineterminator="\n")
        writer.writeheader()
        for p_idx, point in enumerate(sweep.points):
            params = point.params
            for r_idx, (t, f) in enumerate(zip(point.completion_times, point.failures)):
                row = _summary_row("replica", p_idx, params, t)
                row.update(replica=r_idx, seed=params.seed + r_idx, completion_time=t)
                row.update(failed=t is None, failed_at=f)  # None is written blank
                writer.writerow(row)
            med = point.median_completion()
            row = _summary_row("aggregate", p_idx, params, med)
            row["median_t"] = "" if math.isnan(med) else _fmt(med)
            row["completion_fraction"] = _fmt(point.completion_fraction())
            writer.writerow(row)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="redwave")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "audit", "isolated"):
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=".")
        if verb in ("run", "audit"):
            sp.add_argument("--format", choices=["csv", "ndjson"], default="ndjson")
            # default: each for audit, never for run
            sp.add_argument("--dump-cells", choices=["never", "each", "final"])
        if verb == "run":
            sp.add_argument("--expect-completion", action="store_true")
        if verb == "isolated":
            sp.add_argument("--trials", type=int, default=1)
    return parser


def _instrument_grid(params: SimParams, opts: dict):
    side = opts.get("cell_side")
    if side is None:
        return None
    gamma = opts.get("gamma", 0.3)
    return build_cell_grid(params.region, side, gamma)


# glibc's mallopt parameters (malloc.h); 32 MiB is the 64-bit maximum mmap
# threshold, and 1 GiB is far above any run's working set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30))


def _keep_freed_memory() -> None:
    """Keep the memory a step frees in the process for the next step.

    Under glibc's default policy a step's n-sized arrays are fresh mmaps,
    and freed heap goes back to the kernel, so each step faults the same
    pages in again.  With the policy they come from the heap, which keeps
    what they free.  Either setting alone turns off glibc's dynamic mmap
    threshold and measured slower, so both are set.  Where the C library or
    its ``mallopt`` cannot be loaded (macOS, Windows) nothing changes;
    musl's ``mallopt`` does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_POLICY:
        mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        parsed = parse_config(args.config, args.seed)
        opts = instrumentation_options(args.config)
    except RedwaveError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.verb in ("run", "audit"):
            if isinstance(parsed, ExperimentPlan):
                print(f"config error: {args.verb} verb needs a single-run config", file=sys.stderr)
                return EXIT_CONFIG
            audit = args.verb == "audit"
            grid = _instrument_grid(parsed, opts)
            # a cellular walk is audited by supercells, a standard walk by cells
            by_cells = audit and parsed.mobility.kind != "cellular"
            dump = args.dump_cells or ("each" if audit and grid is not None else "never")
            if grid is None and (by_cells or dump != "never"):
                need = "audit" if by_cells else f"--dump-cells {dump}"
                print(f"config error: {need} needs [instrumentation] cell_side", file=sys.stderr)
                return EXIT_CONFIG
            if audit and not by_cells:  # the state ladder exists before --out is made
                instrument.h_hat(parsed.R, parsed.mobility.rho, parsed.n)
            out = os.path.join(args.out, f"{'audit' if audit else 'trace'}.{args.format}")
            with trace_writer(args.format, out) as write:
                rec, tally = trace_run(parsed, grid, dump, write, supercells=audit)
            if audit:
                print(" ".join([f"audit={out}"] + [f"{k}={v}" for k, v in sorted(tally.items())]))
            else:
                print(
                    f"completion_time={rec.completion_time} failed_at={rec.failed_at} "
                    f"trace={out}"
                )
                if args.expect_completion and rec.completion_time is None:
                    return EXIT_RUN_FAILURE
        elif args.verb == "sweep":
            if not isinstance(parsed, ExperimentPlan):
                parsed = ExperimentPlan(base=parsed, density_one=False)
            result = replicate(parsed)
            out = os.path.join(args.out, "summary.csv")
            emit_summary(result, out)
            print(f"summary={out}")
        elif args.verb == "isolated":
            if isinstance(parsed, ExperimentPlan):
                parsed = parsed.base
            if args.trials < 1:
                raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
            total = 0
            for trial in range(args.trials):
                gen = RngStream(parsed.seed + trial).generator()
                total += isolated_count(parsed.n, parsed.R, parsed.region, gen)
            bound = isolated_bound(parsed.n, parsed.R)
            print(f"mean_isolated={_fmt(total / args.trials)} bound={_fmt(bound)}")
    except RedwaveError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
