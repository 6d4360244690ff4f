"""Output checks of one execution, and the probe that captures what they need.

The probe wraps the functions the CLI calls so that the checks can read the
``RunRecord`` of every run, the ``SweepResult`` of a sweep, the agents of an
isolated-agent scan and the states around a few sampled steps. It copies
what it keeps, so the checks run after the timed call and do not slow it.
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from redwave import cli, epidemic, experiments

WHITE, RED = epidemic.WHITE, epidemic.RED

# steps of each execution's first run whose newly informed set is recomputed
SAMPLED_STEPS = (1, 2)
# agents of the first isolated-agent trial checked against all others
ISOLATED_SAMPLE = 256
_CHUNK = 1024


class Probe:
    def __init__(self) -> None:
        self.runs: list[dict] = []
        self.errors: list[str | None] = []  # one per replica of a sweep
        self.steps: list[dict] = []
        self.isolated_counts: list[int] = []
        self.isolated_first: tuple[np.ndarray, np.ndarray, float] | None = None

    def install(self) -> None:
        for owner in (cli, experiments):
            owner.run = self._capture_run(owner.run)
        cli.replicate = self._capture_sweep(cli.replicate)
        experiments.isolated_indices = self._capture_isolated(experiments.isolated_indices)
        epidemic.Engine.step = self._sample_step(epidemic.Engine.step)

    def _capture_run(self, run):
        def captured(params, *args, **kwargs):
            rec = run(params, *args, **kwargs)
            snaps = rec.snapshots or []
            self.runs.append(
                {
                    "n": params.n,
                    "completion_time": rec.completion_time,
                    "steps": rec.steps_run(),
                    "white": list(rec.series.white),
                    "red": list(rec.series.red),
                    "black": list(rec.series.black),
                    "chain_violations": rec.chain_violations,
                    "snapshot_bytes": sum(
                        a.nbytes
                        for s in snaps
                        for a in (s.positions, s.states, s.countdown, s.informed_at, s.informer, s.chain_origin)
                    ),
                }
            )
            return rec

        return captured

    def _capture_sweep(self, replicate):
        def captured(plan, *args, **kwargs):
            result = replicate(plan, *args, **kwargs)
            for point in result.points:
                self.errors.extend(point.errors)
            return result

        return captured

    def _capture_isolated(self, isolated_indices):
        def captured(positions, R):
            idx = isolated_indices(positions, R)
            if self.isolated_first is None:
                self.isolated_first = (positions.copy(), np.array(idx), R)
            self.isolated_counts.append(len(idx))
            return idx

        return captured

    def _sample_step(self, step):
        def sampled(engine):
            t = engine.snapshot.step + 1
            if self.runs or t not in SAMPLED_STEPS:
                return step(engine)
            pre_positions = engine.snapshot.positions.copy()
            pre_states = engine.snapshot.states.copy()
            snap = step(engine)
            moved_first = engine.params.phase_order == "move_then_transmit"
            self.steps.append(
                {
                    "step": t,
                    "params": engine.params,
                    # positions at the time of the transmission phase
                    "positions": snap.positions.copy() if moved_first else pre_positions,
                    "before": pre_states,
                    "after": snap.states.copy(),
                }
            )
            return snap

        return sampled


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_runs(runs: list[dict]) -> list[str]:
    """Every step conserves agents, black never decreases, every run
    completes, and no informing chain outruns the maximum speed."""
    out = []
    for i, r in enumerate(runs):
        w, red, b = (np.asarray(r[k]) for k in ("white", "red", "black"))
        if not np.all(w + red + b == r["n"]):
            out.append(f"run {i}: white + red + black != n")
        if np.any(np.diff(b) < 0):
            out.append(f"run {i}: black count decreased")
        if r["completion_time"] is None:
            out.append(f"run {i}: flood did not complete")
        if r["chain_violations"]:
            out.append(f"run {i}: {r['chain_violations']} chain-speed violations")
    return out


def _within(points: np.ndarray, centres: np.ndarray, R: float) -> np.ndarray:
    """All-pairs: which points lie within closed distance R of some centre."""
    hit = np.zeros(len(points), dtype=bool)
    r2 = R * R * (1 + 1e-12)
    for a in range(0, len(points), _CHUNK):
        diff = points[a : a + _CHUNK, None, :] - centres[None, :, :]
        d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
        hit[a : a + _CHUNK] = (d2 <= r2).any(axis=1)
    return hit


def check_steps(steps: list[dict]) -> list[str]:
    """The newly informed set of each sampled step equals an all-pairs
    recomputation from the states at the start of the step."""
    if not steps:
        return ["no step was sampled"]
    out = []
    for s in steps:
        params, pos, before = s["params"], s["positions"], s["before"]
        whites = np.flatnonzero(before == WHITE)
        reds = np.flatnonzero(before == RED)
        if params.transmission_scope == "euclidean":
            expected = whites[_within(pos[whites], pos[reds], params.R)]
        else:
            xmin, ymin, _, _ = params.region.bounds
            cell = np.floor((pos - (xmin, ymin)) / params.mobility.rho).astype(np.int64)
            key = cell[:, 0] * (1 << 32) + cell[:, 1]
            expected = whites[np.isin(key[whites], key[reds])]
        newly = np.flatnonzero((before == WHITE) & (s["after"] == RED))
        if not np.array_equal(np.sort(expected), newly):
            out.append(
                f"step {s['step']}: {len(newly)} newly informed, all-pairs gives {len(expected)}"
            )
    return out


def check_summary(path: str, runs: list[dict], errors: list, replicas: int) -> list[str]:
    """summary.csv has one complete row per replica, matching the runs."""
    out = [f"replica error: {e}" for e in errors if e is not None]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    reps = [r for r in rows if r["row_kind"] == "replica"]
    aggs = [r for r in rows if r["row_kind"] == "aggregate"]
    if len(reps) != replicas or len(aggs) != 1:
        out.append(f"summary has {len(reps)} replica and {len(aggs)} aggregate rows")
        return out
    times = [str(r["completion_time"]) for r in runs]
    if [r["completion_time"] for r in reps] != times:
        out.append("summary completion times differ from the runs")
    if any(r["failed"] != "False" for r in reps) or aggs[0]["completion_fraction"] != "1":
        out.append("summary reports failed replicas")
    return out


def check_trace(path: str, run: dict) -> list[str]:
    """The audit trace has one row per step, matching the run's counts, each
    with a regularity verdict and the same non-empty set of cells."""
    out = []
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    series = list(zip(run["white"], run["red"], run["black"]))
    if [(r["white"], r["red"], r["black"]) for r in rows] != series:
        out.append("audit rows differ from the run's counts")
    cells = {len(r["cells"] or ()) for r in rows}
    if len(cells) != 1 or 0 in cells:
        out.append(f"audit rows dump differing or empty cell sets: {sorted(cells)}")
    if not all(isinstance(r["regular"], bool) for r in rows):
        out.append("audit row without a regularity verdict")
    return out


def check_isolated(probe: Probe, stdout: str, trials: int) -> list[str]:
    """The printed mean matches the scans, and on a fixed sample of agents
    the first scan agrees with an all-pairs distance check."""
    if probe.isolated_first is None or len(probe.isolated_counts) != trials:
        return [f"{len(probe.isolated_counts)} isolated scans captured, expected {trials}"]
    out = []
    fields = dict(part.split("=") for part in stdout.split())
    if float(fields["mean_isolated"]) != sum(probe.isolated_counts) / trials:
        out.append("printed mean differs from the scans")
    pos, idx, R = probe.isolated_first
    sample = np.random.default_rng(0).choice(len(pos), ISOLATED_SAMPLE, replace=False)
    isolated = np.empty(len(sample), dtype=bool)
    for j, i in enumerate(sample):
        d2 = np.sum((pos - pos[i]) ** 2, axis=1)
        d2[i] = np.inf
        isolated[j] = not (d2 <= R * R).any()
    if not np.array_equal(isolated, np.isin(sample, idx)):
        out.append("isolated agents differ from the all-pairs check on the sample")
    return out
