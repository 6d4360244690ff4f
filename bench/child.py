"""One execution of one workload, in a fresh process.

Usage (started by run.py, from the root of a checkout with ``src/`` on
PYTHONPATH):

    python3 bench/child.py WORKLOAD SEED TRACE SPAWN_TIME [--smoke]

Set-up is timed from SPAWN_TIME, the CLOCK_MONOTONIC reading the parent took
just before starting this process, until ``redwave.cli`` is imported and the
workload config has been parsed once. Then ``redwave.cli.main`` runs the
workload verb in-process and is timed on its own, between two timings of a
fixed reference loop that tell how fast the CPU runs right now. Output
checks run after that, and the result is printed as one JSON line.
"""

import sys
import time

_spawned = float(sys.argv[4])
_trace = sys.argv[3] == "1"

import redwave.cli as cli  # noqa: E402

if _trace:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()

from workloads import config_path, out_dir, workloads  # noqa: E402

_name, _smoke = sys.argv[1], "--smoke" in sys.argv
_config = config_path(_name, _smoke)
_parsed = cli.parse_config(_config)
setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - _spawned

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402


OUTPUT_FILES = {"sweep": "summary.csv", "audit": "audit.ndjson"}


def reference_times() -> list[float]:
    """Times of a fixed mix of interpreter and small-array numpy work that
    does not use redwave and allocates little, so it leaves the peak RSS
    alone: the speed of this CPU right now."""
    pts = np.random.default_rng(0).random((4096, 2))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += (i * i) % 7
        for i in range(0, 4096 - 8, 8):
            d = pts[i : i + 8, None, :] - pts[None, i + 8 : i + 16, :]
            acc += int(np.einsum("ijk,ijk->ij", d, d).argmin())
        np.sort(np.floor(pts / 0.01).astype(np.int64)[:, 0])
        times.append(time.perf_counter() - t)
    return times


def main() -> dict:
    wl = workloads(_smoke)[_name]
    seed = int(sys.argv[2])
    out = out_dir(_name, _trace)
    # the file the verb writes; the isolated verb only prints
    output = os.path.join(out, OUTPUT_FILES.get(wl.verb, ""))
    if os.path.isfile(output):
        os.remove(output)
    probe = checks.Probe()
    probe.install()
    main_fn = tracer.wrap("cli.main", cli.main) if _trace else cli.main
    argv = [wl.verb, "--config", _config, "--seed", str(seed), "--out", out, *wl.extra_args]

    stdout = io.StringIO()
    reference = reference_times()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main_fn(argv)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference += reference_times()
    text = stdout.getvalue()
    if wl.verb == "isolated":
        produced, work = text.encode(), _parsed.n * wl.ops
    else:
        produced, work = b"", sum(r["n"] * r["steps"] for r in probe.runs)
        if os.path.isfile(output):
            with open(output, "rb") as fh:
                produced = fh.read()

    if code != 0:
        failures = [f"exit code {code}"]
    elif wl.verb == "isolated":
        failures = checks.check_isolated(probe, text, wl.ops)
    else:
        failures = checks.check_runs(probe.runs) + checks.check_steps(probe.steps)
        if wl.verb == "sweep":
            failures += checks.check_summary(output, probe.runs, probe.errors, wl.ops)
        else:
            failures += checks.check_trace(output, probe.runs[0])

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": sorted(reference)[len(reference) // 2],
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.ops,
        # a failed check fails every operation of the execution
        "failed": wl.ops if failures else 0,
        "failures": failures,
        "digest": hashlib.sha256(produced).hexdigest(),
        "output_bytes": len(produced),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if _trace:
        layers, step_ms = tracer.layer_metrics()
        layers["cli.output_bytes"] = float(len(produced))
        layers["epidemic.red_mean"] = _mean([x for r in probe.runs for x in r["red"]])
        layers["epidemic.snapshot_bytes"] = float(sum(r["snapshot_bytes"] for r in probe.runs))
        layers["experiments.replicas"] = float(len(probe.errors))
        layers["experiments.replica_errors"] = float(sum(e is not None for e in probe.errors))
        result.update(layers=layers, step_ms=step_ms, missing_bindings=tracer.missing)
        tracer.write(os.path.join(out, "spans.json"))
    return result


def _mean(xs: list) -> float:
    return sum(xs) / len(xs) if xs else 0.0


if __name__ == "__main__":
    print(json.dumps(main()))
