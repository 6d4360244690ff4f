"""The benchmark's workloads: one redwave CLI verb on one generated config.

Each workload is defined by its model parameters. The replica and trial
counts set how much work one execution does; they are chosen so that one
execution takes a few seconds on a 2-core machine, long enough to beat the
scheduling noise of a shared host and short enough that a timed run holds
several executions to take medians over.

Smoke variants keep every parameter except the region size (and so n) and
the replica/trial count, so that the same checks run in a few seconds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # redwave CLI verb
    config: str  # INI text the program receives
    ops: int  # operations per execution: replicas, runs or trials
    extra_args: tuple[str, ...] = ()


def _flood_wide(size: int, replicas: int) -> Workload:
    return Workload(
        name="flood_wide",
        verb="sweep",
        config=f"""\
[region]
kind = square
size = {size}

[agents]
density_one = true

[protocol]
r = 6
k = 1

[mobility]
mode = standard
rho = 12

[experiment]
replicas = {replicas}
seed = 0
""",
        ops=replicas,
    )


def _flood_cellular(size: int, replicas: int) -> Workload:
    # rho = 24 tiles the region exactly with 24 x 24 supercells
    return Workload(
        name="flood_cellular",
        verb="sweep",
        config=f"""\
[region]
kind = square
size = {size}

[agents]
density_one = true

[protocol]
r = 6
k = 1
phase_order = move_then_transmit
transmission_scope = same_supercell

[mobility]
mode = cellular
rho = 24

[experiment]
replicas = {replicas}
seed = 0
""",
        ops=replicas,
    )


def _audit_thin(size: int) -> Workload:
    # size / cell_side is a whole number (92 at 192, 23 at 48): a side that
    # leaves an uncovered sliver makes the audit abort (ROADMAP item 3).
    # The source sits at the centre: with a random source the run length,
    # and with it the snapshot memory, varies by half between executions.
    cells = round(size * 23 / 48)
    return Workload(
        name="audit_thin",
        verb="audit",
        config=f"""\
[region]
kind = square
size = {size}

[agents]
density_one = true

[protocol]
r = 6
k = 1
sources = {size / 2!r},{size / 2!r}
regime = sec3

[mobility]
mode = standard
rho = 2

[instrumentation]
cell_side = {size / cells!r}
gamma = 0.3
""",
        ops=1,
    )


def _isolated_scan(size: int, trials: int) -> Workload:
    n = size * size
    radius = 0.3 * math.sqrt(math.log(n))
    return Workload(
        name="isolated_scan",
        verb="isolated",
        config=f"""\
[region]
kind = square
size = {size}

[agents]
n = {n}

[protocol]
r = {radius!r}
k = 1

[mobility]
mode = standard
rho = {radius!r}
""",
        ops=trials,
        extra_args=("--trials", str(trials)),
    )


def workloads(smoke: bool = False) -> dict[str, Workload]:
    if smoke:
        found = [_flood_wide(48, 1), _flood_cellular(96, 1), _audit_thin(48), _isolated_scan(48, 1)]
    else:
        found = [_flood_wide(256, 2), _flood_cellular(192, 2), _audit_thin(192), _isolated_scan(256, 4)]
    return {w.name: w for w in found}


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def config_path(name: str, smoke: bool) -> str:
    return os.path.join(OUT_DIR, "configs", f"{name}{'-smoke' if smoke else ''}.ini")


def out_dir(name: str, traced: bool) -> str:
    return os.path.join(OUT_DIR, "work", f"{name}{'-traced' if traced else ''}")
