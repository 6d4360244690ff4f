"""Spans around the public functions of each redwave module, recorded from
outside the package, and the per-layer metrics derived from them.

A wrapper is installed at every name a caller looks up: a function imported
with ``from .mobility import walk_all`` is a separate binding in the
importing module, and methods such as ``Engine.step`` and ``Region.contains``
are class attributes. Spans (name, start, end, parent) stay in memory until
the execution ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from redwave import cli, epidemic, experiments, geometry, instrument, mobility

# span name -> (owner, attribute) bindings that callers look up
SPANS = {
    "cli.parse_config": [(cli, "parse_config")],
    "cli.instrumentation_options": [(cli, "instrumentation_options")],
    "cli.emit_trace": [(cli, "emit_trace")],
    "cli.emit_summary": [(cli, "emit_summary")],
    "geometry.build_cell_grid": [(cli, "build_cell_grid"), (mobility, "build_cell_grid")],
    "mobility.build_supercell_grid": [(epidemic, "build_supercell_grid")],
    "mobility.init_positions": [(epidemic, "init_positions")],
    "mobility.walk_all": [(mobility, "walk_all"), (epidemic, "walk_all")],
    "mobility.cellular_walk_all": [
        (mobility, "cellular_walk_all"),
        (epidemic, "cellular_walk_all"),
    ],
    "epidemic.run": [(cli, "run"), (experiments, "run")],
    "epidemic.step": [(epidemic.Engine, "step")],
    "epidemic.move": [(epidemic.Engine, "_move")],
    "instrument.classify_cells": [(instrument, "classify_cells")],
    "instrument.is_regular": [(instrument, "is_regular")],
    "instrument.wavefront_distances": [(instrument, "wavefront_distances")],
    "experiments.replicate": [(cli, "replicate")],
    "experiments.isolated_count": [(cli, "isolated_count")],
}

# counts taken at span boundaries: span name -> (counter, f(args, result))
COUNTS = {
    "mobility.walk_all": ("walk_agents", lambda args, res: len(args[0])),
    "mobility.cellular_walk_all": ("walk_agents", lambda args, res: len(args[0])),
    "instrument.classify_cells": ("cells", lambda args, res: len(res)),
    "experiments.isolated_count": ("isolated_agents", lambda args, res: args[0]),
}

_WALKS = ("mobility.walk_all", "mobility.cellular_walk_all")
_GRIDS = ("geometry.build_cell_grid", "mobility.build_supercell_grid")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # bindings that no longer exist
        self._stack: list[int] = []
        self._open_walks = 0

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        walk = name in _WALKS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open_walks += walk
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._open_walks -= walk
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result

        return traced

    def install(self) -> None:
        for name, bindings in SPANS.items():
            for owner, attr in bindings:
                if not hasattr(owner, attr):
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        contains = geometry.Region.contains

        def counted(region, points, *args, **kwargs):
            k = 1 if getattr(points, "ndim", 2) == 1 else len(points)
            self.counts["contains_points"] += k
            if self._open_walks:
                self.counts["walk_candidates"] += k
            return contains(region, points, *args, **kwargs)

        geometry.Region.contains = counted

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- derived metrics ----------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        total = [end - start for _, start, end, _ in self.spans]
        own = list(total)
        for (_, _, _, parent), d in zip(self.spans, total):
            if parent >= 0:
                own[parent] -= d
        return total, own

    def _under(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> tuple[dict[str, float], list[float]]:
        """Per-layer metrics of one execution, and its step times in ms.

        The execution's ``cli.main`` span is the root; the parse that set-up
        does before it counts towards ``cli.parse_s`` but not towards
        ``trace.unattributed_s``, the part of the root that no layer metric
        below accounts for.
        """
        total, own = self._durations()
        names = [s[0] for s in self.spans]
        root = names.index("cli.main")

        def tot(*wanted, outside=(), inside=()):
            return sum(
                total[i]
                for i, n in enumerate(names)
                if n in wanted
                and not (outside and self._under(i, outside))
                and (not inside or self._under(i, inside))
            )

        def own_of(*wanted):
            return sum(own[i] for i, n in enumerate(names) if n in wanted)

        parse = ("cli.parse_config", "cli.instrumentation_options")
        m = {
            "cli.parse_s": tot(*parse),
            "geometry.grid_build_s": tot(*_GRIDS, outside=_GRIDS),
            "geometry.contains_points": float(self.counts["contains_points"]),
            "mobility.place_s": tot("mobility.init_positions"),
            "mobility.walk_s": tot("mobility.walk_all", outside=("mobility.init_positions",)),
            "mobility.cellular_walk_s": tot(
                "mobility.cellular_walk_all", outside=("mobility.init_positions",)
            ),
            "mobility.accept_ratio": (
                self.counts["walk_agents"] / self.counts["walk_candidates"]
                if self.counts["walk_candidates"]
                else 0.0
            ),
            "epidemic.step_s": tot("epidemic.step"),
            "epidemic.steps": float(names.count("epidemic.step")),
            "epidemic.transmit_s": own_of("epidemic.step"),
            "epidemic.run_self_s": own_of("epidemic.run"),
            "instrument.classify_s": tot("instrument.classify_cells"),
            "instrument.regularity_s": tot("instrument.is_regular"),
            "instrument.wavefront_s": tot("instrument.wavefront_distances"),
            "instrument.cells": float(self.counts["cells"]),
            "experiments.replicate_s": own_of("experiments.replicate"),
            "experiments.isolated_s": tot("experiments.isolated_count"),
            "experiments.isolated_agents": float(self.counts["isolated_agents"]),
            "cli.emit_self_s": own_of("cli.emit_trace", "cli.emit_summary"),
        }
        disjoint = (
            "geometry.grid_build_s",
            "mobility.place_s",
            "mobility.walk_s",
            "mobility.cellular_walk_s",
            "epidemic.transmit_s",
            "epidemic.run_self_s",
            "instrument.classify_s",
            "instrument.regularity_s",
            "instrument.wavefront_s",
            "experiments.replicate_s",
            "experiments.isolated_s",
            "cli.emit_self_s",
        )
        attributed = tot(*parse, inside=("cli.main",)) + sum(m[k] for k in disjoint)
        m["trace.wall_s"] = total[root]
        m["trace.unattributed_s"] = total[root] - attributed
        step_ms = [1e3 * total[i] for i, n in enumerate(names) if n == "epidemic.step"]
        return m, step_ms
