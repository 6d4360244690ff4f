"""redwave: simulator and audit harness for parsimonious k-flooding (SIR)
over geometric random-walk mobile networks."""

from .epidemic import RunRecord, SimParams, Snapshot, run
from .geometry import CellGrid, Region, build_cell_grid
from .mobility import MobilityMode, RngStream

__all__ = [
    "CellGrid",
    "MobilityMode",
    "Region",
    "RngStream",
    "RunRecord",
    "SimParams",
    "Snapshot",
    "build_cell_grid",
    "run",
]

__version__ = "0.1.0"
