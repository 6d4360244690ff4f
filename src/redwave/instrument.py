"""Runtime checkers for the analytical apparatus: cell/supercell state
classification, regularity predicates, wave-front distances, the supercell
state-ladder constants and the agent-spread bounds behind the ladder.

The checks are pure functions of a snapshot plus a grid, or of two
consecutive steps, so ``CellAudit`` and ``SupercellAudit`` run them inline
during a simulation, from the per-step hook of ``epidemic.run``, and tally
their verdicts.  Classifications are dense arrays over the grid's index
box: an int8 state grid per cell (``CELL_CODE``, -1 off the cover), and per
supercell an ``(h_hat + 2, W, H)`` stack of state marks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .epidemic import RED, WHITE, SimParams, Snapshot
from .errors import ConfigurationError
from .geometry import CellGrid, distance_transform, touching


class CellState(Enum):
    WHITE = "white"  # only white agents
    RED = "red"  # at least one red agent
    BLACK = "black"  # black agents only
    GREY = "grey"  # any other nonempty mixture
    EMPTY = "empty"  # no agents at all (artifact extension)


# Constants of the supercell state ladder.  The analysis leaves them as
# unspecified positive constants; at mean density 1 nearly every cell of
# side l holds between ETA1 l^2 and ETA2 l^2 agents.
ETA1, ETA2, C0 = 0.5, 2.0, 1.0


def state_constants(h: int) -> tuple[float, float, float]:
    """(a_h, b_h, c_h) for intermediate state h >= 1: they bound the red and
    white agent counts of that state.

    a_h = ETA1^h / (2 * 2160^(h-1) * 20^((h-1)(h-2)/2))
    b_h = 15 * 68^(h-1) * ETA2^h
    c_h = ETA1 / (2 * 20^(h-1))

    Where a power leaves the float range (from h = 24 in a_h), a_h and c_h
    read 0.0 and b_h inf, their limits.
    """
    if h < 1:
        raise ConfigurationError("state index h must be >= 1")
    a = ETA1**h / (2.0 * _power(2160.0, h - 1) * _power(20.0, (h - 1) * (h - 2) / 2))
    b = 15.0 * _power(68.0, h - 1) * _power(ETA2, h)
    c = ETA1 / (2.0 * _power(20.0, h - 1))
    return a, b, c


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where float ``**`` raises on overflow."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def h_hat(R: float, rho: float, n) -> int:
    """Number of the Red State: ceil(log base R^2 of (C0 (rho/R)^2 ln n)).

    Natural log throughout; requires R^2 > 1 and a positive log argument.
    """
    if R <= 1:
        raise ConfigurationError("h_hat requires R > 1")
    arg = C0 * (rho**2 / R**2) * math.log(n)
    if arg <= 0:
        raise ConfigurationError("h_hat log argument must be positive")
    value = math.log(arg) / math.log(R**2)
    ceil = math.ceil(value - 1e-12)
    return max(1, ceil)


# ---------------------------------------------------------------------------
# cell-level classification and regularity
# ---------------------------------------------------------------------------

# int8 codes of a state grid: a CellState's position in the enum, so white,
# red and black share the agent state codes; -1 marks uncovered box cells
CELL_CODE = {s: np.int8(i) for i, s in enumerate(CellState)}
_WHITE, _RED, _BLACK, _GREY, _EMPTY = CELL_CODE.values()
_OUT = np.int8(-1)


def classify_cells(snapshot: Snapshot, grid: CellGrid) -> np.ndarray:
    """The int8 state grid over the cell index box: per covered cell the
    ``CELL_CODE`` of red if it holds a red agent, white if only whites,
    black if only blacks, grey for any other mixture, empty if agent-free;
    -1 off the cover."""
    w, r, b = grid.bin(snapshot.positions, snapshot.states) > 0
    codes = np.full(grid.mask.shape, _GREY)
    codes[w & ~b] = _WHITE
    codes[b & ~w] = _BLACK
    codes[~w & ~b] = _EMPTY
    codes[r] = _RED
    codes[~grid.mask] = _OUT
    return codes


def is_regular(codes: np.ndarray) -> dict[str, int]:
    """Count the cells of a state grid that break each regularity property:
    (a) no grey cell (``grey_cells``); (b) every white component is adjacent
    to a red cell, i.e. every white cell is reached from the red cells
    through white and red cells (``white_unreached``); (c) no white cell is
    adjacent to a black cell (``white_by_black``).  The grid is regular when
    every count is 0.

    Empty cells are transparent to the adjacency checks and break no
    property: at desk scale a handful of cells are empty in nearly every
    step, so counting them would void the verdict everywhere.
    """
    white, red = codes == _WHITE, codes == _RED
    unreached = white & np.isinf(distance_transform(red, white | red))
    return {
        "grey_cells": int(np.count_nonzero(codes == _GREY)),
        "white_unreached": int(np.count_nonzero(unreached)),
        "white_by_black": int(np.count_nonzero(white & touching(codes == _BLACK))),
    }


def wavefront_distances(codes: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Cell-distance from every covered cell of a state grid to its red
    cells, over the index box: red cells read 0, and with no red cell every
    cell reads infinity, as does every cell off the cover."""
    return grid.distances(codes == _RED)


# ---------------------------------------------------------------------------
# supercell-level classification (cellular random-walk analysis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupercellClassifier:
    """Binds (R, rho, n) to the state ladder.

    States: 0 = White State, 1..h_hat-1 intermediate, h_hat = Red State,
    h_hat + 1 = Black State.  States can overlap, so classification marks
    every state whose conditions hold.
    """

    R: float
    rho: float
    n: int

    def __post_init__(self) -> None:
        h_hat(self.R, self.rho, self.n)  # a ConfigurationError where no ladder exists

    @property
    def h_hat(self) -> int:
        return h_hat(self.R, self.rho, self.n)

    @property
    def red_threshold(self) -> float:
        return 90.0 * (self.rho**2 / self.R**2) * math.log(self.n)

    def classify(self, n_white, n_red, n_black) -> np.ndarray:
        """(h_hat + 2, ...) booleans over the broadcast (white, red, black)
        counts, scalars or arrays: ``[h]`` is True where state h's conditions
        hold.  Counts marked in no state are unclassifiable."""
        w, r, b = np.broadcast_arrays(n_white, n_red, n_black)
        hh = self.h_hat
        out = np.empty((hh + 2,) + w.shape, dtype=bool)
        out[0] = (r == 0) & (b == 0)
        for h in range(1, hh):
            a, b_h, c = state_constants(h)
            scale = self.R ** (2 * h)
            out[h] = (a * scale <= r) & (r <= b_h * scale) & (w >= c * self.rho**2)
        out[hh] = r >= self.red_threshold
        out[hh + 1] = w == 0
        return out


def top_state(states: np.ndarray) -> np.ndarray:
    """The highest state marked per supercell of a state map, -1 where none is."""
    levels = np.arange(len(states)).reshape(-1, 1, 1)
    return np.where(states, levels, -1).max(axis=0)


def supercell_regularity(states: np.ndarray, sgrid: CellGrid) -> dict[str, int]:
    """Count the supercells of a state map that break each regularity
    condition: (1) every covered supercell is classifiable
    (``supercell_unclassifiable``); (2) the neighbours of a Black-State
    supercell are in the Red or Black State (``black_by_open``, the
    Black-State supercells with a neighbour in neither).  The map is
    regular when both counts are 0."""
    neither = sgrid.mask & ~(states[-2] | states[-1])
    return {
        "supercell_unclassifiable": int(np.count_nonzero(sgrid.mask & ~states.any(axis=0))),
        "black_by_open": int(np.count_nonzero(states[-1] & touching(neither))),
    }


# ---------------------------------------------------------------------------
# per-step audits: each pair check is a function of two consecutive steps
# ---------------------------------------------------------------------------


def front_pairs(prev_dist: np.ndarray, codes: np.ndarray, dist: np.ndarray) -> dict[str, int]:
    """The cell wave front's advance over one step, from the distance grid
    of the step before to a step's state and distance grids.  Each cell
    white now at a finite distance d from the red cells a step before is a
    pair; it is missed unless its distance now is at most max(d - 1, 0)."""
    pairs = (codes == _WHITE) & np.isfinite(prev_dist)
    missed = pairs & (dist > np.maximum(prev_dist - 1, 0))
    return {"front": int(np.count_nonzero(pairs)), "front_missed": int(np.count_nonzero(missed))}


def supercell_front_pairs(
    prev_dist: np.ndarray, top: np.ndarray, dist: np.ndarray
) -> dict[str, int]:
    """The supercell wave front's advance over one step, from the distance
    grid to the informed set (a state >= 1) of the step before to a step's
    ``top_state`` and distance grids.  Each supercell in the White State
    alone now, at a finite nonzero distance d a step before, is a pair; it
    is missed unless its distance now is at most d - 1."""
    pairs = (top == 0) & np.isfinite(prev_dist) & (prev_dist != 0)
    missed = pairs & (dist > prev_dist - 1)
    return {
        "supercell_front": int(np.count_nonzero(pairs)),
        "supercell_front_missed": int(np.count_nonzero(missed)),
    }


def ladder_pairs(prev_top: np.ndarray, states: np.ndarray, sgrid: CellGrid) -> dict[str, int]:
    """Match one step's supercell transitions, from the ``top_state`` of the
    step before to the state map ``states``, against the state-ladder rules:
    each rule's pairs (``rule_a``) and misses (``rule_a_missed``), and the
    ``skipped`` supercells, where C or a neighbour was unclassifiable or C
    is now.  m^t(C) is the max state over N(C).  The intermediate bands nest
    (a_h R^{2h} falls with h for R below about 65, b_h R^{2h} grows and
    c_h rho^2 falls), so an intermediate supercell's max reads h_hat - 1,
    and rule (b) is judged only at m = h_hat - 1.

    Rules: (a) m=0 keeps C in state 0; (b) an intermediate m pushes C to
    m+1; (c) m = Red with C below Red makes C Red; (d) m = Red with C Red
    makes C Black; (e) m = Black keeps/makes C Black.
    """
    hh = len(states) - 2
    m = touching(prev_top)  # uncovered supercells read -1
    judged = sgrid.mask & ~touching(sgrid.mask & (prev_top < 0)) & states.any(axis=0)
    # each supercell's rule, (a)..(e) as 0..4, and the state it expects next
    rule = np.select([m == 0, m < hh, m == hh], [0, 1, np.where(prev_top < hh, 2, 3)], 4)
    expected = np.choose(rule, [0, m + 1, hh, hh + 1, hh + 1])
    met = np.take_along_axis(states, expected[None], axis=0)[0]
    tally = np.bincount(2 * rule[judged] + met[judged], minlength=10).reshape(5, 2)
    out = {"skipped": int(np.count_nonzero(sgrid.mask & ~judged))}
    for key, (missed, agreed) in zip("abcde", tally.tolist()):
        out[f"rule_{key}"] = missed + agreed
        out[f"rule_{key}_missed"] = missed
    return out


class CellAudit:
    """The cell audit of one run, called with the configuration that each
    step's transmission acted on (see ``cli.trace_run``): it adds the
    step's ``is_regular`` counts, its regularity and grey-freedom, and if
    ``paired`` (the caller's verdict on the call before and this one) the
    pair's ``front_pairs`` counts to ``tally``, and returns its state grid,
    regularity and distance grid."""

    def __init__(self, grid: CellGrid, tally: Counter) -> None:
        self.grid, self.tally = grid, tally

    def __call__(self, snap: Snapshot, paired: bool) -> tuple[np.ndarray, bool, np.ndarray]:
        codes = classify_cells(snap, self.grid)
        broken = is_regular(codes)
        dist = wavefront_distances(codes, self.grid)
        regular = not any(broken.values())
        self.tally.update(broken)
        self.tally["regular"] += regular
        self.tally["grey_free"] += broken["grey_cells"] == 0
        if paired:
            self.tally.update(front_pairs(self.dist, codes, dist))
        self.dist = dist
        return codes, regular, dist


def spread_pairs(
    prev: np.ndarray,
    mid: np.ndarray,
    red: np.ndarray,
    sgrid: CellGrid,
    grid: CellGrid,
    classifier: SupercellClassifier,
) -> dict[str, int]:
    """The one-step agent-spread bounds behind the supercell ladder, from
    the (3, W, H) supercell counts ``prev`` of the configuration audited a
    step before, the cell counts ``mid`` of the configuration after the
    move phase that follows it and before the transmission phase, and the
    supercell red counts ``red`` of the configuration audited now.  The
    side of ``grid`` must divide rho.  Per covered supercell C, each bound
    whose hypothesis holds is a pair (``white_spread``), and it is missed
    (``white_spread_missed``) unless its conclusion holds:
      - white spread: #W(N(C), t) = lambda rho^2 with lambda >= 720/C0^2
        implies every cell of C holds >= (lambda/36) R^2 whites mid-step.
      - red spread: #R(C, t) = lambda R^2 with lambda >= 1800/C0^2 implies
        every C' in N(C) has >= min((lambda/30) R^2, rho^2/(2R^2)) red-hit
        cells mid-step.
      - red saturation: C in the Red State implies every cell of every
        C' in N(C) is hit by a red mid-step.
      - red upper bound: #R(C, t+1) <= 68 ETA2 M R^2 where M is the max
        red count over N(C) at t (hypothesis always applicable).
    """
    R, rho = classifier.R, sgrid.side
    # each covered cell of a covered supercell, and that supercell
    cells = np.argwhere(grid.mask)
    sup = cells // round(rho / grid.side)
    keep = sgrid.in_cover(sup[:, 0], sup[:, 1])
    mid = mid[:, cells[keep, 0], cells[keep, 1]]
    at = tuple(sup[keep].T)
    fewest_whites = np.full(sgrid.mask.shape, np.inf)
    np.minimum.at(fewest_whites, at, mid[WHITE])
    red_hit = np.zeros(sgrid.mask.shape, dtype=np.int64)
    np.add.at(red_hit, at, mid[RED] > 0)
    unhit = np.zeros(sgrid.mask.shape, dtype=np.int64)
    np.add.at(unhit, at, mid[RED] == 0)
    # the fewest red-hit cells of a covered supercell over N(C)
    fewest_hit = touching(np.where(sgrid.mask, red_hit, np.inf), np.minimum)
    # sgrid.bin leaves uncovered supercells empty, so the box windows' sums
    # and maxima of the counts are those over N(C)
    w, r, _ = prev
    lam_w, lam_r = touching(w, np.add) / rho**2, r / R**2
    need = np.minimum((lam_r / 30.0) * R**2, rho**2 / (2.0 * R**2))
    lemmas = {
        "white_spread": (lam_w >= 720.0 / C0**2, fewest_whites >= (lam_w / 36.0) * R**2),
        "red_spread": (lam_r >= 1800.0 / C0**2, fewest_hit >= need),
        "red_saturation": (r >= classifier.red_threshold, ~touching(unhit > 0)),
        "red_upper": (True, red <= 68.0 * ETA2 * touching(r) * R**2),
    }
    out = {}
    for key, (met, holds) in lemmas.items():
        met = sgrid.mask & met
        out[key] = int(np.count_nonzero(met))
        out[f"{key}_missed"] = int(np.count_nonzero(met & ~holds))
    return out


class SupercellAudit:
    """The supercell audit of one cellular run, called with the
    configuration that each step's transmission acted on (see
    ``cli.trace_run``): it adds the step's ``supercell_regularity`` counts,
    its ``supercell_regular`` verdict and, if ``paired``, the pair's
    ``supercell_front_pairs`` and ``ladder_pairs`` counts to ``tally``.  The
    positions of a pair's second call with the first call's states are the
    configuration between its move and transmission, so with a cell
    ``grid`` whose side divides rho, each cell inside one supercell, it adds
    the ``spread_pairs`` counts too.  A run without a state ladder
    (``h_hat``) is a ConfigurationError here."""

    def __init__(self, params: SimParams, tally: Counter, grid: CellGrid | None = None) -> None:
        rho = params.mobility.rho
        self.sgrid = params.sgrid
        self.classifier = SupercellClassifier(params.R, rho, params.n)
        nested = grid is not None and abs(rho / grid.side - round(rho / grid.side)) <= 1e-9
        self.grid = grid if nested else None
        self.tally = tally

    def __call__(self, snap: Snapshot, paired: bool) -> None:
        counts = self.sgrid.bin(snap.positions, snap.states)
        states = self.classifier.classify(*counts) & self.sgrid.mask  # uncovered: no state
        top = top_state(states)
        dist = self.sgrid.distances(top >= 1)
        broken = supercell_regularity(states, self.sgrid)
        self.tally.update(broken)
        self.tally["supercell_regular"] += not any(broken.values())
        if paired:
            self.tally.update(supercell_front_pairs(self.dist, top, dist))
            self.tally.update(ladder_pairs(self.top, states, self.sgrid))
            if self.grid is not None:
                mid = self.grid.bin(snap.positions, self.agent_states)
                self.tally.update(
                    spread_pairs(
                        self.counts, mid, counts[RED], self.sgrid, self.grid, self.classifier
                    )
                )
        self.top, self.dist, self.counts = top, dist, counts
        if self.grid is not None:
            self.agent_states = snap.states.copy()  # the engine updates them in place
