"""Runtime checkers for the analytical apparatus: cell/supercell state
classification, regularity predicates, density audits, wave-front distances,
and the supercell state-ladder constants.

Everything here is a pure function of a snapshot plus a grid, so audits run
inline during a simulation, from the per-step hook of ``epidemic.run``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .epidemic import RED, WHITE, Snapshot
from .errors import ConfigurationError
from .geometry import CellGrid, CellIndex, cell_list, distance_transform, touching


class CellState(Enum):
    WHITE = "white"  # only white agents
    RED = "red"  # at least one red agent
    BLACK = "black"  # black agents only
    GREY = "grey"  # any other nonempty mixture
    EMPTY = "empty"  # no agents at all (artifact extension)


# Constants of the supercell state ladder.  The analysis leaves them as
# unspecified positive constants; these make the density audit pass at mean
# density 1.
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
_STATES = tuple(CellState)
CELL_CODE = {s: np.int8(i) for i, s in enumerate(_STATES)}
_WHITE, _RED, _BLACK, _GREY, _EMPTY = CELL_CODE.values()
_OUT = np.int8(-1)


class CellMap(Mapping):
    """Read-only ``(col, row) -> value`` view of a dense array over a grid's
    cover.  ``array`` is indexed by cell; iteration follows ``grid.cells``."""

    def __init__(self, array: np.ndarray, grid: CellGrid, convert=float) -> None:
        array.flags.writeable = False
        self.array = array
        self.grid = grid
        self._convert = convert

    def __getitem__(self, c: CellIndex):
        if not self.grid.in_cover(*c):
            raise KeyError(c)
        return self._convert(self.array[c])

    def __iter__(self):
        return iter(self.grid.cells)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.grid.mask))


def _state_grid(cellstates: Mapping[CellIndex, CellState], grid: CellGrid) -> np.ndarray:
    """The int8 state grid behind a cell-state map."""
    if isinstance(cellstates, CellMap):
        return cellstates.array
    codes = np.full(grid.mask.shape, _OUT)
    for c, s in cellstates.items():
        codes[c] = CELL_CODE[s]
    return codes


def classify_cells(snapshot: Snapshot, grid: CellGrid) -> CellMap:
    """Per covered cell: red if it holds a red agent, white if only whites,
    black if only blacks, grey for any other mixture, empty if agent-free."""
    w, r, b = grid.bin(snapshot.positions, snapshot.states) > 0
    codes = np.full(grid.mask.shape, _GREY)
    codes[w & ~b] = _WHITE
    codes[b & ~w] = _BLACK
    codes[~w & ~b] = _EMPTY
    codes[r] = _RED
    codes[~grid.mask] = _OUT
    return CellMap(codes, grid, _STATES.__getitem__)


@dataclass
class RegularityReport:
    regular: bool
    violations: list[tuple[str, CellIndex]] = field(default_factory=list)
    empty_cells: list[CellIndex] = field(default_factory=list)


def is_regular(cellstates: Mapping[CellIndex, CellState], grid: CellGrid) -> RegularityReport:
    """Check the three regularity properties of a configuration.

    (a) no grey cell; (b) every white component is adjacent to a red cell,
    i.e. every white cell is reached from the red cells through white and
    red cells; (c) no white cell is adjacent to a black cell.  A (b)
    violation names the lowest cell of its white component.

    Empty cells are reported separately as density violations and are
    transparent to the adjacency checks: at desk scale a handful of cells
    are empty in nearly every step, so making them fatal would void the
    verdict everywhere.
    """
    codes = _state_grid(cellstates, grid)
    white, red = codes == _WHITE, codes == _RED
    violations = [("a", c) for c in cell_list(codes == _GREY)]
    violations += [("c", c) for c in cell_list(white & touching(codes == _BLACK))]
    unreached = white & np.isinf(
        distance_transform(np.where(red, 0.0, np.inf), white | red)
    )
    if unreached.any():
        index = np.arange(codes.size, dtype=float).reshape(codes.shape)
        lowest = distance_transform(index, unreached, step=0)
        roots = unreached & (lowest == index)
        violations += [("b", c) for c in cell_list(roots)]
    return RegularityReport(
        regular=not violations,
        violations=violations,
        empty_cells=cell_list(codes == _EMPTY),
    )


def _red_close(codes: np.ndarray) -> np.ndarray:
    """White cells 8-adjacent to at least one red cell."""
    return (codes == _WHITE) & touching(codes == _RED)


def wavefront_distances(
    cellstates: Mapping[CellIndex, CellState], grid: CellGrid
) -> CellMap:
    """Cell-distance from every covered cell to the red cell set.

    Red cells map to 0; with no red cell everything maps to infinity.
    """
    return CellMap(grid.distances(_state_grid(cellstates, grid) == _RED), grid)


def density_check(snapshot: Snapshot, grid: CellGrid) -> list[tuple[CellIndex, int]]:
    """Cells whose agent count falls outside [ETA1*l^2, ETA2*l^2].

    A cell's count is the number of agents in c & S: agents in uncovered
    boundary slivers are left out rather than folded into a covered cell.
    """
    own = grid.covers(snapshot.positions)
    tot = grid.bin(snapshot.positions[own], snapshot.states[own]).sum(axis=0)
    bad = grid.mask & ((tot < ETA1 * grid.side**2) | (tot > ETA2 * grid.side**2))
    return [(c, int(tot[c])) for c in cell_list(bad)]


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


def classify_supercells(
    snapshot: Snapshot, sgrid: CellGrid, classifier: SupercellClassifier
) -> np.ndarray:
    """The state marks (see SupercellClassifier.classify) of every supercell
    of the index box; uncovered supercells are marked in no state."""
    return classifier.classify(*sgrid.bin(snapshot.positions, snapshot.states)) & sgrid.mask


def _top(states: np.ndarray) -> np.ndarray:
    """The highest state marked per supercell of a state map, -1 where none is."""
    levels = np.arange(len(states)).reshape(-1, 1, 1)
    return np.where(states, levels, -1).max(axis=0)


@dataclass
class SupercellRegularityReport:
    regular: bool
    unclassifiable: list[CellIndex] = field(default_factory=list)
    # Black-State supercells with a neighbour in neither the Red nor the Black State
    black_neighbor_violations: list[CellIndex] = field(default_factory=list)


def supercell_regularity(states: np.ndarray, sgrid: CellGrid) -> SupercellRegularityReport:
    """Regularity of a supercell state map.  Condition 1: every covered
    supercell classifiable.  Condition 2: neighbours of a Black-State
    supercell are in the Red or Black State."""
    unclassifiable = cell_list(sgrid.mask & ~states.any(axis=0))
    neither = sgrid.mask & ~(states[-2] | states[-1])
    violations = cell_list(states[-1] & touching(neither))
    return SupercellRegularityReport(
        regular=not unclassifiable and not violations,
        unclassifiable=unclassifiable,
        black_neighbor_violations=violations,
    )


# ---------------------------------------------------------------------------
# state-ladder transition audit
# ---------------------------------------------------------------------------

_IMPLICATIONS = ("a", "b", "c", "d", "e")


@dataclass
class TransitionTally:
    agreements: int = 0
    violations: int = 0

    @property
    def observed(self) -> int:
        return self.agreements + self.violations


@dataclass
class TransitionAudit:
    tallies: dict[str, TransitionTally]
    skipped_unclassifiable: int = 0
    skipped_irregular: int = 0


def transition_audit(
    state_maps: list[np.ndarray], sgrid: CellGrid, require_regular: bool = False
) -> TransitionAudit:
    """Match observed supercell transitions against the state-ladder rules.

    The local evolution law is stated for regular configurations; with
    ``require_regular`` only pairs whose source map is regular are judged
    and irregular steps are counted in ``skipped_irregular``.  m^t(C) is
    the max state over N(C) (states overlap only at the top of the ladder,
    so the max is the natural representative; the same convention is used
    for the observed next state).  Pairs where C or any neighbor is
    unclassifiable are skipped and counted, not judged.

    Rules: (a) m=0 keeps C in state 0; (b) an intermediate m pushes C to
    m+1; (c) m = Red with C below Red makes C Red; (d) m = Red with C Red
    makes C Black; (e) m = Black keeps/makes C Black.
    """
    audit = TransitionAudit(tallies={k: TransitionTally() for k in _IMPLICATIONS})
    for cur, nxt in zip(state_maps[:-1], state_maps[1:]):
        if require_regular and not supercell_regularity(cur, sgrid).regular:
            audit.skipped_irregular += len(sgrid.cells)
            continue
        hh = len(cur) - 2
        top = _top(cur)
        m = touching(top)  # uncovered supercells read -1
        judged = sgrid.mask & ~touching(sgrid.mask & (top < 0)) & nxt.any(axis=0)
        audit.skipped_unclassifiable += len(sgrid.cells) - int(np.count_nonzero(judged))
        # each supercell's rule, (a)..(e) as 0..4, and the state it expects next
        rule = np.select([m == 0, m < hh, m == hh], [0, 1, np.where(top < hh, 2, 3)], 4)
        expected = np.choose(rule, [0, m + 1, hh, hh + 1, hh + 1])
        met = np.take_along_axis(nxt, expected[None], axis=0)[0]
        tally = np.bincount(2 * rule[judged] + met[judged], minlength=10).reshape(5, 2)
        for key, (missed, agreed) in zip(_IMPLICATIONS, tally.tolist()):
            audit.tallies[key].agreements += agreed
            audit.tallies[key].violations += missed
    return audit


# ---------------------------------------------------------------------------
# wave-speed audits
# ---------------------------------------------------------------------------


@dataclass
class SpeedAudit:
    ok_pairs: int = 0
    violations: int = 0

    @property
    def total(self) -> int:
        return self.ok_pairs + self.violations

    def violation_rate(self) -> float:
        return self.violations / self.total if self.total else 0.0

    def merge(self, other: "SpeedAudit") -> "SpeedAudit":
        return SpeedAudit(self.ok_pairs + other.ok_pairs, self.violations + other.violations)


def _tally(audit: SpeedAudit, ok: np.ndarray) -> None:
    audit.ok_pairs += int(np.count_nonzero(ok))
    audit.violations += int(np.count_nonzero(~ok))


def wavefront_speed_audit(
    cellstate_maps: list[Mapping[CellIndex, CellState]],
    grid: CellGrid,
    min_decrease: int = 1,
    target: str = "red",
) -> SpeedAudit:
    """Per-step wave-front advance over (white cell, step) pairs.

    For every cell white at t+1 with a finite distance d_t to the target set
    (red cells, or red-close cells for the high-mobility audit), require
    d_{t+1} <= max(d_t - min_decrease, 0).
    """
    if target not in ("red", "red_close"):
        raise ConfigurationError(f"unknown audit target {target!r}")
    audit = SpeedAudit()
    codes = [_state_grid(m, grid) for m in cellstate_maps]
    dists = [
        grid.distances(c == _RED if target == "red" else _red_close(c)) for c in codes
    ]
    for cur_d, nxt_d, nxt in zip(dists[:-1], dists[1:], codes[1:]):
        sel = (nxt == _WHITE) & np.isfinite(cur_d)
        _tally(audit, nxt_d[sel] <= np.maximum(cur_d[sel] - min_decrease, 0))
    return audit


def supercell_speed_audit(state_maps: list[np.ndarray], sgrid: CellGrid) -> SpeedAudit:
    """Supercell wave advance: distance from supercells in the White State
    alone to the informed set (a state >= 1) drops by at least 1 per step."""
    audit = SpeedAudit()
    tops = [_top(m) for m in state_maps]
    dists = [sgrid.distances(top >= 1) for top in tops]
    for cur_d, nxt_d, nxt in zip(dists[:-1], dists[1:], tops[1:]):
        sel = (nxt == 0) & np.isfinite(cur_d) & (cur_d != 0)
        _tally(audit, nxt_d[sel] <= cur_d[sel] - 1)
    return audit


# ---------------------------------------------------------------------------
# appendix spread-lemma audits
# ---------------------------------------------------------------------------


@dataclass
class LemmaTally:
    """How often a lemma's hypothesis held, and its conclusion with it."""

    hypothesis_met: int = 0
    holds: int = 0


@dataclass
class SpreadAudit:
    pairs: int = 0
    white_spread: LemmaTally = field(default_factory=LemmaTally)
    red_spread: LemmaTally = field(default_factory=LemmaTally)
    red_saturation: LemmaTally = field(default_factory=LemmaTally)
    red_upper: LemmaTally = field(default_factory=LemmaTally)


def spread_audit(
    snapshots: list[Snapshot],
    sgrid: CellGrid,
    grid: CellGrid,
    R: float,
) -> SpreadAudit:
    """Audit the one-step agent-spread bounds behind the supercell ladder.

    The bounds speak about the configuration immediately after the move
    phase, before the transmission phase.  With the move-first phase order
    that mid-step configuration is reconstructed exactly from consecutive
    end-of-step snapshots: positions from step t+1, states from step t.

    Per (supercell, step) pair with the stated hypothesis:
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
    rho = sgrid.side
    ratio = rho / grid.side
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigurationError("supercell side must be a multiple of the cell side")
    ratio = int(round(ratio))
    if len(snapshots) < 2:
        raise ConfigurationError("spread audit needs at least two snapshots")
    classifier = SupercellClassifier(R=R, rho=rho, n=snapshots[0].n)
    lam_w_min = 720.0 / C0**2
    lam_r_min = 1800.0 / C0**2

    # each covered cell's supercell, for the covered cells whose supercell
    # is covered
    cells = np.argwhere(grid.mask)
    sup = cells // ratio
    keep = sgrid.in_cover(sup[:, 0], sup[:, 1])
    cells, sup = cells[keep], sup[keep]
    cells_per_super = np.zeros(sgrid.mask.shape, dtype=np.int64)
    np.add.at(cells_per_super, (sup[:, 0], sup[:, 1]), 1)

    audit = SpreadAudit()
    counts = [sgrid.bin(s.positions, s.states) for s in snapshots]
    for t in range(len(snapshots) - 1):
        cur, nxt = snapshots[t], snapshots[t + 1]
        # mid-step configuration of step t+1: moved positions, pre-transmission states
        mid = grid.bin(nxt.positions, cur.states)[:, cells[:, 0], cells[:, 1]]
        fewest_whites = np.full(sgrid.mask.shape, np.inf)
        np.minimum.at(fewest_whites, (sup[:, 0], sup[:, 1]), mid[WHITE])
        red_hit = np.zeros(sgrid.mask.shape, dtype=np.int64)
        np.add.at(red_hit, (sup[:, 0], sup[:, 1]), mid[RED] > 0)
        # the fewest red-hit cells of a covered supercell over N(C)
        fewest_hit = -touching(np.where(sgrid.mask, -red_hit, -np.inf))
        unsaturated = red_hit < cells_per_super  # none where uncovered: 0 < 0
        # sgrid.bin leaves uncovered supercells empty, so the box windows'
        # sums and maxima of the counts are those over N(C)
        w, r, b = counts[t]
        audit.pairs += len(sgrid.cells)
        lam_w = touching(w, np.add) / rho**2
        _lemma(
            audit.white_spread,
            sgrid.mask & (lam_w >= lam_w_min),
            fewest_whites >= (lam_w / 36.0) * R**2,
        )
        lam_r = r / R**2
        need = np.minimum((lam_r / 30.0) * R**2, rho**2 / (2.0 * R**2))
        _lemma(audit.red_spread, sgrid.mask & (lam_r >= lam_r_min), fewest_hit >= need)
        red_state = classifier.classify(w, r, b)[-2] & sgrid.mask
        _lemma(audit.red_saturation, red_state, ~touching(unsaturated))
        bound = 68.0 * ETA2 * touching(r) * R**2
        _lemma(audit.red_upper, sgrid.mask, counts[t + 1][RED] <= bound)
    return audit


def _lemma(tally: LemmaTally, met: np.ndarray, holds: np.ndarray) -> None:
    tally.hypothesis_met += int(np.count_nonzero(met))
    tally.holds += int(np.count_nonzero(met & holds))
