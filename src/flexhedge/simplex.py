"""Dense bounded-variable simplex with Dantzig pricing and basis-based duals.

The solver works on an internal minimize form: one slack column per row turns
every relation into an equality, so the working system is ``[A | I] x = b``
with individual bounds on all columns (``<=`` rows get slack bounds [0, inf),
``>=`` rows (-inf, 0], equalities [0, 0]).  ``[A | I]`` is the program's
``LinearProgram.block``, which ``opf`` shares across an hour layout, else
``densify``'s; right-hand sides, bounds and costs are read at each solve.

Every solve starts from a basis and the bounds the other columns rest at:
the program's ``LinearProgram.start`` if it has one, else the slack basis
with every other column at a finite bound.  One routine (``_start``) inverts
the basis, unless the program carries its inverse
(``LinearProgram.start_inverse``, which ``opf.Grid`` keeps for each layout's
crash basis), and computes the basic values as ``B^-1`` times the right-hand
side; each basic slack that breaks its bounds rests at the violated bound
instead and a signed artificial column carries the gap in its row, one of
sign -1 negating that row of ``B^-1``.  A first phase minimizes the
artificials' sum; the second phase optimizes the true objective from the
feasible basis.  A start falls back to
the slack basis when it names a column or slack the program lacks (an
``artificial:`` entry included), is singular (a basis of the wrong size
included), rests a column at an infinite bound or puts a basic structural
column out of bounds; and also when it ends anywhere but on a
non-degenerate optimum, so a program whose duals are not unique reports the
slack-basis solve's vertex.  The OPF hands each hour a crash basis
(``opf.Grid.crash_start``) or an earlier optimal basis this way.

The entering column is the eligible one with the largest reduced cost in
absolute value (Dantzig), ties going to the lowest index.  Dantzig's rule
alone can cycle on degenerate pivots, so after ``_BLAND_AFTER`` consecutive
pivots that leave the basic values where they were, pricing turns to the
lowest eligible index (Bland 1977) until a pivot moves them again; Bland's
rule cannot cycle, so the iteration cap is only a circuit breaker.  The
ratio test breaks ties by the lowest basic column index.

Each solve inverts its start basis once; phase 2 continues phase 1's
``B^-1`` (inverting afresh only where phase 1's end swapped an artificial
out), and a rank-1 product-form update per pivot (Bartels-Golub;
Forrest-Tomlin 1972) keeps it current, so a pivot costs O(m*n) array work
instead of three fresh O(m^3) solves.  Multipliers are ``c_B B^-1``, the
entering column is ``B^-1 a_q``, and basic values are updated in place on
every pivot and bound flip.  To bound drift the basis is inverted afresh, and
basic values are recomputed in full, every ``_REFACTOR_EVERY`` pivots,
counted across both phases.  The updated quantities only steer pivot choices
and the phase-1 feasibility test (against ``FEAS_TOL``): the reported solution
is computed from fresh solves with the final basis, so a given final basis
gives bitwise the same primal values, duals, reduced costs and objective.
Two starts that end on the same basis set can list it in different row
orders; the fresh solves then factor the basis in that order, and the outputs
can differ in the last few ulps.

``cost_range`` ranges one basic column's objective coefficient on a named
basis: the open interval of it over which that basis stays optimal.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import (
    INF,
    MAX_ITERATIONS,
    PIVOT_TOL,
    FEAS_TOL,
    LinearProgram,
    LpSolution,
    SolverFailureError,
)

_RATIO_TIE = 1e-9
_REFACTOR_EVERY = 50  # pivots between fresh inversions of the basis
_BLAND_AFTER = 10  # consecutive degenerate pivots before pricing turns to Bland


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular basis: basic columns are linearly dependent") from None


def _inverse(B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular basis: basic columns are linearly dependent") from None


def densify(lp: LinearProgram) -> np.ndarray:
    """The slack-augmented constraint matrix ``[A | I]`` of ``lp``'s rows,
    read-only so that programs can share it (``LinearProgram.block``)."""
    n, m = len(lp.columns), len(lp.rows)
    col_index = {name: j for j, name in enumerate(lp.columns)}
    A = np.zeros((m, n + m))
    for i, row in enumerate(lp.rows.values()):
        for cname, coef in row.coeffs.items():
            A[i, col_index[cname]] += coef
        A[i, n + i] = 1.0
    A.flags.writeable = False
    return A


class _Internal:
    """Slack-augmented minimize form of a LinearProgram: its block (the one it
    carries, else ``densify``'s) with its right-hand sides, bounds and costs."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.maximizing = lp.sense == "maximize"
        self.col_names, self.row_names = list(lp.columns), list(lp.rows)
        self.n_struct = n = len(self.col_names)
        self.n_rows = m = len(self.row_names)
        self.A = lp.block if lp.block is not None else densify(lp)
        rows, columns = lp.rows.values(), lp.columns.values()
        self.b = np.array([row.rhs for row in rows], dtype=float)
        self.lo = np.array([col.lower for col in columns] +
                           [-INF if row.relation == ">=" else 0.0 for row in rows])
        self.up = np.array([col.upper for col in columns] +
                           [INF if row.relation == "<=" else 0.0 for row in rows])
        self.c_ext = np.zeros(n + m)
        self.c_ext[:n] = [col.objective for col in columns]

        # internal objective is always minimized
        self.c_int = -self.c_ext if self.maximizing else self.c_ext.copy()
        self.names = self.col_names + [f"slack:{r}" for r in self.row_names]


class _State:
    def __init__(self, internal: _Internal):
        self.prob = internal
        self.A = internal.A
        self.b = internal.b
        self.lo = internal.lo.copy()
        self.up = internal.up.copy()
        self.n_total = internal.A.shape[1]
        self.basis: list[int] = []
        self.in_basis = np.zeros(self.n_total, dtype=bool)
        self.at_upper = np.zeros(self.n_total, dtype=bool)
        self.x = np.zeros(self.n_total)
        self.artificial_from = self.n_total  # columns >= this index are artificial
        self.art_rows = np.zeros(0, dtype=np.intp)  # the row each artificial serves
        self.iterations = 0
        self.Binv: np.ndarray | None = None  # B^-1 in basis order; _start sets it
        self.pivots = 0  # pivots since B^-1 was last inverted afresh

    def nonbasic_value(self, j: int) -> float:
        if self.at_upper[j]:
            return self.up[j]
        if self.lo[j] > -INF:
            return self.lo[j]
        return 0.0

    def nonbasic_values(self) -> np.ndarray:
        """``nonbasic_value`` of every column at once."""
        return np.where(self.at_upper, self.up, np.where(self.lo > -INF, self.lo, 0.0))

    def resting_rhs(self) -> np.ndarray:
        """Rest every nonbasic column at its value; the rhs the basics must meet."""
        nonbasic = ~self.in_basis
        self.x[nonbasic] = self.nonbasic_values()[nonbasic]
        return self.b - self.A[:, nonbasic] @ self.x[nonbasic]

    def refresh_basics(self) -> None:
        self.x[self.basis] = _solve(self.A[:, self.basis], self.resting_rhs())

    def reinvert(self) -> None:
        """Invert the basis afresh and recompute the basic values in full."""
        self.Binv = _inverse(self.A[:, self.basis])
        self.refresh_basics()
        self.pivots = 0

    def multipliers(self, cost: np.ndarray) -> np.ndarray:
        return _solve(self.A[:, self.basis].T, cost[self.basis])


def _rest(internal: _Internal, basis: list[int], at_upper: np.ndarray) -> _State:
    """State with ``basis`` basic and every other column at the bound ``at_upper`` picks."""
    st = _State(internal)
    st.basis = basis
    st.in_basis[basis] = True
    st.at_upper[:] = at_upper
    return st


def _start(st: _State) -> _State | None:
    """Basic values of a resting state, and one signed phase-1 artificial per
    row whose basic slack breaks its bounds (the slack rests at the violated
    bound).  The basis is inverted here unless the state already carries its
    ``B^-1``; an artificial of sign -1 in a slack's place negates that row of
    it.  None where the basis is singular or a value is infinite or a basic
    structural column is out of bounds."""
    n, m = st.prob.n_struct, st.prob.n_rows
    if st.Binv is None:
        try:
            st.Binv = _inverse(st.A[:, st.basis])
        except SolverFailureError:  # singular, or not one basic column per row
            return None
    st.x[st.basis] = st.Binv @ st.resting_rhs()
    if not np.isfinite(st.x).all():
        return None
    out = (st.x < st.lo - FEAS_TOL) | (st.x > st.up + FEAS_TOL)
    if out[:n].any():
        return None
    art_rows = out[n:].nonzero()[0]
    if art_rows.size:
        k = art_rows.size
        block = np.zeros((m, k))
        for t, i in enumerate(art_rows.tolist()):
            s = n + i
            st.at_upper[s] = st.x[s] > st.up[s]
            block[i, t] = 1.0 if st.x[s] > st.nonbasic_value(s) else -1.0
            pos = st.basis.index(s)
            st.Binv[pos] *= block[i, t]  # exact: B' = B with column pos scaled by it
            st.basis[pos] = st.n_total + t
        st.A = np.hstack([st.A, block])
        st.lo = np.concatenate([st.lo, np.zeros(k)])
        st.up = np.concatenate([st.up, np.full(k, INF)])
        st.x = np.concatenate([st.x, np.zeros(k)])
        st.at_upper = np.concatenate([st.at_upper, np.zeros(k, dtype=bool)])
        st.artificial_from = st.n_total
        st.art_rows = art_rows
        st.n_total += k
        st.in_basis = np.zeros(st.n_total, dtype=bool)
        st.in_basis[st.basis] = True
        st.x[st.basis] = st.Binv @ st.resting_rhs()
    return st


def _iterate(st: _State, cost: np.ndarray) -> str:
    """Run simplex iterations on the current phase cost; returns optimal|unbounded.

    Basic values and ``st.Binv`` must be current on entry, so phase 2 carries
    on with phase 1's ``B^-1``.  ``B^-1`` is inverted afresh (and basic values
    recomputed in full) once ``st.pivots`` reaches ``_REFACTOR_EVERY``; in
    between, each pivot applies a rank-1 update and basic values move by the
    step taken.  The basic columns' costs and bounds and the mask of movable
    nonbasic columns follow each pivot.
    """
    A, lo, up = st.A, st.lo, st.up
    free = (lo == -INF) & (up == INF)
    basis = np.array(st.basis, dtype=np.intp)
    c_B, lo_B, up_B = cost[basis], lo[basis], up[basis]
    movable = lo != up
    can_enter = movable & ~st.in_basis  # nonbasic columns that can move
    stalled = 0  # consecutive pivots that left the basic values where they were
    while True:
        if st.iterations >= MAX_ITERATIONS:
            raise SolverFailureError(f"iteration cap {MAX_ITERATIONS} exceeded")
        st.iterations += 1

        if st.pivots == _REFACTOR_EVERY:
            st.reinvert()
        Binv = st.Binv

        d = cost - (c_B @ Binv) @ A

        # eligible: a nonbasic column whose move from its bound improves
        increase = (d < -PIVOT_TOL) & ~st.at_upper
        decrease = (d > PIVOT_TOL) & (st.at_upper | free)
        eligible = (increase | decrease) & can_enter
        if not eligible.any():
            return "optimal"
        if stalled < _BLAND_AFTER:  # Dantzig: largest |d|, ties to the lowest index
            entering = int(np.where(eligible, np.abs(d), -1.0).argmax())
        else:  # Bland: lowest index
            entering = int(eligible.argmax())
        direction = 1.0 if d[entering] < -PIVOT_TOL else -1.0

        w = Binv @ A[:, entering]
        delta = direction * w

        t_flip = INF
        if lo[entering] > -INF and up[entering] < INF:
            t_flip = up[entering] - lo[entering]

        x_B = st.x[basis]
        falling = (delta > PIVOT_TOL) & (lo_B > -INF)
        rising = (delta < -PIVOT_TOL) & (up_B < INF)
        candidates = (falling | rising).nonzero()[0]
        gaps = np.where(falling, x_B - lo_B, up_B - x_B)[candidates]
        steps = np.maximum(0.0, gaps / np.abs(delta[candidates]))

        # sequential ratio test: ties within _RATIO_TIE go to the lowest basic index
        t_best = INF
        leave_pos = -1
        for pos, t in zip(candidates.tolist(), steps.tolist()):
            if t < t_best - _RATIO_TIE:
                t_best, leave_pos = t, pos
            elif t <= t_best + _RATIO_TIE and (leave_pos < 0 or st.basis[pos] < st.basis[leave_pos]):
                t_best, leave_pos = min(t, t_best), pos

        if t_flip == INF and t_best == INF:
            return "unbounded"

        if t_flip <= t_best:
            st.x[basis] = x_B - t_flip * delta
            st.at_upper[entering] = not st.at_upper[entering]
            st.x[entering] = st.nonbasic_value(entering)
            stalled = 0
            continue

        stalled = stalled + 1 if t_best == 0.0 else 0
        st.x[basis] = x_B - t_best * delta
        st.x[entering] = st.nonbasic_value(entering) + direction * t_best
        bi = st.basis[leave_pos]
        st.at_upper[bi] = delta[leave_pos] < 0  # increased to its upper bound
        st.in_basis[bi] = False
        st.x[bi] = st.nonbasic_value(bi)
        st.basis[leave_pos] = entering
        basis[leave_pos] = entering
        st.in_basis[entering] = True
        c_B[leave_pos], lo_B[leave_pos] = cost[entering], lo[entering]
        up_B[leave_pos] = up[entering]
        can_enter[bi], can_enter[entering] = movable[bi], False

        pivot_row = Binv[leave_pos] / w[leave_pos]
        Binv -= w[:, None] * pivot_row
        Binv[leave_pos] = pivot_row
        st.pivots += 1


def _expel_artificials(st: _State) -> bool:
    """After phase 1, swap basic artificials for structural/slack columns where
    possible; True if any was swapped."""
    m = len(st.basis)
    swapped = False
    for pos in range(m):
        bi = st.basis[pos]
        if bi < st.artificial_from:
            continue
        B = st.A[:, st.basis]
        e = np.zeros(m)
        e[pos] = 1.0
        u = _solve(B.T, e)
        replacement = -1
        for j in range(st.artificial_from):
            if st.in_basis[j]:
                continue
            if abs(u @ st.A[:, j]) > PIVOT_TOL:
                replacement = j
                break
        if replacement >= 0:
            st.in_basis[bi] = False
            st.at_upper[bi] = False
            st.basis[pos] = replacement
            st.in_basis[replacement] = True
            swapped = True
    return swapped


def _extract(internal: _Internal, st: _State, status: str) -> LpSolution:
    n, m = internal.n_struct, internal.n_rows
    names = internal.names

    if status != "optimal":
        return LpSolution(status=status, primal={}, duals={}, reduced_costs={},
                          objective_value=math.nan, basis=(),
                          nonbasic_at_upper=(), degenerate=False,
                          iterations=st.iterations)

    st.refresh_basics()
    cost = np.zeros(st.n_total)
    cost[: n + m] = internal.c_int
    y_int = st.multipliers(cost)
    y_ext = -y_int if internal.maximizing else y_int

    x_struct = st.x[:n]
    objective = float(internal.c_ext[:n] @ x_struct) + internal.lp.constant
    reduced_ext = internal.c_ext[:n] - y_ext @ internal.A[:, :n]

    # a basic column other than an artificial sits at a bound
    af = st.artificial_from
    x = st.x[:af]
    gap = np.minimum(np.abs(x - st.lo[:af]), np.abs(x - st.up[:af]))  # inf at an infinite bound
    degenerate = bool((gap[st.in_basis[:af]] <= 1e-9).any())

    basis_names = tuple(
        names[bi] if bi < n + m
        else f"artificial:{internal.row_names[st.art_rows[bi - st.artificial_from]]}"
        for bi in st.basis
    )
    lo, up = st.lo[: n + m], st.up[: n + m]  # fixed columns rest at either bound
    resting_up = ~st.in_basis[: n + m] & st.at_upper[: n + m] & (lo < up)
    at_upper = tuple(names[j] for j in resting_up.nonzero()[0].tolist())

    return LpSolution(
        status="optimal",
        primal=dict(zip(internal.col_names, (x_struct + 0.0).tolist())),
        duals=dict(zip(internal.row_names, (y_ext + 0.0).tolist())),
        reduced_costs=dict(zip(internal.col_names, (reduced_ext + 0.0).tolist())),
        objective_value=objective,
        basis=basis_names,
        nonbasic_at_upper=at_upper,
        degenerate=degenerate,
        iterations=st.iterations,
    )


def _state_at(internal: _Internal, basis: tuple[str, ...],
              nonbasic_at_upper: tuple[str, ...]) -> _State:
    """State resting on a named basis; raises KeyError for a name the program lacks."""
    index = {name: j for j, name in enumerate(internal.names)}
    at_upper = np.zeros(internal.A.shape[1], dtype=bool)
    at_upper[[index[name] for name in nonbasic_at_upper]] = True
    return _rest(internal, [index[name] for name in basis], at_upper)


def _solve_from(internal: _Internal, st: _State) -> LpSolution:
    """Phase 1 if the start needed artificials, then phase 2."""
    if st.n_total > st.artificial_from:
        phase1 = np.zeros(st.n_total)
        phase1[st.artificial_from:] = 1.0
        outcome = _iterate(st, phase1)
        if outcome == "unbounded":  # cannot happen: objective bounded below by 0
            raise SolverFailureError("phase 1 reported unbounded")
        infeasibility = float(st.x[st.artificial_from:].sum())
        if infeasibility > FEAS_TOL:
            return _extract(internal, st, "infeasible")
        st.lo[st.artificial_from:] = 0.0
        st.up[st.artificial_from:] = 0.0
        if _expel_artificials(st):
            st.reinvert()

    cost = np.zeros(st.n_total)
    cost[: internal.n_struct + internal.n_rows] = internal.c_int
    return _extract(internal, st, _iterate(st, cost))


def solve_program(lp: LinearProgram) -> LpSolution:
    internal = _Internal(lp)
    if lp.start is not None:
        try:
            st = _state_at(internal, *lp.start)
        except KeyError:  # unknown column or slack, artificials included
            st = None
        else:
            if lp.start_inverse is not None:
                st.Binv = lp.start_inverse.copy()
            st = _start(st)
        if st is not None:
            sol = _solve_from(internal, st)
            if sol.status == "optimal" and not sol.degenerate:
                return sol
    n, m = internal.n_struct, internal.n_rows
    # the slack basis, every other column at its finite lower bound, else its
    # finite upper bound, else free at zero
    resting = (internal.lo == -INF) & (internal.up < INF)
    st = _start(_rest(internal, list(range(n, n + m)), resting))
    if st is None:  # the slack basis is the identity: only a non-finite value ends here
        raise SolverFailureError("non-finite value at the slack-basis start")
    return _solve_from(internal, st)


def start_inverse(lp: LinearProgram) -> np.ndarray | None:
    """Read-only ``B^-1`` of ``lp.start``'s basis over its block, in the
    start's row order (``LinearProgram.start_inverse``); None without a start,
    or where it names a column the program lacks or its basis is singular."""
    if lp.start is None:
        return None
    internal = _Internal(lp)
    try:
        st = _state_at(internal, *lp.start)
        Binv = _inverse(st.A[:, st.basis])
    except (KeyError, SolverFailureError):
        return None
    Binv.flags.writeable = False
    return Binv


def solution_from_basis(lp: LinearProgram, basis: tuple[str, ...],
                        nonbasic_at_upper: tuple[str, ...]) -> LpSolution:
    """Rebuild the solution a given basis identifies; audits solver output."""
    internal = _Internal(lp)
    return _extract(internal, _state_at(internal, basis, nonbasic_at_upper), "optimal")


def cost_range(lp: LinearProgram, basis: tuple[str, ...],
               nonbasic_at_upper: tuple[str, ...], column: str) -> tuple[float, float]:
    """Open interval of a basic ``column``'s objective coefficient over which a
    named basis stays optimal with every nonbasic column that can move priced
    strictly out (cost ranging): with ``column`` basic in row r, changing its
    minimize-form cost by delta moves each reduced cost by -delta*(B^-1 A)_{r,j}.
    Empty, ``(c, c)`` at the coefficient ``c``, where the basis is not optimal
    or a column that can move prices out at zero (a tie)."""
    internal = _Internal(lp)
    st = _state_at(internal, basis, nonbasic_at_upper)
    q = internal.col_names.index(column)
    if q not in st.basis:
        raise ValueError(f"column {column!r} is not basic")
    e = np.zeros(internal.n_rows)
    e[st.basis.index(q)] = 1.0
    alpha = _solve(st.A[:, st.basis].T, e) @ st.A
    d = internal.c_int - st.multipliers(internal.c_int) @ st.A
    # a column at its lower bound prices out with d > 0, one at its upper with d < 0
    movable = ~st.in_basis & (st.lo < st.up)
    side = np.where(st.at_upper, -1.0, 1.0)[movable]
    d, alpha = side * d[movable], side * alpha[movable]
    c = lp.columns[column].objective
    if (d <= PIVOT_TOL).any():
        return c, c
    # side * (d - delta * alpha) > 0, for delta on the internal minimize cost
    above = float(np.min(d[alpha > 0] / alpha[alpha > 0], initial=INF))
    below = float(np.max(d[alpha < 0] / alpha[alpha < 0], initial=-INF))
    return (c - above, c - below) if internal.maximizing else (c + below, c + above)
