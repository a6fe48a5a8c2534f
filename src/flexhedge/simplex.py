"""Dense bounded-variable simplex with Dantzig pricing and basis-based duals.

The solver works on an internal minimize form: one slack column per row turns
every relation into an equality, so the working system is ``[A | I] x = b``
with individual bounds on all columns (``<=`` rows get slack bounds [0, inf),
``>=`` rows (-inf, 0], equalities [0, 0]).  ``[A | I]`` and the names are
read from the program's column layout, a read-only ``Layout`` that ``opf``
shares across an hour layout (``LinearProgram.layout``), else one built for
the solve; right-hand sides, bounds and costs are read at each solve into its
one ``_State``, which ``solution_from_basis`` and ``cost_range`` build too.

Every solve starts from a basis and the bounds the other columns rest at:
the program's ``LinearProgram.start`` if it has one, else the slack basis
with every other column at a finite bound.  One routine (``_start``) inverts
the basis, unless the start's basis is its layout's crash basis
(``Layout.crash``), whose inverse the layout keeps for any start on that
basis, whatever columns rest at their upper bound, and computes the basic
values as ``B^-1`` times the right-hand side; each basic slack that breaks
its bounds rests at the violated bound instead and a signed artificial
column carries the gap in its row, one of sign -1 negating that row of
``B^-1``.  A first phase minimizes the artificials' sum; the second phase
optimizes the true objective from the feasible basis.  A start falls back to the slack basis
when it names a column or slack the program lacks (an ``artificial:`` entry
included), is singular (a basis of the wrong size included), rests a column
at an infinite bound or puts a basic structural column out of bounds; and
also when it ends anywhere but on a non-degenerate optimum, so a program
whose duals are not unique reports the slack-basis solve's vertex.  The OPF hands each hour its
layout's crash basis (``opf._Template.crash``) or an earlier optimal basis this way.

The entering column is the eligible one with the largest reduced cost in
absolute value (Dantzig), ties going to the lowest index.  Eligible means a
merit above ``PIVOT_TOL``: the reduced cost times a sign kept current per
pivot (-1 at a lower bound, +1 at an upper, 0 basic or fixed), or its
magnitude for a free nonbasic column.  Dantzig's rule alone can cycle on
degenerate pivots, so after ``_BLAND_AFTER`` consecutive pivots that leave
the basic values where they were, pricing turns to the lowest eligible index
(Bland 1977) until a pivot moves them again; Bland's rule cannot cycle, so
the iteration cap is only a circuit breaker.  The ratio test takes each
candidate's step as ``(x_B - bound) / delta``, signed so that it equals the
gap over ``|delta|`` bit for bit, and breaks ties by the lowest basic column
index.  A bound flip keeps the basis, so it keeps the reduced costs too: only
the flipped column's merit changes sign.

Each solve inverts its start basis once; phase 2 continues phase 1's
``B^-1`` (inverting afresh only where phase 1's end swapped an artificial
out), and a rank-1 product-form update per pivot (Bartels-Golub;
Forrest-Tomlin 1972) keeps it current, so a pivot costs O(m*n) array work
instead of three fresh O(m^3) solves.  Multipliers are ``c_B B^-1``, the
entering column is ``B^-1 a_q``, and the basic values, kept in basis order,
are updated in place on every pivot and bound flip.  To bound drift the
basis is inverted afresh, and basic values are recomputed in full, every
``_REFACTOR_EVERY`` pivots, counted across both phases.  The updated
quantities only steer pivot choices and the phase-1 feasibility test
(against ``FEAS_TOL``): the reported solution is computed from fresh solves
with the final basis, so a given final basis gives bitwise the same primal
values, duals, reduced costs and objective.
Two starts that end on the same basis set can list it in different row
orders; the fresh solves then factor the basis in that order, and the outputs
can differ in the last few ulps.  A phase that stops on a non-finite reduced
cost, or a non-finite reported value, raises ``SolverFailureError``; the entry
points silence numpy's overflow warnings, so that error reports it alone.

``cost_range`` ranges a basic column's cost at a solve's optimum, from its duals.
"""

from __future__ import annotations

import math
from functools import cached_property

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


class Layout:
    """A column layout's read-only solve data: the slack-augmented ``[A | I]``
    of a program's rows, every column and slack name with its index, and a
    crash basis ``crash`` (a ``LinearProgram.start``, or None) whose ``B^-1``
    ``crash_inverse`` inverts on first use.
    ``opf.Grid`` builds one per layout and study (``LinearProgram.layout``); a
    program without one gets its own at each solve."""

    def __init__(self, lp: LinearProgram, crash=None):
        self.columns, self.rows = list(lp.columns), list(lp.rows)
        n, m = len(self.columns), len(self.rows)
        self.names = self.columns + [f"slack:{r}" for r in self.rows]
        self.index = {name: j for j, name in enumerate(self.names)}
        col_index = {name: j for j, name in enumerate(self.columns)}
        A = np.zeros((m, n + m))
        for i, row in enumerate(lp.rows.values()):
            for cname, coef in row.coeffs.items():
                A[i, col_index[cname]] += coef
            A[i, n + i] = 1.0
        A.flags.writeable = False
        self.A, self.crash = A, crash

    @cached_property
    def crash_inverse(self) -> np.ndarray | None:
        """Read-only ``B^-1`` of the crash basis in its row order; None without
        one, or where it is singular."""
        if self.crash is None:
            return None
        try:
            Binv = _inverse(self.A[:, [self.index[name] for name in self.crash[0]]])
        except SolverFailureError:
            return None
        Binv.flags.writeable = False
        return Binv


class _State:
    """One solve's working state: ``lp``'s right-hand sides, bounds and costs
    over its layout's ``[A | I]`` (minimize form), and a basis with every
    other column resting at a bound.  ``start`` names the basis as
    ``LinearProgram.start`` does (KeyError for a name the layout lacks);
    without one, the slack basis with every other column at its finite lower
    bound, else its finite upper bound, else free at zero."""

    def __init__(self, lp: LinearProgram, layout: Layout,
                 start: tuple[tuple[str, ...], tuple[str, ...]] | None = None):
        self.layout = layout
        self.maximizing = lp.sense == "maximize"
        self.n_struct = n = len(layout.columns)
        self.n_rows = m = len(layout.rows)
        self.A = layout.A
        rows, columns = lp.rows.values(), lp.columns.values()
        self.b = np.array([row.rhs for row in rows], dtype=float)
        self.lo = np.array([col.lower for col in columns] +
                           [-INF if row.relation == ">=" else 0.0 for row in rows])
        self.up = np.array([col.upper for col in columns] +
                           [INF if row.relation == "<=" else 0.0 for row in rows])
        self.c_ext = np.zeros(n + m)
        self.c_ext[:n] = [col.objective for col in columns]
        self.c_int = -self.c_ext if self.maximizing else self.c_ext  # always minimized
        self.constant = lp.constant

        self.n_total = n + m
        if start is None:
            self.basis = list(range(n, n + m))
            self.at_upper = (self.lo == -INF) & (self.up < INF)
        else:
            basis, nonbasic_at_upper = start
            self.at_upper = np.zeros(n + m, dtype=bool)
            self.at_upper[[layout.index[name] for name in nonbasic_at_upper]] = True
            self.basis = [layout.index[name] for name in basis]
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[self.basis] = True
        self.x = np.zeros(n + m)
        self.artificial_from = n + m  # columns >= this index are artificial
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

    def reinvert(self) -> None:
        """Invert the basis afresh and recompute the basic values in full."""
        B = self.A[:, self.basis]
        self.Binv = _inverse(B)
        self.x[self.basis] = _solve(B, self.resting_rhs())
        self.pivots = 0


def _start(st: _State) -> _State | None:
    """Basic values of a resting state, and one signed phase-1 artificial per
    row whose basic slack breaks its bounds (the slack rests at the violated
    bound).  The basis is inverted here unless the state already carries its
    ``B^-1``; an artificial of sign -1 in a slack's place negates that row of
    it.  None where the basis is singular or a value is infinite or a basic
    structural column is out of bounds."""
    n, m = st.n_struct, st.n_rows
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
    step taken.  The basic columns' costs, bounds, finite-bound masks and
    values ``x_B`` follow each pivot in basis order; ``x_B`` is written back
    to ``st.x`` before each return, raise and inversion.  ``sign`` prices
    each column and follows each pivot and bound flip: -1 for a nonbasic
    column at its lower bound, +1 at its upper, 0 for basic and fixed ones.
    A column improves where ``d * sign`` exceeds ``PIVOT_TOL``; the free
    nonbasic columns, ``free``, price by ``|d|`` and leave that list when
    they enter.  A bound flip leaves the basis, ``c_B`` and ``B^-1`` as they
    were, so ``d`` and the merits stand, the flipped column's merit negated
    with its sign.
    """
    A, lo, up = st.A, st.lo, st.up
    basis = np.array(st.basis, dtype=np.intp)
    c_B, lo_B, up_B, x_B = cost[basis], lo[basis], up[basis], st.x[basis]
    has_lo, has_up, movable = lo > -INF, up < INF, lo != up
    has_lo_B, has_up_B = has_lo[basis], has_up[basis]
    sign = np.where(st.at_upper, 1.0, -1.0) * (movable & ~st.in_basis)
    free = (~has_lo & ~has_up & ~st.in_basis).nonzero()[0]
    stalled = 0  # consecutive pivots that left the basic values where they were
    d = None  # the reduced costs, None once a pivot changes the basis
    while True:
        if st.iterations >= MAX_ITERATIONS:
            st.x[basis] = x_B
            raise SolverFailureError(f"iteration cap {MAX_ITERATIONS} exceeded")
        st.iterations += 1

        if d is None:
            if st.pivots == _REFACTOR_EVERY:
                st.x[basis] = x_B
                st.reinvert()
                x_B = st.x[basis]
            Binv = st.Binv
            d = cost - (c_B @ Binv) @ A
            # merit > PIVOT_TOL: a nonbasic column whose move from its bound improves
            merit = d * sign
            if free.size:
                merit[free] = np.abs(d[free])

        entering = int(merit.argmax())  # Dantzig: largest |d|, ties to the lowest index
        if stalled >= _BLAND_AFTER or not merit[entering] > PIVOT_TOL:
            eligible = merit > PIVOT_TOL  # NaN never enters
            if not eligible.any():
                st.x[basis] = x_B
                if not np.isfinite(d).all():  # a NaN merit is never eligible
                    raise SolverFailureError("non-finite value in the optimal solution")
                return "optimal"
            entering = int(eligible.argmax() if stalled >= _BLAND_AFTER  # Bland: lowest index
                           else np.where(eligible, merit, -1.0).argmax())
        direction = 1.0 if d[entering] < -PIVOT_TOL else -1.0

        w = Binv @ A[:, entering]
        delta = w if direction > 0 else -w  # direction * w, bit for bit

        t_flip = INF
        if has_lo[entering] and has_up[entering]:
            t_flip = up[entering] - lo[entering]

        # a basic column falls to its lower bound or rises to its upper; the
        # signed step (x_B - bound) / delta is |gap| / |delta| bit for bit
        falling = (delta > PIVOT_TOL) & has_lo_B
        candidates = (falling | (delta < -PIVOT_TOL) & has_up_B).nonzero()[0]
        steps = np.maximum(0.0, (x_B - np.where(falling, lo_B, up_B))[candidates]
                           / delta[candidates])

        # sequential ratio test: ties within _RATIO_TIE go to the lowest basic index
        t_best = INF
        leave_pos = -1
        for pos, t in zip(candidates.tolist(), steps.tolist()):
            if t < t_best - _RATIO_TIE:
                t_best, leave_pos = t, pos
            elif t <= t_best + _RATIO_TIE and (leave_pos < 0 or st.basis[pos] < st.basis[leave_pos]):
                t_best, leave_pos = min(t, t_best), pos

        if t_flip == INF and t_best == INF:
            st.x[basis] = x_B
            return "unbounded"

        if t_flip <= t_best:  # the basis stays, and so do its prices
            x_B -= t_flip * delta
            st.at_upper[entering] = not st.at_upper[entering]
            st.x[entering] = st.nonbasic_value(entering)
            sign[entering] = -sign[entering]
            merit[entering] = -merit[entering]
            stalled = 0
            continue

        stalled = stalled + 1 if t_best == 0.0 else 0
        x_B -= t_best * delta
        x_B[leave_pos] = st.nonbasic_value(entering) + direction * t_best
        bi = st.basis[leave_pos]
        st.at_upper[bi] = delta[leave_pos] < 0  # increased to its upper bound
        st.in_basis[bi] = False
        st.x[bi] = st.nonbasic_value(bi)
        st.basis[leave_pos] = entering
        basis[leave_pos] = entering
        st.in_basis[entering] = True
        c_B[leave_pos], lo_B[leave_pos], up_B[leave_pos] = cost[entering], lo[entering], up[entering]
        has_lo_B[leave_pos], has_up_B[leave_pos] = has_lo[entering], has_up[entering]
        sign[bi] = (1.0 if st.at_upper[bi] else -1.0) if movable[bi] else 0.0
        sign[entering] = 0.0
        if free.size:
            free = free[free != entering]

        pivot_row = Binv[leave_pos] / w[leave_pos]
        Binv -= np.einsum("i,j->ij", w, pivot_row)
        Binv[leave_pos] = pivot_row
        st.pivots += 1
        d = None


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


def _extract(st: _State, status: str) -> LpSolution:
    n, m = st.n_struct, st.n_rows
    layout = st.layout
    names = layout.names

    if status != "optimal":
        return LpSolution(status=status, primal={}, duals={}, reduced_costs={},
                          objective_value=math.nan, basis=(),
                          nonbasic_at_upper=(), degenerate=False,
                          iterations=st.iterations)

    B = st.A[:, st.basis]
    st.x[st.basis] = _solve(B, st.resting_rhs())
    cost = np.zeros(st.n_total)
    cost[: n + m] = st.c_int
    y_int = _solve(B.T, cost[st.basis])
    y_ext = -y_int if st.maximizing else y_int

    x_struct = st.x[:n]
    objective = float(st.c_ext[:n] @ x_struct) + st.constant
    reduced_ext = st.c_ext[:n] - y_ext @ st.A[:, :n]
    if not (np.isfinite(np.concatenate((x_struct, y_ext, reduced_ext))).all()
            and math.isfinite(objective)):
        raise SolverFailureError("non-finite value in the optimal solution")

    # a basic column other than an artificial sits at a bound
    af = st.artificial_from
    x = st.x[:af]
    gap = np.minimum(np.abs(x - st.lo[:af]), np.abs(x - st.up[:af]))  # inf at an infinite bound
    degenerate = bool((gap[st.in_basis[:af]] <= 1e-9).any())

    basis_names = tuple(
        names[bi] if bi < n + m
        else f"artificial:{layout.rows[st.art_rows[bi - st.artificial_from]]}"
        for bi in st.basis
    )
    lo, up = st.lo[: n + m], st.up[: n + m]  # fixed columns rest at either bound
    resting_up = ~st.in_basis[: n + m] & st.at_upper[: n + m] & (lo < up)
    at_upper = tuple(names[j] for j in resting_up.nonzero()[0].tolist())

    return LpSolution(
        status="optimal",
        primal=dict(zip(layout.columns, (x_struct + 0.0).tolist())),
        duals=dict(zip(layout.rows, (y_ext + 0.0).tolist())),
        reduced_costs=dict(zip(layout.columns, (reduced_ext + 0.0).tolist())),
        objective_value=objective,
        basis=basis_names,
        nonbasic_at_upper=at_upper,
        degenerate=degenerate,
        iterations=st.iterations,
    )


def _solve_from(st: _State) -> LpSolution:
    """Phase 1 if the start needed artificials, then phase 2."""
    if st.n_total > st.artificial_from:
        phase1 = np.zeros(st.n_total)
        phase1[st.artificial_from:] = 1.0
        outcome = _iterate(st, phase1)
        if outcome == "unbounded":  # cannot happen: objective bounded below by 0
            raise SolverFailureError("phase 1 reported unbounded")
        infeasibility = float(st.x[st.artificial_from:].sum())
        if infeasibility > FEAS_TOL:
            return _extract(st, "infeasible")
        st.lo[st.artificial_from:] = 0.0
        st.up[st.artificial_from:] = 0.0
        if _expel_artificials(st):
            st.reinvert()

    cost = np.zeros(st.n_total)
    cost[: st.n_struct + st.n_rows] = st.c_int
    return _extract(st, _iterate(st, cost))


@np.errstate(over="ignore", invalid="ignore")
def solve_program(lp: LinearProgram) -> LpSolution:
    layout = lp.layout or Layout(lp)
    if lp.start is not None:
        try:
            st = _State(lp, layout, lp.start)
        except KeyError:  # unknown column or slack, artificials included
            st = None
        else:
            if layout.crash and lp.start[0] == layout.crash[0] and layout.crash_inverse is not None:
                st.Binv = layout.crash_inverse.copy()  # B^-1 depends on the basis alone
            st = _start(st)
        if st is not None:
            sol = _solve_from(st)
            if sol.status == "optimal" and not sol.degenerate:
                return sol
    st = _start(_State(lp, layout))
    if st is None:  # the slack basis is the identity: only a non-finite value ends here
        raise SolverFailureError("non-finite value at the slack-basis start")
    return _solve_from(st)


@np.errstate(over="ignore", invalid="ignore")
def solution_from_basis(lp: LinearProgram, basis: tuple[str, ...],
                        nonbasic_at_upper: tuple[str, ...]) -> LpSolution:
    """Rebuild the solution a given basis identifies; audits solver output."""
    return _extract(_State(lp, lp.layout or Layout(lp), (basis, nonbasic_at_upper)), "optimal")


@np.errstate(over="ignore", invalid="ignore")
def cost_range(lp: LinearProgram, sol: LpSolution, column: str) -> tuple[float, float]:
    """Open interval of a basic ``column``'s objective coefficient over which
    the basis of ``lp``'s optimum ``sol`` stays optimal with every nonbasic
    column that can move priced strictly out (cost ranging): with ``column``
    basic in row r, changing its minimize-form cost by delta moves each reduced
    cost (from ``sol``'s duals) by -delta*(B^-1 A)_{r,j}.  Empty, ``(c, c)`` at
    the coefficient ``c``, where ``sol`` is degenerate (a start from it falls
    back) or a column that can move prices out at zero (a tie)."""
    c = lp.columns[column].objective
    if sol.degenerate:
        return c, c
    st = _State(lp, lp.layout or Layout(lp), (sol.basis, sol.nonbasic_at_upper))
    q = st.layout.index[column]
    if q not in st.basis:
        raise ValueError(f"column {column!r} is not basic")
    e = np.zeros(st.n_rows)
    e[st.basis.index(q)] = 1.0
    alpha = _solve(st.A[:, st.basis].T, e) @ st.A
    y = np.array([sol.duals[row] for row in st.layout.rows])
    d = st.c_int - (-y if st.maximizing else y) @ st.A
    # a column at its lower bound prices out with d > 0, one at its upper with d < 0
    movable = ~st.in_basis & (st.lo < st.up)
    side = np.where(st.at_upper, -1.0, 1.0)[movable]
    d, alpha = side * d[movable], side * alpha[movable]
    if (d <= PIVOT_TOL).any():
        return c, c
    # side * (d - delta * alpha) > 0, for delta on the internal minimize cost
    above = float(np.min(d[alpha > 0] / alpha[alpha > 0], initial=INF))
    below = float(np.max(d[alpha < 0] / alpha[alpha < 0], initial=-INF))
    return (c - above, c - below) if st.maximizing else (c + below, c + above)
