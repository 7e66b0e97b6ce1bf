"""Exact rational LP solver: bounded-variable primal simplex, Bland's rule.

Small and deliberate.  All arithmetic is exact, so there are no
tolerances anywhere, and a solve does no Fraction arithmetic: Fraction
is only the API, LPModel in and LPSolution out.  Each solve scales
every row once to integers over its own denominator and every bound to
an integer over L, the lcm of the bound denominators.  The tableau
keeps each row as Python ints over one positive denominator per row,
reduced to lowest terms after every update, so a pivot costs integer
multiplies and one gcd per row.  The point lives in the tableau too: an
extra value column holds the basic values, which the row operations
carry like any other column (Bareiss, Math. Comp. 1968), while a flag
per column says which bound a nonbasic variable sits at.  The ratio
test compares its limits as integer pairs by cross-multiplication.
Optimality, feasibility and duality are checked exactly on every
optimal solve, from the model, the primal and the duals alone, with
integer dot products for the rows and the reduced costs; a failed check
raises VerificationError, also under python -O.  Variable bounds are
kept out of the row system (nonbasic variables sit at a finite lower or
a finite upper bound) and rows get one slack each.  The start point is
the all-upper-bounds point when it satisfies every row, else the
all-lower-bounds point; only rows that the start point violates get an
artificial column, and phase 1 runs only when there is one, so
infeasibility is detected there.

Row generation resumes each re-solve rather than starting over.  A
cold solve after rows are added makes the last solve's moves for as
long as no new row wins a ratio test: the new slacks start basic at
cost 0, so the reduced costs and the pricing do not change, and the
ratio tests change only where a new row blocks first.  So the solver
logs each move, replays the new rows through the log to the first move
p that they change, goes back to the state before p by undoing the
moves after it on the final tableau, newest first, appends the new
rows and runs on; a cold build appends its rows to an empty tableau by
the same steps.  Rows in lowest terms, the value column and the
reduced-cost row are canonical for a basis and the nonbasic columns'
bound flags, so that state is the cold solve's bit for bit, and so are
every later pivot, the vertex and the duals.  A solve that needed
phase 1, or a new row that the start point violates, falls back to a
cold solve.  Row generation runs on its own copy of the model, taken
when it starts, so nothing the callback does to the caller's model can
make the tableau disagree with the rows it solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

from .core import VerificationError, _frac, scaled_point

SENSES = (">=", "<=", "=")

_MAX_PIVOTS = 200000
_ZERO = Fraction(0)


class LPModel:
    """min obj.x subject to rows and variable bounds.

    Lower bounds must be finite; upper bounds may be None (unbounded).
    Rows are (coefficient map, sense, rhs) with sense in {>=, <=, =}.
    """

    def __init__(self):
        self.lower = []
        self.upper = []
        self.objective = []
        self.rows = []

    @property
    def n_vars(self):
        return len(self.lower)

    def add_var(self, lb=0, ub=None, obj=0):
        if lb is None:
            raise ValueError(
                "variable %d needs a finite lower bound" % self.n_vars)
        lb = _frac(lb)
        ub = None if ub is None else _frac(ub)
        if ub is not None and ub < lb:
            raise ValueError("upper bound below lower bound")
        self.lower.append(lb)
        self.upper.append(ub)
        self.objective.append(_frac(obj))
        return len(self.lower) - 1

    def add_row(self, coefficients, sense, rhs):
        if sense not in SENSES:
            raise ValueError("sense must be one of %r" % (SENSES,))
        coefficients = {index(j): _frac(w) for j, w in coefficients.items()}
        for j in coefficients:
            if not 0 <= j < self.n_vars:
                raise ValueError("row references unknown variable %d" % j)
        self.rows.append((coefficients, sense, _frac(rhs)))
        return len(self.rows) - 1


@dataclass(frozen=True)
class LPSolution:
    status: str
    primal: tuple
    objective: Fraction
    duals: tuple


def _reduced(row, den):
    # divide out the common factor so that (row, den) is in lowest terms
    g = gcd(den, *row)
    if g != 1:
        row = [w // g for w in row]
        den //= g
    return row, den


def _scaled_row(coefficients, rhs):
    """The row as (den, [(j, int)], int rhs), all over den > 0."""
    den = lcm(rhs.denominator, *(w.denominator for w in coefficients.values()))
    terms = [(j, w.numerator * (den // w.denominator))
             for j, w in coefficients.items()]
    return den, terms, rhs.numerator * (den // rhs.denominator)


def _residuals(rows, point, scale):
    """rhs * scale - a.point for each scaled row, at an integer point
    that is scale times the real one."""
    return [rhs * scale - sum(w * point[j] for j, w in terms)
            for _, terms, rhs in rows]


def _fits(residual, sense):
    # residual = rhs - a.x, scaled by a positive factor
    if sense == ">=":
        return residual <= 0
    if sense == "<=":
        return residual >= 0
    return residual == 0


def _upper_residuals(rows, senses, up, scale):
    """The rows' residuals at the all-upper-bounds point when every
    variable has a finite upper bound and that point satisfies every
    row, else None; lets the solver start on a slack basis with no
    phase 1.  Cut LPs over the [0,1] box hit this constantly: valid
    cuts hold at the all-ones point."""
    if None in up:
        return None
    residuals = _residuals(rows, up, scale)
    if all(map(_fits, residuals, senses)):
        return residuals
    return None


def _nonzero(row):
    """The (column, entry) pairs of a tableau row's nonzero entries.

    The value column, always the last, is named -1, so the list stays
    valid for rows that have gained slack columns since.
    """
    pairs = [(j, w) for j, w in enumerate(row) if w]
    if row[-1]:
        pairs[-1] = (-1, row[-1])
    return pairs


def _eliminate(row, den, col, pivot, nonzero):
    """Subtract the multiple of the pivot row that zeroes row[col].

    The pivot row is normalized: its entry in col is pivot, its
    denominator, and nonzero lists its (column, entry) pairs.  Returns
    the new (row, den) in lowest terms; row may be updated in place.
    """
    g = gcd(pivot, row[col])
    scale, factor = pivot // g, row[col] // g
    if scale != 1:
        row = [w * scale for w in row]
        den *= scale
    for j, w in nonzero:
        row[j] -= factor * w
    return _reduced(row, den)


def _ratio_test(rows, enter, direction, lo, up, best=(0, 0, -1, -1)):
    """The row that blocks x_enter first as it moves in direction.

    rows yields (row, den, basic) triples, each row ending in its value
    entry; row i moves its basic variable by -row[enter] * direction /
    den per unit step of x_enter.  A limit is the pair (num, den),
    den > 0, worth num / (L den).  The smaller limit wins, and on equal
    limits the smaller basic index.  Returns (num, den, basic, i) of
    the winner, i being its position in rows, or best when no row beats
    best; the default best, with basic -1, is beaten by any row.
    """
    best_num, best_den, best_basic, best_i = best
    for i, (row, den, k) in enumerate(rows):
        g = row[enter] * direction
        if not g:
            continue
        if g > 0:
            num = row[-1] - lo[k] * den
        else:
            if up[k] is None:
                continue
            num, g = up[k] * den - row[-1], -g
        if best_basic >= 0:
            left, right = num * best_den, best_num * g
            if left > right or (left == right and k > best_basic):
                continue
        best_num, best_den, best_basic, best_i = num, g, k, i
    return best_num, best_den, best_basic, best_i


def _shift(rows, enter, step):
    # x_enter moves by step with no basis change: a bound flip
    for row in rows:
        if row[enter]:
            row[-1] -= row[enter] * step


def _flips(span, num, den):
    """Whether x_enter moves across its whole span, a bound flip with no
    basis change, rather than pivoting on the row whose limit is
    num / den; the flip wins a tie."""
    return span is not None and span * den <= num


class _Tableau:
    """One simplex run over the expanded column system.

    Columns are structural variables, then one slack per row (sign -1
    for >= rows so slacks keep bounds [0, inf)), then one artificial per
    row that the start point violates, in row order.  Nonbasic
    structurals start at their upper bounds when that point satisfies
    every row (see _upper_residuals), else at their lower bounds.
    A row whose slack fits its bounds at the start point starts with
    the slack basic, any other row with its artificial basic.
    Artificials carry the phase-1 objective and are frozen to [0, 0]
    afterwards.  A build and resume add rows alike: _start_rows, then
    _append.

    Bounds are the ints lo[j] and up[j] (None: no upper bound), the
    real bounds times L.  A nonbasic column sits at up[j] when
    at_upper[j], else at lo[j]; a basic column's flag is False.  Row i
    of the tableau is T[i][j] / D[i] for j < ncols: Python ints over
    one positive denominator, kept in lowest terms, with its basic
    column a unit column (T[i][basis[i]] == D[i]).  T[i][ncols] is the
    value column: x_basis[i] == T[i][ncols] / (L * D[i]).  It starts
    as the residual of the row at the start point and goes through
    every row operation like any other column; moving a nonbasic
    column moves it.  The reduced-cost row d[j] / dden = c_j -
    (c_B^T T)_j of the cost being run has no value entry, is 0 on
    every basic column and is updated by every pivot like any other row.
    All of this is canonical: the basis and the nonbasic columns' flags
    determine every entry, whatever path led to them.

    With no artificial, run logs its moves in moves, so that resume can
    take the tableau on to the same model with more rows.
    """

    def __init__(self, model):
        nv = model.n_vars
        for j, lb in enumerate(model.lower):
            if lb is None:
                raise ValueError("variable %d needs a finite lower bound" % j)
        bounds = [*model.lower, *(ub for ub in model.upper if ub is not None)]
        self.L = L = lcm(*(b.denominator for b in bounds))
        self.lo = [b.numerator * (L // b.denominator) for b in model.lower]
        self.up = [None if b is None else b.numerator * (L // b.denominator)
                   for b in model.upper]

        rows = [_scaled_row(coefficients, rhs)
                for coefficients, _, rhs in model.rows]
        senses = [sense for _, sense, _ in model.rows]
        residuals = _upper_residuals(rows, senses, self.up, L)
        self.at_upper = [residuals is not None] * nv
        # the structurals' start point
        self.start = self.lo[:] if residuals is None else self.up[:]
        if residuals is None:
            residuals = _residuals(rows, self.lo, L)

        # an empty tableau over the structurals, then the rows
        self.nv = self.ncols = nv
        self.m = 0
        self.T = []
        self.D = []
        self.basis = []
        self.slack_sign = []
        self.d = None  # the reduced-cost row, built by run
        self.dden = 1
        self._append(self._start_rows(rows, senses, residuals))
        # what resume needs.  moves logs each move of the last run as
        # (enter, direction, num, den, basic, row, pivot, nonzero):
        # num / den is the ratio-test winner with its basic column, or
        # basic -1 when no row blocks; a pivot has the winner's row and
        # the pivot row's denominator and nonzero entries after the
        # pivot, a bound flip row -1 and nonzero None
        self.moves = [] if self.ncols == nv + self.m else None

    def _start_rows(self, rows, senses, residuals):
        """Scaled rows with their residuals at the start point, as
        (row, den, basic) triples over the current and the new columns.

        Row t's slack is the t-th new column; a row whose slack does not
        fit gets an artificial after the new slacks, basic in its place.
        The basic column has coefficient +1.  Adds the new columns'
        bounds and flags and the slack signs, not the rows.
        """
        first = self.ncols
        fits = list(map(_fits, residuals, senses))
        n_art = fits.count(False)
        artificial = first + len(rows)
        width = artificial + n_art
        new = []
        for t, (den, terms, _) in enumerate(rows):
            basic, sign = first + t, -1 if senses[t] == ">=" else 1
            self.slack_sign.append(sign)
            self.up.append(0 if senses[t] == "=" else None)
            row = [0] * (width + 1)
            for j, w in terms:
                row[j] = w
            row[basic] = sign * den
            if not fits[t]:
                basic, sign = artificial, -1 if residuals[t] < 0 else 1
                row[basic] = sign * den
                artificial += 1
            row[width] = residuals[t]
            if sign < 0:
                row = [-w for w in row]
            new.append((*_reduced(row, den), basic))
        self.lo.extend([0] * (width - first))
        self.up.extend([None] * n_art)
        self.at_upper.extend([False] * (width - first))
        return new

    def _append(self, new):
        """Put start rows in: the new columns go into the rows, before
        the value column, and into the reduced-cost row, then the rows
        go below."""
        ncols, width = self.ncols, len(self.lo)
        for row in self.T:
            row[ncols:ncols] = [0] * (width - ncols)
        if self.d is not None:
            self.d.extend([0] * (width - ncols))
        for row, den, basic in new:
            self.T.append(row)
            self.D.append(den)
            self.basis.append(basic)
        self.m += len(new)
        self.ncols = width

    def is_artificial(self, j):
        return j >= self.nv + self.m

    def _pivot(self, row, col, to_upper):
        """col enters the basis at row; the leaving variable becomes
        nonbasic at its upper bound if to_upper, else at its lower.
        Returns the nonzero entries of the normalized pivot row."""
        T, D, ncols = self.T, self.D, self.ncols
        # fold the entering column's value into the value column, and
        # take the leaving variable's out of it
        bound = self.up[col] if self.at_upper[col] else self.lo[col]
        self.at_upper[col] = False
        if bound:
            for r in T:
                if r[col]:
                    r[ncols] += r[col] * bound
        leave = self.basis[row]
        self.at_upper[leave] = to_upper
        T[row][ncols] -= D[row] * (
            self.up[leave] if to_upper else self.lo[leave])

        prow = T[row]
        if prow[col] < 0:
            prow = [-w for w in prow]
        # divided by its entry in col, the row has denominator prow[col]
        prow, D[row] = _reduced(prow, prow[col])
        T[row] = prow
        nonzero = _nonzero(prow)
        for i in range(self.m):
            if i != row and T[i][col]:
                T[i], D[i] = _eliminate(T[i], D[i], col, D[row], nonzero)
        if self.d[col]:
            self._price_out(col, D[row], nonzero)
        self.basis[row] = col
        return nonzero

    def _price_out(self, col, pivot, nonzero):
        # the reduced-cost row has no value entry
        if nonzero[-1][0] < 0:
            nonzero = nonzero[:-1]
        self.d, self.dden = _eliminate(self.d, self.dden, col, pivot, nonzero)

    def _flip(self, enter, step):
        _shift(self.T, enter, step)
        self.at_upper[enter] = not self.at_upper[enter]

    def run(self, cost):
        """Bland-rule simplex under the given column costs.

        Returns "optimal" or "unbounded"; the value column and at_upper
        hold the point.  The reduced costs are built from cost only when
        there are none, on a new tableau or after phase 1; resume keeps
        them, as new slacks cost nothing.  With a log, each move is
        appended to moves.
        """
        T, D, basis = self.T, self.D, self.basis
        lo, up, at_upper = self.lo, self.up, self.at_upper
        moves = self.moves
        if self.d is None:
            self.d, self.dden = scaled_point(cost)
            for i, k in enumerate(basis):
                if self.d[k]:
                    self._price_out(k, D[i], _nonzero(T[i]))
        for _ in range(_MAX_PIVOTS):
            d = self.d
            enter = -1
            direction = 0
            for j in range(self.ncols):
                dj = d[j]
                if not dj:
                    continue
                if lo[j] == up[j]:
                    continue  # fixed column can never move
                if dj < 0 and not at_upper[j]:
                    enter, direction = j, 1
                    break
                if dj > 0 and at_upper[j]:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"

            # ratio test: how far can x_enter move toward its other bound
            span = None if up[enter] is None else up[enter] - lo[enter]
            num, den, leave, leave_row = _ratio_test(
                zip(T, D, basis), enter, direction, lo, up)
            if leave_row < 0 and span is None:
                return "unbounded"

            if leave_row < 0 or _flips(span, num, den):
                self._flip(enter, direction * span)
                if moves is not None:
                    moves.append((enter, direction, num, den, leave, -1, 0,
                                  None))
                continue

            # the leaving variable lands on the bound it hit
            nonzero = self._pivot(leave_row, enter,
                                  T[leave_row][enter] * direction < 0)
            if moves is not None:
                moves.append((enter, direction, num, den, leave, leave_row,
                               D[leave_row], nonzero))
        raise AssertionError("pivot limit hit, Bland's rule should terminate")

    def resume(self, rows):
        """Take the tableau on to its model with rows appended.

        rows are the model rows, (coefficients, sense, rhs), beyond the
        tableau's own.  They enter at the point of the logged run where
        a cold solve of the larger model would first move differently,
        so that one more run makes exactly the cold solve's moves.
        Returns False, with the tableau unchanged, when that cannot be
        done: the last run needed phase 1, so it was not logged, or a
        new row would need an artificial at the start point.
        """
        if self.moves is None:
            return False
        scaled = [_scaled_row(coefficients, rhs)
                  for coefficients, _, rhs in rows]
        senses = [sense for _, sense, _ in rows]
        residuals = _residuals(scaled, self.start, self.L)
        if not all(map(_fits, residuals, senses)):
            return False
        new = self._start_rows(scaled, senses, residuals)
        lo, up = self.lo, self.up

        # replay the log on the new rows up to the first move whose
        # ratio test a new row wins; the reduced costs stay the same
        # until then, since the new slacks are basic at cost 0
        p = len(self.moves)
        for s, (enter, direction, num, den, basic, _, pivot,
                nonzero) in enumerate(self.moves):
            span = None if up[enter] is None else up[enter] - lo[enter]
            num, den, _, i = _ratio_test(new, enter, direction, lo, up,
                                         (num, den, basic, -1))
            if i >= 0 and not _flips(span, num, den):
                p = s
                break
            if nonzero is None:
                _shift([row for row, _, _ in new], enter, direction * span)
                continue
            bound = lo[enter] if direction > 0 else up[enter]
            for t, (row, row_den, slack) in enumerate(new):
                if row[enter]:
                    row[-1] += row[enter] * bound
                    new[t] = (*_eliminate(row, row_den, enter, pivot,
                                          nonzero), slack)

        # go back to the state before move p: undo the moves after it,
        # newest first
        for enter, direction, _, _, leave, row, _, nonzero in reversed(
                self.moves[p:]):
            if nonzero is None:
                self._flip(enter, -direction * (up[enter] - lo[enter]))
            else:
                self._pivot(row, leave, direction < 0)
        del self.moves[p:]
        self._append(new)
        return True

    def drive_out_artificials(self):
        for i in range(self.m):
            if not self.is_artificial(self.basis[i]):
                continue
            target = -1
            for j in range(self.nv + self.m):
                if self.lo[j] == self.up[j]:
                    continue
                if self.T[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                # degenerate swap: the artificial sits at zero, values keep
                self._pivot(i, target, False)
        # freeze every artificial at zero; phase 2 prices afresh
        for j in range(self.nv + self.m, self.ncols):
            self.up[j] = 0
        self.d = None

    def artificials_at_zero(self):
        # basic values are within bounds, so no artificial is negative
        return not any(self.T[i][self.ncols] > 0
                       for i, k in enumerate(self.basis)
                       if self.is_artificial(k))

    def primal(self, model):
        """The structural part of the point, as Fractions; a nonbasic
        variable takes its bound from the model, which the tableau's
        bounds are scaled from."""
        x = [model.upper[j] if self.at_upper[j] else model.lower[j]
             for j in range(self.nv)]
        for i, k in enumerate(self.basis):
            if k < self.nv:
                x[k] = Fraction(self.T[i][self.ncols], self.L * self.D[i])
        return x

    def duals(self):
        """Row duals y_i = slack_sign_i * (c_B^T T)_slack of the last
        run; slacks cost nothing, so that is -slack_sign_i * d_slack."""
        d, nv = self.d, self.nv
        return [Fraction(-self.slack_sign[i] * d[nv + i], self.dden)
                if d[nv + i] else _ZERO for i in range(self.m)]


def _require(condition, what):
    if not condition:
        raise VerificationError("LP certificate failed: " + what)


def _verify_optimal(model, primal, duals, objective_value, scaled=None):
    """Exact KKT check of an optimal primal/dual pair.

    Raises VerificationError on any failure, which is a solver bug.
    It is an explicit raise, not an assert, so it also runs under -O.
    It reads the model, the primal and the duals, never the tableau,
    and scales the rows itself instead of calling _scaled_row, so that
    a scaling fault in the solver cannot pass its own check.  scaled
    may keep that scaling between the checks of one row-generation
    loop, whose model only ever gains rows: entry i is (den, terms, b)
    for model.rows[i], made when row i is first checked.
    The sums are integer dot products: the primal is scaled to integers
    X over its common denominator P, each row to integers over its own
    denominator, and the reduced costs c - sum_i y_i a_i to integers
    over one common denominator K.
    """
    for j in range(model.n_vars):
        _require(model.lower[j] <= primal[j], "lower bound violated")
        _require(model.upper[j] is None or primal[j] <= model.upper[j],
                 "upper bound violated")
    P = lcm(*(x.denominator for x in primal))
    X = [x.numerator * (P // x.denominator) for x in primal]
    priced = []  # (y, den, terms, b) of the rows with a nonzero dual
    if scaled is None:
        scaled = []
    for i, ((coefficients, sense, rhs), y) in enumerate(
            zip(model.rows, duals)):
        if i == len(scaled):
            den = lcm(rhs.denominator,
                      *(w.denominator for w in coefficients.values()))
            terms = [(j, w.numerator * (den // w.denominator))
                     for j, w in coefficients.items()]
            b = rhs.numerator * (den // rhs.denominator)
            scaled.append((den, terms, b))
        den, terms, b = scaled[i]
        # lhs and b * P are a.x and rhs, both times den * P
        lhs = sum(w * X[j] for j, w in terms)
        if sense == ">=":
            _require(lhs >= b * P, "row violated")
            _require(y >= 0, "dual sign")
        elif sense == "<=":
            _require(lhs <= b * P, "row violated")
            _require(y <= 0, "dual sign")
        else:
            _require(lhs == b * P, "equality row violated")
        if y:
            _require(lhs == b * P, "complementary slackness (rows)")
            priced.append((y, den, terms, b))
    K = lcm(*(y.denominator * den for y, den, _, _ in priced),
            *(c.denominator for c in model.objective))
    reduced = [c.numerator * (K // c.denominator) for c in model.objective]
    dual_obj = 0  # y.rhs times K
    for y, den, terms, b in priced:
        u = y.numerator * (K // (y.denominator * den))  # y / den times K
        dual_obj += u * b
        for j, w in terms:
            reduced[j] -= u * w
    dual_obj *= P  # now times K * P
    for j, d in enumerate(reduced):
        if d > 0:
            _require(primal[j] == model.lower[j], "reduced cost sign at lower")
        elif d < 0:
            _require(
                model.upper[j] is not None and primal[j] == model.upper[j],
                "reduced cost sign at upper",
            )
        # the primal sits on the bound that the term needs
        dual_obj += d * X[j]
    _require(dual_obj * objective_value.denominator
             == objective_value.numerator * K * P, "strong duality gap")


def _solve(model, tab, scaled=None):
    """Run a tableau built from the model, or resumed on it, to its
    answer; scaled goes to _verify_optimal."""
    artificials = range(tab.nv + tab.m, tab.ncols)
    if artificials:
        phase1 = [0] * tab.ncols
        for j in artificials:
            phase1[j] = 1
        status = tab.run(phase1)
        assert status == "optimal", "phase 1 is bounded below by zero"
        if not tab.artificials_at_zero():
            return LPSolution(
                status="infeasible", primal=None, objective=None, duals=None
            )
        tab.drive_out_artificials()
    cost = [0] * tab.ncols
    cost[:tab.nv] = model.objective
    status = tab.run(cost)
    if status == "unbounded":
        return LPSolution(
            status="unbounded", primal=None, objective=None, duals=None
        )
    primal = tuple(tab.primal(model))
    c, cden = scaled_point(model.objective)
    X, P = scaled_point(primal)
    objective_value = Fraction(sum(map(mul, c, X)), cden * P)
    duals = tuple(tab.duals())
    _verify_optimal(model, primal, duals, objective_value, scaled)
    return LPSolution(
        status="optimal",
        primal=primal,
        objective=objective_value,
        duals=duals,
    )


def solve_lp(model, row_callback=None):
    """Solve the model exactly, optionally with row generation.

    When row_callback is given it is called with each optimal solution
    and may return an iterable of (coefficients, sense, rhs) rows to
    append; solving repeats until the callback returns nothing.  The
    model object accumulates copies of the generated rows, but the
    solves run on a copy of the model taken at the start: edits the
    callback makes to model itself, such as a replaced row, a map
    changed in place or a changed bound, are not seen.

    A re-solve does not start over: it replays the new rows through
    the last solve's logged moves up to the first one they change, goes
    back to the state before that move and runs on from there.  Up to
    that move a cold solve of the larger model makes the same moves,
    and the tableau is canonical for its basis and bound flags, so the
    re-solve makes exactly the cold solve's pivots and flips and
    returns the same vertex and duals.  It is a cold solve instead when
    the last solve needed phase 1 or a new row fails at the start
    point.
    """
    if row_callback is None:
        return _solve(model, _Tableau(model))
    solved = LPModel()
    solved.lower = model.lower[:]
    solved.upper = model.upper[:]
    solved.objective = model.objective[:]
    solved.rows = [(dict(coefficients), sense, rhs)
                   for coefficients, sense, rhs in model.rows]
    tab = _Tableau(solved)
    scaled = []
    while True:
        solution = _solve(solved, tab, scaled)
        if solution.status != "optimal":
            return solution
        new_rows = row_callback(solution)
        new_rows = list(new_rows) if new_rows else []
        if not new_rows:
            return solution
        for coefficients, sense, rhs in new_rows:
            solved.add_row(coefficients, sense, rhs)
            coefficients, sense, rhs = solved.rows[-1]
            model.rows.append((dict(coefficients), sense, rhs))
        if not tab.resume(solved.rows[tab.m:]):
            tab = _Tableau(solved)
