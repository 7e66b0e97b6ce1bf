"""Exact rational LP solver: bounded-variable primal simplex, Bland's rule.

Small and deliberate.  All arithmetic is exact, so there are no
tolerances anywhere.  The tableau keeps each row as Python ints over
one positive denominator per row, reduced to lowest terms after every
update, so a pivot costs integer multiplies and one gcd per row rather
than a Fraction per entry.  The point, the bounds and the ratio-test
limits stay Fraction, and the API takes and returns Fraction.
Optimality, feasibility and duality are checked exactly on every
optimal solve; a failed check raises VerificationError, also under
python -O.  Variable bounds are kept out of the row system (nonbasic
variables sit at a finite lower or a finite upper bound) and rows get
one slack each.  The start point is the all-upper-bounds point when it
satisfies every row, else the all-lower-bounds point; only rows that
the start point violates get an artificial column, and phase 1 runs
only when there is one, so infeasibility is detected there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .core import VerificationError

SENSES = (">=", "<=", "=")

_MAX_PIVOTS = 200000


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
        lb = Fraction(lb)
        ub = None if ub is None else Fraction(ub)
        if ub is not None and ub < lb:
            raise ValueError("upper bound below lower bound")
        self.lower.append(lb)
        self.upper.append(ub)
        self.objective.append(Fraction(obj))
        return len(self.lower) - 1

    def add_row(self, coefficients, sense, rhs):
        if sense not in SENSES:
            raise ValueError("sense must be one of %r" % (SENSES,))
        coefficients = {int(j): Fraction(w) for j, w in coefficients.items()}
        for j in coefficients:
            if not 0 <= j < self.n_vars:
                raise ValueError("row references unknown variable %d" % j)
        self.rows.append((coefficients, sense, Fraction(rhs)))
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


def _integer_row(values):
    """Integers nums and den > 0 with values[j] == nums[j] / den."""
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _nonzero(row):
    return [(j, w) for j, w in enumerate(row) if w]


def _eliminate(row, den, col, pivot_row, nonzero):
    """Subtract the multiple of the pivot row that zeroes row[col].

    The pivot row is normalized: its entry in col equals its
    denominator, and nonzero lists its (column, entry) pairs.  Returns
    the new (row, den) in lowest terms; row may be updated in place.
    """
    g = gcd(pivot_row[col], row[col])
    scale, factor = pivot_row[col] // g, row[col] // g
    if scale != 1:
        row = [w * scale for w in row]
        den *= scale
    for j, w in nonzero:
        row[j] -= factor * w
    return _reduced(row, den)


class _Tableau:
    """One simplex run over the expanded column system.

    Columns are structural variables, then one slack per row (sign -1
    for >= rows so slacks keep bounds [0, inf)), then one artificial per
    row that the start point violates, in row order.  Nonbasic
    structurals start at their upper bounds when that point satisfies
    every row (see _upper_point_feasible), else at their lower bounds.
    A row whose slack fits its bounds at the start point starts with
    the slack basic, any other row with its artificial basic.
    Artificials carry the phase-1 objective and are frozen to [0, 0]
    afterwards.

    Row i of the tableau is T[i][j] / D[i]: Python ints over one
    positive denominator, kept in lowest terms, with its basic column
    a unit column (T[i][basis[i]] == D[i]).  The reduced-cost row
    d[j] / dden = c_j - (c_B^T T)_j of the cost being run is built once
    per run and then updated by every pivot like any other row.
    """

    def __init__(self, model):
        m = len(model.rows)
        nv = model.n_vars
        self.m = m
        self.nv = nv
        self.model = model
        self.lower = list(model.lower)
        self.upper = list(model.upper)
        for j, lb in enumerate(self.lower):
            if lb is None:
                raise ValueError("variable %d needs a finite lower bound" % j)
        self.slack_sign = []
        for _, sense, _ in model.rows:
            self.slack_sign.append(-1 if sense == ">=" else 1)
            self.lower.append(Fraction(0))
            self.upper.append(Fraction(0) if sense == "=" else None)

        start = self.upper if _upper_point_feasible(model) else self.lower
        self.xval = start[:nv] + [Fraction(0)] * m
        residuals = []
        fits = []
        for i, (coefficients, sense, rhs) in enumerate(model.rows):
            residual = rhs - sum(
                w * self.xval[j] for j, w in coefficients.items()
            )
            slack = residual * self.slack_sign[i]
            residuals.append(residual)
            fits.append(slack == 0 if sense == "=" else slack >= 0)
        n_art = fits.count(False)
        self.ncols = nv + m + n_art
        self.lower.extend([Fraction(0)] * n_art)
        self.upper.extend([None] * n_art)
        self.xval.extend([Fraction(0)] * n_art)

        # dense row system A x = b over all columns, each row scaled so
        # that its basic column has coefficient +1
        self.T = []
        self.D = []
        self.basis = []
        artificial = nv + m
        for i, (coefficients, _, _) in enumerate(model.rows):
            den = lcm(*(w.denominator for w in coefficients.values()))
            row = [0] * self.ncols
            for j, w in coefficients.items():
                row[j] = w.numerator * (den // w.denominator)
            row[nv + i] = self.slack_sign[i] * den
            if fits[i]:
                basic, sign = nv + i, self.slack_sign[i]
            else:
                basic, sign = artificial, -1 if residuals[i] < 0 else 1
                row[basic] = sign * den
                artificial += 1
            if sign < 0:
                row = [-w for w in row]
            row, den = _reduced(row, den)
            self.T.append(row)
            self.D.append(den)
            self.basis.append(basic)
            self.xval[basic] = residuals[i] * sign
        self.d = None  # the reduced-cost row, set by run
        self.dden = 1

    def is_artificial(self, j):
        return j >= self.nv + self.m

    def _pivot(self, row, col):
        T, D = self.T, self.D
        prow = T[row]
        if prow[col] < 0:
            prow = [-w for w in prow]
        # divided by its entry in col, the row has denominator prow[col]
        prow, D[row] = _reduced(prow, prow[col])
        T[row] = prow
        nonzero = _nonzero(prow)
        for i in range(self.m):
            if i != row and T[i][col]:
                T[i], D[i] = _eliminate(T[i], D[i], col, prow, nonzero)
        if self.d[col]:
            self.d, self.dden = _eliminate(
                self.d, self.dden, col, prow, nonzero
            )
        self.basis[row] = col

    def run(self, cost):
        """Bland-rule simplex under the given column costs.

        Returns "optimal" or "unbounded"; self.xval holds the point.
        """
        T, D = self.T, self.D
        self.d, self.dden = _integer_row(cost)
        for i, k in enumerate(self.basis):
            if self.d[k]:
                self.d, self.dden = _eliminate(
                    self.d, self.dden, k, T[i], _nonzero(T[i])
                )
        in_basis = set(self.basis)
        for _ in range(_MAX_PIVOTS):
            d = self.d
            enter = -1
            direction = 0
            for j in range(self.ncols):
                dj = d[j]
                if not dj or j in in_basis:
                    continue
                lj, uj = self.lower[j], self.upper[j]
                if uj is not None and lj == uj:
                    continue  # fixed column can never move
                if dj < 0 and self.xval[j] != uj:
                    enter, direction = j, 1
                    break
                if dj > 0 and self.xval[j] != lj:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"

            # ratio test: how far can x_enter move toward its other bound;
            # row i moves x_basis[i] by -g/D[i] per unit step of x_enter
            span = None
            if self.upper[enter] is not None:
                span = self.upper[enter] - self.lower[enter]
            best_t = None
            leave_row = -1
            for i in range(self.m):
                g = T[i][enter] * direction
                if g == 0:
                    continue
                k = self.basis[i]
                if g > 0:
                    limit = (self.xval[k] - self.lower[k]) * D[i] / g
                else:
                    if self.upper[k] is None:
                        continue
                    limit = (self.upper[k] - self.xval[k]) * D[i] / (-g)
                if best_t is None or limit < best_t or (
                    limit == best_t and k < self.basis[leave_row]
                ):
                    best_t = limit
                    leave_row = i
            if best_t is None and span is None:
                return "unbounded"

            flip = best_t is None or (span is not None and span <= best_t)
            # a bound flip moves x_enter by its span, no basis change
            t = span if flip else best_t
            for i in range(self.m):
                g = T[i][enter] * direction
                if g:
                    self.xval[self.basis[i]] -= t * g / D[i]
            self.xval[enter] += direction * t
            if flip:
                continue

            leave = self.basis[leave_row]
            # snap the leaving variable onto the bound it hit
            if T[leave_row][enter] * direction > 0:
                self.xval[leave] = self.lower[leave]
            else:
                self.xval[leave] = self.upper[leave]
            self._pivot(leave_row, enter)
            in_basis.discard(leave)
            in_basis.add(enter)
        raise AssertionError("pivot limit hit, Bland's rule should terminate")

    def drive_out_artificials(self):
        for i in range(self.m):
            if not self.is_artificial(self.basis[i]):
                continue
            target = -1
            for j in range(self.nv + self.m):
                lj, uj = self.lower[j], self.upper[j]
                if uj is not None and lj == uj:
                    continue
                if j not in self.basis and self.T[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                # degenerate swap: the artificial sits at zero, values keep
                self._pivot(i, target)
        # freeze every artificial at zero
        for j in range(self.nv + self.m, self.ncols):
            self.upper[j] = Fraction(0)

    def duals(self):
        """Row duals y_i = slack_sign_i * (c_B^T T)_slack of the last
        run; slacks cost nothing, so that is -slack_sign_i * d_slack."""
        return [
            Fraction(-self.slack_sign[i] * self.d[self.nv + i], self.dden)
            for i in range(self.m)
        ]


def _require(condition, what):
    if not condition:
        raise VerificationError("LP certificate failed: " + what)


def _verify_optimal(model, primal, duals, objective_value):
    """Exact KKT check of an optimal primal/dual pair.

    Raises VerificationError on any failure, which is a solver bug.
    It is an explicit raise, not an assert, so it also runs under -O.
    """
    for j in range(model.n_vars):
        _require(model.lower[j] <= primal[j], "lower bound violated")
        _require(model.upper[j] is None or primal[j] <= model.upper[j],
                 "upper bound violated")
    dual_obj = Fraction(0)
    for (coefficients, sense, rhs), y in zip(model.rows, duals):
        lhs = sum(w * primal[j] for j, w in coefficients.items())
        if sense == ">=":
            _require(lhs >= rhs, "row violated")
            _require(y >= 0, "dual sign")
        elif sense == "<=":
            _require(lhs <= rhs, "row violated")
            _require(y <= 0, "dual sign")
        else:
            _require(lhs == rhs, "equality row violated")
        _require(y == 0 or lhs == rhs, "complementary slackness (rows)")
        dual_obj += y * rhs
    for j in range(model.n_vars):
        d = model.objective[j]
        for (coefficients, _, _), y in zip(model.rows, duals):
            if y and j in coefficients:
                d -= y * coefficients[j]
        if d > 0:
            _require(primal[j] == model.lower[j], "reduced cost sign at lower")
            dual_obj += d * model.lower[j]
        elif d < 0:
            _require(
                model.upper[j] is not None and primal[j] == model.upper[j],
                "reduced cost sign at upper",
            )
            dual_obj += d * model.upper[j]
    _require(dual_obj == objective_value, "strong duality gap")


def _upper_point_feasible(model):
    """True when every variable has a finite upper bound and the
    all-upper-bounds point satisfies every row; lets the solver start
    on a slack basis with no phase 1.  Cut LPs over the [0,1] box hit
    this constantly: valid cuts hold at the all-ones point."""
    if any(ub is None for ub in model.upper):
        return False
    for coefficients, sense, rhs in model.rows:
        lhs = sum(w * model.upper[j] for j, w in coefficients.items())
        if sense == ">=" and lhs < rhs:
            return False
        if sense == "<=" and lhs > rhs:
            return False
        if sense == "=" and lhs != rhs:
            return False
    return True


def _solve_once(model):
    tab = _Tableau(model)
    artificials = range(tab.nv + tab.m, tab.ncols)
    if artificials:
        phase1 = [Fraction(0)] * tab.ncols
        for j in artificials:
            phase1[j] = Fraction(1)
        status = tab.run(phase1)
        assert status == "optimal", "phase 1 is bounded below by zero"
        if sum(tab.xval[j] for j in artificials) > 0:
            return LPSolution(
                status="infeasible", primal=None, objective=None, duals=None
            )
        tab.drive_out_artificials()
    cost = [Fraction(0)] * tab.ncols
    for j in range(tab.nv):
        cost[j] = model.objective[j]
    status = tab.run(cost)
    if status == "unbounded":
        return LPSolution(
            status="unbounded", primal=None, objective=None, duals=None
        )
    primal = tuple(tab.xval[j] for j in range(tab.nv))
    objective_value = sum(
        model.objective[j] * primal[j] for j in range(tab.nv)
    )
    duals = tuple(tab.duals())
    _verify_optimal(model, primal, duals, objective_value)
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
    model object accumulates the generated rows.
    """
    while True:
        solution = _solve_once(model)
        if solution.status != "optimal" or row_callback is None:
            return solution
        new_rows = row_callback(solution)
        new_rows = list(new_rows) if new_rows else []
        if not new_rows:
            return solution
        for coefficients, sense, rhs in new_rows:
            model.add_row(coefficients, sense, rhs)
