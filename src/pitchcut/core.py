"""Data model for normalized min-knapsack instances and covering cuts.

Everything downstream works on one normal form: threshold scaled to 1,
profits in [0,1] sorted ascending, costs positive, and the common
denominator q with integer profits r_i = p_i * q precomputed.  All
numbers are Fractions; there is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

FAMILIES = (
    "pitch1",
    "pitch2-canonical",
    "kc",
    "fixed-support",
    "user",
    "knapsack-row",
)


class KnapsackError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleInstanceError(KnapsackError):
    """No 0/1 point reaches the threshold."""


class BudgetExceededError(KnapsackError):
    """A pseudo-polynomial table would exceed the configured cell budget."""


class VerificationError(KnapsackError):
    """An exactness check failed: an LP certificate, a cut's validity, a
    separator's violated cut, the KC kernel's score or a rounding
    guarantee.

    In sep: a pitch-1/2 hit with no positive violation, a level-alpha
    solution leaving beta(I) <= 0 (_line2_split), a returned cut whose
    Fraction violation differs from its integer score (_violated, for
    pitch-1/2 and both KC modes), or a fixed-support LP that does not
    end optimal.  In gaplab: the witness checks of the lemma-4 point
    (_check_lemma4_point) and of the wild instance's cuts (_check_wild).

    Any occurrence is a bug in pitchcut, never a property of the input.
    """


def _frac(x):
    # Fraction() accepts int/str/Fraction; floats are refused on purpose.
    # A Fraction is immutable, so it is passed through uncopied.
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted, pass Fraction or int")
    return Fraction(x)


@dataclass(frozen=True)
class Instance:
    """A normalized min-knapsack: min c.x s.t. p.x >= 1, x in {0,1}^n.

    Items are kept in profit-sorted order (ties by input position);
    order[k] is the input index of sorted item k, so labels[order[k]]
    names it.  q is the lcm of the profit denominators and r[k] = p[k]*q.
    """

    profits: tuple
    costs: tuple
    labels: tuple
    order: tuple
    q: int
    r: tuple

    @property
    def n(self):
        return len(self.profits)

    def label(self, k):
        return self.labels[self.order[k]]

    def input_position(self, k):
        return self.order[k]

    def to_input_order(self, values):
        """Reorder a sorted-order vector back to input order."""
        out = [None] * self.n
        for k, v in enumerate(values):
            out[self.order[k]] = v
        return tuple(out)

    def from_input_order(self, values):
        """Reorder an input-order vector into sorted order."""
        if len(values) != self.n:
            raise ValueError("expected %d values, got %d" % (self.n, len(values)))
        return tuple(values[self.order[k]] for k in range(self.n))


def normalize(costs, profits, threshold, labels=None):
    """Build an Instance from raw data.

    Profits are divided by the threshold and capped at 1 (capping does
    not change which 0/1 points are feasible).  Items are then sorted by
    profit, ties broken by input position, and the permutation is kept
    so results can be reported in input order.

    Raises ValueError on nonpositive threshold or costs or negative
    profits, and InfeasibleInstanceError when the capped profits sum to
    less than 1.
    """
    threshold = _frac(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if len(costs) != len(profits):
        raise ValueError("costs and profits must have the same length")
    n = len(costs)
    if labels is None:
        labels = tuple("x%d" % (i + 1) for i in range(n))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValueError("need exactly one label per item")
    c = tuple(_frac(v) for v in costs)
    p_raw = tuple(_frac(v) for v in profits)
    for i, v in enumerate(c):
        if v <= 0:
            raise ValueError("cost of item %s must be positive" % labels[i])
    for i, v in enumerate(p_raw):
        if v < 0:
            raise ValueError("profit of item %s must be nonnegative" % labels[i])
    p = tuple(min(v / threshold, Fraction(1)) for v in p_raw)
    if sum(p) < 1:
        raise InfeasibleInstanceError(
            "total profit %s is below the threshold, no feasible 0/1 point"
            % (sum(p),)
        )
    order = tuple(sorted(range(n), key=lambda i: (p[i], i)))
    p_sorted = tuple(p[i] for i in order)
    c_sorted = tuple(c[i] for i in order)
    q = lcm(*(v.denominator for v in p_sorted)) if n else 1
    r = tuple(int(v * q) for v in p_sorted)
    return Instance(
        profits=p_sorted, costs=c_sorted, labels=labels, order=order, q=q, r=r
    )


def reduce_maxknap(values, weights, capacity=1):
    """Map a max-knapsack (values v, weights w, capacity) to min-knapsack.

    Uses p_i = w_i / (sum(w) - capacity) and c_i = v_i; a min-knapsack
    solution x corresponds to the max-knapsack solution 1 - x.  Returns
    (instance, complement) where complement takes an iterable of chosen
    sorted-order indices and yields the complementary input-order index
    set for the max-knapsack problem.
    """
    capacity = _frac(capacity)
    v = tuple(_frac(x) for x in values)
    w = tuple(_frac(x) for x in weights)
    if any(x <= 0 for x in v) or any(x <= 0 for x in w):
        raise ValueError("values and weights must be positive")
    denom = sum(w) - capacity
    if denom <= 0:
        raise ValueError("total weight must exceed the capacity")
    inst = normalize(v, w, denom)

    def complement(chosen):
        taken = {inst.order[k] for k in chosen}
        return tuple(i for i in range(inst.n) if i not in taken)

    return inst, complement


@dataclass(frozen=True)
class Inequality:
    """A covering cut sum_{i in T} w_i x_i >= rhs over sorted-order indices.

    terms is a tuple of (index, coefficient) pairs sorted by index with
    every coefficient strictly positive; rhs > 0; family is one of
    FAMILIES.
    """

    terms: tuple
    rhs: Fraction
    family: str

    @property
    def support(self):
        return tuple(i for i, _ in self.terms)

    def coefficient(self, i):
        for j, w in self.terms:
            if j == i:
                return w
        return Fraction(0)

    def lhs(self, x):
        return sum(w * x[i] for i, w in self.terms)

    def violation(self, x):
        """Positive iff x violates the cut."""
        return self.rhs - self.lhs(x)

    def key(self):
        # dedup identity: support + coefficients + rhs, family ignored
        return (self.terms, self.rhs)


def make_inequality(coefficients, rhs, family):
    """Build an Inequality from {index: coefficient}, dropping zeros."""
    rhs = _frac(rhs)
    if rhs <= 0:
        raise ValueError("rhs must be positive")
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    terms = []
    for i in sorted(coefficients):
        w = _frac(coefficients[i])
        if w < 0:
            raise ValueError("coefficient of index %d is negative" % i)
        if w > 0:
            terms.append((i, w))
    return Inequality(terms=tuple(terms), rhs=rhs, family=family)


def natural_row(inst):
    """The knapsack row p.x >= 1 as an Inequality (zero profits dropped)."""
    return make_inequality(
        {i: inst.profits[i] for i in range(inst.n) if inst.profits[i] > 0},
        Fraction(1),
        "knapsack-row",
    )


def char_vector(S, n):
    """Characteristic vector of S as a Point (tuple of Fractions)."""
    S = set(S)
    if not S <= set(range(n)):
        raise ValueError("index set not contained in range(%d)" % n)
    return tuple(Fraction(1) if i in S else Fraction(0) for i in range(n))


def as_point(values, n):
    """Coerce a sequence to an exact point in [0,1]^n."""
    x = tuple(_frac(v) for v in values)
    if len(x) != n:
        raise ValueError("expected %d coordinates, got %d" % (n, len(x)))
    for v in x:
        if v < 0 or v > 1:
            raise ValueError("coordinate %s outside [0,1]" % (v,))
    return x


def scaled_point(x):
    """Scale exact rationals to integers over one denominator.

    Returns (a, X) with X the lcm of the denominators (1 when x is
    empty) and x_i = a_i / X for every i.
    """
    X = lcm(*(v.denominator for v in x))
    return [v.numerator * (X // v.denominator) for v in x], X


def compute_pitch(ineq):
    """Minimum k such that the k smallest coefficients reach the rhs.

    Returns len(terms) + 1 when even the full sum falls short; the
    caller decides what to make of such an inequality.
    """
    total = Fraction(0)
    for k, w in enumerate(sorted(w for _, w in ineq.terms)):
        total += w
        if total >= ineq.rhs:
            return k + 1
    return len(ineq.terms) + 1


def is_valid(ineq, inst, budget=None):
    """Exact validity test: min of the lhs over feasible 0/1 points >= rhs."""
    from . import knapdp  # deferred, knapdp imports core

    objective = [Fraction(0)] * inst.n
    for i, w in ineq.terms:
        objective[i] = w
    sol = knapdp.solve_exact(inst, objective, budget=budget)
    return sol.value >= ineq.rhs


def kc_inequality(inst, S):
    """Knapsack cover cut for S: sum_{i not in S} min(p_i, beta) x_i >= beta
    with beta = 1 - sum_{i in S} p_i.  Requires beta > 0."""
    S = set(S)
    beta = Fraction(1) - sum(inst.profits[i] for i in S)
    if beta <= 0:
        raise ValueError("S already covers the threshold, beta = %s" % (beta,))
    coefficients = {}
    for i in range(inst.n):
        if i in S:
            continue
        w = min(inst.profits[i], beta)
        if w > 0:
            coefficients[i] = w
    return make_inequality(coefficients, beta, "kc")


@dataclass(frozen=True)
class Pitch2Canonical:
    """The split behind a canonical pitch-2 cut on support I.

    betaI = 1 - sum of profits outside I; I1 holds the members with
    profit strictly below betaI, I2 the rest.
    """

    I: tuple
    betaI: Fraction
    I1: tuple
    I2: tuple


def line2_split(r, I, bq):
    """Integer coefficients, rhs and family of the cut induced by I.

    r are the integer profits, bq = q * beta(I) > 0.  The canonical
    pitch-2 cut puts 1 on I1 = {i in I : r_i < bq} and 2 on the rest,
    rhs 2; when the split degenerates (|I| < 2, or I1 empty) it is the
    pitch-1 cut on the positive-profit members, rhs 1.
    """
    if len(I) >= 2 and any(r[i] < bq for i in I):
        return {i: 1 if r[i] < bq else 2 for i in I}, 2, "pitch2-canonical"
    return {i: 1 for i in I if r[i] > 0}, 1, "pitch1"


def pitch2_split(inst, I):
    """Split I into (I1, I2) at beta(I), checking each precondition.

    Raises ValueError naming the failed condition: an index outside
    range(n), |I| < 2, beta(I) <= 0, or I1 empty.
    """
    I = tuple(sorted(set(I)))
    if I and not 0 <= I[0] <= I[-1] < inst.n:
        raise ValueError("I is not contained in range(%d)" % inst.n)
    if len(I) < 2:
        raise ValueError("canonical pitch-2 needs |I| >= 2, got %d" % len(I))
    bq = inst.q - sum(inst.r) + sum(inst.r[i] for i in I)
    betaI = Fraction(bq, inst.q)
    if bq <= 0:
        raise ValueError("beta(I) = %s is not positive" % (betaI,))
    coefficients, _, family = line2_split(inst.r, I, bq)
    if family != "pitch2-canonical":
        raise ValueError("I1 is empty: every profit in I reaches beta(I) = %s" % (betaI,))
    I1 = tuple(i for i in I if coefficients[i] == 1)
    I2 = tuple(i for i in I if coefficients[i] == 2)
    return Pitch2Canonical(I=I, betaI=betaI, I1=I1, I2=I2)


def pitch2_canonical(inst, I):
    """Canonical pitch-2 cut: sum_{I1} x_i + 2 sum_{I2} x_i >= 2."""
    split = pitch2_split(inst, I)
    coefficients = {i: Fraction(1) for i in split.I1}
    coefficients.update({i: Fraction(2) for i in split.I2})
    return make_inequality(coefficients, Fraction(2), "pitch2-canonical")


def pitch_reduce(ineq, t):
    """Drop the cheapest variable of a pitch-t cut with rhs 1.

    The result has rhs max(1/2, (t-2)/(t-1)) and pitch at most t-1.
    Requires t >= 2 and rhs exactly 1; ties for the smallest coefficient
    go to the smallest index.
    """
    if t < 2:
        raise ValueError("pitch reduction needs t >= 2")
    if ineq.rhs != 1:
        raise ValueError("rhs must be scaled to 1 before reduction")
    drop = min(ineq.terms, key=lambda iw: (iw[1], iw[0]))[0]
    coefficients = {i: w for i, w in ineq.terms if i != drop}
    rhs = max(Fraction(1, 2), Fraction(t - 2, t - 1))
    return make_inequality(coefficients, rhs, "user")


def format_cut(ineq, inst=None):
    """Render a cut like "x1 + x2 + 2 x4 >= 2" using input-order labels."""

    def name(i):
        return inst.label(i) if inst is not None else "x%d" % (i + 1)

    terms = list(ineq.terms)
    if inst is not None:
        terms.sort(key=lambda iw: inst.input_position(iw[0]))
    parts = []
    for i, w in terms:
        parts.append(name(i) if w == 1 else "%s %s" % (w, name(i)))
    lhs = " + ".join(parts) if parts else "0"
    return "%s >= %s" % (lhs, ineq.rhs)
