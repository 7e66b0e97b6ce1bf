"""Instance files, generators, and the integrality-gap table.

The on-disk format is line oriented UTF-8 with LF endings: a `minknap 1`
header, one `threshold a/b` line, then one `item <label> cost <a/b>
profit <a/b>` line per item in input order.  `#` starts a comment.
Serialisation writes fractions in lowest terms; the parser reports
failures with line and column.

Generators build the named instance families used in the experiments;
each returns a RawInstance so the exact input order and labels are
fixed once, here, and everything downstream (normalisation, files, the
command line) agrees on them.
"""

from __future__ import annotations

import csv
import random
import re
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import Optional

from . import cutloop, knapdp
from .core import (
    Instance,
    VerificationError,
    _frac,
    compute_pitch,
    is_valid,
    make_inequality,
    natural_row,
    normalize,
)


class ParseError(ValueError):
    """Syntax error in an instance file, located by line and column."""

    def __init__(self, message, line, column):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


@dataclass(frozen=True)
class RawInstance:
    """An instance exactly as written: input order, no normalisation."""

    threshold: Fraction
    labels: tuple
    costs: tuple
    profits: tuple

    @property
    def n(self):
        return len(self.labels)

    def normalize(self) -> Instance:
        return normalize(self.costs, self.profits, self.threshold,
                         labels=self.labels)


_TOKEN = re.compile(r"\S+")
_FRACTION = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_fraction(token, line_no, column):
    if not _FRACTION.match(token):
        raise ParseError("expected a rational a or a/b, got %r" % token,
                         line_no, column)
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ParseError("zero denominator", line_no, column)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def parse_instance(text):
    """Parse the file format into a RawInstance."""
    threshold = None
    labels = []
    costs = []
    profits = []
    seen_header = False
    line_no = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not tokens:
            continue
        word, col = tokens[0]
        if not seen_header:
            if word != "minknap" or len(tokens) != 2 or tokens[1][0] != "1":
                raise ParseError("expected header 'minknap 1'", line_no, col)
            seen_header = True
            continue
        if word == "threshold":
            if threshold is not None:
                raise ParseError("duplicate threshold", line_no, col)
            if len(tokens) != 2:
                raise ParseError("threshold takes one value", line_no, col)
            threshold = _parse_fraction(tokens[1][0], line_no, tokens[1][1])
        elif word == "item":
            if threshold is None:
                raise ParseError("item before threshold", line_no, col)
            if (len(tokens) != 6 or tokens[2][0] != "cost"
                    or tokens[4][0] != "profit"):
                raise ParseError(
                    "expected 'item <label> cost <a/b> profit <a/b>'",
                    line_no, col)
            label = tokens[1][0]
            if label in labels:
                raise ParseError("duplicate label %r" % label,
                                 line_no, tokens[1][1])
            labels.append(label)
            costs.append(_parse_fraction(tokens[3][0], line_no, tokens[3][1]))
            profits.append(_parse_fraction(tokens[5][0], line_no,
                                           tokens[5][1]))
        else:
            raise ParseError("unknown directive %r" % word, line_no, col)
    if not seen_header:
        raise ParseError("empty file, expected 'minknap 1'", line_no + 1, 1)
    if threshold is None:
        raise ParseError("missing threshold", line_no + 1, 1)
    if not labels:
        raise ParseError("no items", line_no + 1, 1)
    return RawInstance(threshold=threshold, labels=tuple(labels),
                       costs=tuple(costs), profits=tuple(profits))


def serialize_instance(raw):
    """Inverse of parse_instance, emitting lowest-terms fractions."""
    for label in raw.labels:
        if not label or "#" in label or any(c.isspace() for c in label):
            raise ValueError("label %r cannot be written to a file" % label)
    lines = ["minknap 1", "threshold %s" % Fraction(raw.threshold)]
    for label, cost, profit in zip(raw.labels, raw.costs, raw.profits):
        lines.append("item %s cost %s profit %s"
                     % (label, Fraction(cost), Fraction(profit)))
    return "\n".join(lines) + "\n"


def _square_root(n):
    s = isqrt(n)
    if s * s != n:
        raise ValueError("n must be a perfect square")
    return s


def gen_lemma4(n, eps=Fraction(1, 8)):
    """Square-root gap family: y covers almost everything, z half, the
    x block fills the rest.  Input order is (y, z, x1..xn)."""
    s = _square_root(n)
    if n < 4:
        raise ValueError("need n >= 4")
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    labels = ("y", "z") + tuple("x%d" % (i + 1) for i in range(n))
    costs = (eps, Fraction(s)) + (Fraction(1),) * n
    profits = (Fraction(n - s), Fraction(n, 2)) + (Fraction(1),) * n
    return RawInstance(threshold=Fraction(n), labels=labels, costs=costs,
                       profits=profits)


def lemma4_point(n):
    """Fractional point (y, z, x) = (1, 2/sqrt(n), 1/(n - sqrt(n) + 1))
    in input order; feasible for the knapsack row and all pitch-1 cuts."""
    s = _square_root(n)
    return (Fraction(1), Fraction(2, s)) + (Fraction(1, n - s + 1),) * n


def gen_ola(n):
    """Two-block family, n unit items plus n light items.  Input order
    is (x1..xn, z1..zn); threshold 1 + 1/sqrt(n)."""
    s = _square_root(n)
    labels = tuple("x%d" % (i + 1) for i in range(n)) \
        + tuple("z%d" % (j + 1) for j in range(n))
    costs = (Fraction(1),) * n + (Fraction(1, s),) * n
    profits = (Fraction(1),) * n + (Fraction(1, n),) * n
    return RawInstance(threshold=Fraction(1) + Fraction(1, s), labels=labels,
                       costs=costs, profits=profits)


def ola_point(n, k):
    """Fractional point x = (1 + 1/sqrt(n))/n, z = k/n in input order."""
    s = _square_root(n)
    if not 1 <= k <= n:
        raise ValueError("k must be in 1..n")
    xval = (Fraction(1) + Fraction(1, s)) / n
    return (xval,) * n + (Fraction(k, n),) * n


def gen_pitch3_wild():
    """Seven unit-cost items whose cover polytope has wild pitch-3
    facets; threshold 41."""
    profits = (5, 6, 11, 16, 17, 18, 21)
    labels = tuple("x%d" % (i + 1) for i in range(7))
    return RawInstance(threshold=Fraction(41), labels=labels,
                       costs=(Fraction(1),) * 7,
                       profits=tuple(Fraction(p) for p in profits))


def gen_random(n, seed, p_equals_c=False):
    """Seeded random instance: profits k/16, resampled as a whole until
    they cover the unit threshold; costs k/16 too, or tied to profits."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    while True:
        profits = tuple(Fraction(rng.randint(1, 16), 16) for _ in range(n))
        if sum(profits) >= 1:
            break
    if p_equals_c:
        costs = profits
    else:
        costs = tuple(Fraction(rng.randint(1, 16), 16) for _ in range(n))
    labels = tuple("x%d" % (i + 1) for i in range(n))
    return RawInstance(threshold=Fraction(1), labels=labels, costs=costs,
                       profits=profits)


@dataclass(frozen=True)
class ExperimentRow:
    family: str
    n: int
    params: str
    int_opt: Optional[Fraction]
    lp_value: Optional[Fraction]
    gap: Optional[Fraction]
    gap_decimal: str
    cuts_kc: int
    cuts_p12: int
    cuts_fs: int
    reason: str
    ms: int


CSV_HEADER = ("family,n,params,int_opt,lp_value,gap,gap_decimal,"
              "cuts_kc,cuts_p12,cuts_fs,reason,ms")


def _twelve_digits(value):
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _row_from_report(family, n, params, report, ms):
    counts = report.cut_counts
    p12 = sum(counts.get(f, 0)
              for f in ("pitch1", "pitch2-canonical", "knapsack-row"))
    return ExperimentRow(
        family=family, n=n, params=params,
        int_opt=report.int_opt, lp_value=report.final_lp, gap=report.gap,
        gap_decimal=_twelve_digits(report.gap),
        cuts_kc=counts.get("kc", 0), cuts_p12=p12,
        cuts_fs=counts.get("fixed-support", 0),
        reason=report.reason, ms=ms)


def _check_lemma4_point(inst, n):
    """The quoted gap needs the paper point inside the pitch-1 closure;
    check that before trusting the row (VerificationError otherwise)."""
    point = inst.from_input_order(lemma4_point(n))
    if natural_row(inst).lhs(point) < 1:
        raise VerificationError("the lemma-4 point violates the knapsack row")
    # exact covering value at the lowest grid level is >= 2 exactly
    # when every pitch-1 inequality holds at the point
    probe = knapdp.solve_Palpha(inst, point, Fraction(1, inst.q))
    if probe.value < 2:
        raise VerificationError("the lemma-4 point violates a pitch-1 cut")


def _run_lemma4(n, eps, max_iter):
    inst = gen_lemma4(n, eps).normalize()
    _check_lemma4_point(inst, n)
    config = cutloop.LoopConfig(families=frozenset({"p12"}), mode="exact",
                                max_iter=max_iter)
    return cutloop.run(inst, config, instance_id="lemma4-%d" % n)


def _run_ola(n, k, max_iter):
    inst = gen_ola(n).normalize()
    # exhaustive knapsack-cover separation only at desk scale
    kc_mode = "exhaustive" if inst.n <= 20 else "threshold-heuristic"
    config = cutloop.LoopConfig(
        families=frozenset({"kc", "p12", "fixed-support"}),
        mode="exact", kc_mode=kc_mode, fs_trigger="full",
        fs_pitch_limit=k, max_iter=max_iter)
    return cutloop.run(inst, config, instance_id="ola-%d-k%d" % (n, k))


WILD_PITCH3 = ((1, 0, 1, 1, 2, 1, 2), 3)
WILD_CG_FACET = ((1, 1, 2, 3, 4, 3, 4), 8)


def _check_wild(inst):
    """The two hand-derived valid inequalities for the 7-item instance:
    a pitch-3 cut and an inverted facet of the integer hull
    (VerificationError when either fails)."""
    w3, rhs3 = WILD_PITCH3
    cut3 = make_inequality({i: w for i, w in enumerate(w3) if w}, rhs3,
                           "user")
    if not (is_valid(cut3, inst) and compute_pitch(cut3) == 3):
        raise VerificationError(
            "the wild pitch-3 cut is not a valid pitch-3 cut")
    wf, rhsf = WILD_CG_FACET
    cutf = make_inequality({i: w for i, w in enumerate(wf) if w}, rhsf,
                           "user")
    if not is_valid(cutf, inst):
        raise VerificationError("the wild facet cut is not valid")


def _run_wild(max_iter):
    inst = gen_pitch3_wild().normalize()
    _check_wild(inst)
    config = cutloop.LoopConfig(families=frozenset({"kc", "p12"}),
                                mode="exact", max_iter=max_iter)
    return cutloop.run(inst, config, instance_id="pitch3-wild")


def _run_random(n, seed, max_iter):
    inst = gen_random(n, seed, p_equals_c=True).normalize()
    config = cutloop.LoopConfig(families=frozenset({"kc", "p12"}),
                                mode="exact", max_iter=max_iter)
    return cutloop.run(inst, config, instance_id="random-%d-s%d" % (n, seed))


GAP_TABLE_FAMILIES = ("lemma4", "ola", "pitch3-wild", "random")


def _or(value, default):
    return default if value is None else value


def experiment_gap_table(family, ns, eps=Fraction(1, 8), k=2, seed=1,
                         max_iter=None):
    """One ExperimentRow per n: build the instance, run the family's
    prescribed cut configuration, measure.  A failing entry becomes an
    error row instead of killing the table, except a failed exactness
    check: VerificationError is a bug in pitchcut and propagates."""
    if family not in GAP_TABLE_FAMILIES:
        raise ValueError("unknown experiment family %r" % family)
    specs = []
    if family == "lemma4":
        eps = _frac(eps)
        params = "eps=%s" % eps
        for n in ns:
            specs.append((n + 2, params,
                          lambda n=n: _run_lemma4(n, eps,
                                                  _or(max_iter, 40))))
    elif family == "ola":
        for n in ns:
            specs.append((2 * n, "k=%d" % k,
                          lambda n=n: _run_ola(n, k, _or(max_iter, 10))))
    elif family == "pitch3-wild":
        specs.append((7, "checks=2/2", lambda: _run_wild(_or(max_iter, 40))))
    else:
        for offset, n in enumerate(ns):
            s = seed + offset
            specs.append((n, "seed=%d,p=c" % s,
                          lambda n=n, s=s: _run_random(n, s,
                                                       _or(max_iter, 60))))
    rows = []
    for n, params, thunk in specs:
        start = time.perf_counter()
        try:
            report = thunk()
        except VerificationError:
            raise
        except Exception as exc:
            ms = int(round((time.perf_counter() - start) * 1000))
            rows.append(ExperimentRow(
                family=family, n=n, params=params, int_opt=None,
                lp_value=None, gap=None, gap_decimal="", cuts_kc=0,
                cuts_p12=0, cuts_fs=0,
                reason="error:%s" % type(exc).__name__, ms=ms))
            continue
        ms = int(round((time.perf_counter() - start) * 1000))
        rows.append(_row_from_report(family, n, params, report, ms))
    return rows


def write_gap_table(rows, stream):
    """CSV with the fixed header; exact fractions plus a 12 significant
    digit decimal rendering of the gap."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow([
            row.family, row.n, row.params,
            "" if row.int_opt is None else str(row.int_opt),
            "" if row.lp_value is None else str(row.lp_value),
            "" if row.gap is None else str(row.gap),
            row.gap_decimal, row.cuts_kc, row.cuts_p12, row.cuts_fs,
            row.reason, row.ms])
