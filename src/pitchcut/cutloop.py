"""Cutting-plane driver and the knapsack-cover rounding step.

run() is row generation through ratlp.solve_lp.  The master LP is the
[0,1] box plus the knapsack row; at each optimum the row callback asks
the enabled separators for a violated cut in a fixed priority order
(knapsack-cover first, then the pitch oracle, then fixed-support) and
returns the single cut the first successful separator reports as the
next row.  The loop stops when nobody finds one or the iteration cap
is hit.  The report records the whole LP value trajectory so
integrality-gap experiments can quote any prefix of it.

round_kc turns a fractional point into an integral cover: take the
coordinates at 1/2 or above, then close the remaining deficit with a
density-greedy prefix over capped residual profits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import knapdp, ratlp, sep
from .core import (
    KnapsackError,
    VerificationError,
    as_point,
    format_cut,
    is_valid,
    natural_row,
)


class RoundResult(NamedTuple):
    chosen: tuple
    cost: Fraction
    guaranteed: bool


def round_kc(inst, xbar):
    """Round xbar to a feasible 0/1 cover via the half-threshold rule.

    S = {i : xbar_i >= 1/2} is taken outright.  If S already covers,
    done.  Otherwise the residual demand b' = 1 - p(S) is met greedily
    by density over the capped profits p'_i = min(p_i, b'), stopping at
    the shortest prefix whose half-sum reaches b' (the prefix one
    shorter is preferred when its full sum already covers).  guaranteed
    reports whether xbar satisfies the knapsack-cover inequality for S;
    when it does, the chosen cover costs at most twice c.xbar.  The
    cover and the cost bound are checked; a breach raises
    VerificationError.
    """
    x = as_point(xbar, inst.n)
    half = Fraction(1, 2)
    S = [i for i in range(inst.n) if x[i] >= half]
    bprime = Fraction(1) - sum(inst.profits[i] for i in S)
    cx = sum(inst.costs[i] * x[i] for i in range(inst.n))
    if bprime <= 0:
        cost = sum(inst.costs[i] for i in S)
        # every taken coordinate is >= 1/2, so cost <= 2 sum_S c_i x_i
        if cost > 2 * cx:
            raise VerificationError("rounding broke its cost guarantee")
        return RoundResult(chosen=tuple(S), cost=cost, guaranteed=True)

    taken = set(S)
    residual = []
    for i in range(inst.n):
        if i in taken:
            continue
        pcap = min(inst.profits[i], bprime)
        if pcap > 0:
            residual.append((inst.costs[i] / pcap, i, pcap))
    residual.sort(key=lambda t: (t[0], t[1]))
    total = sum(pcap for _, _, pcap in residual)
    if total < bprime:
        raise KnapsackError("residual items cannot cover the deficit")

    kc_lhs = sum(min(inst.profits[i], bprime) * x[i]
                 for i in range(inst.n) if i not in taken)
    guaranteed = kc_lhs >= bprime

    prefix = Fraction(0)
    take = None
    for m, (_, _, pcap) in enumerate(residual, start=1):
        before = prefix
        prefix += pcap
        if prefix / 2 >= bprime:
            # half-sum covers at length m; drop the last item when the
            # full sum already covered without it
            take = m - 1 if before >= bprime else m
            break
    if take is None:
        take = len(residual)
        # half the total never reached b', which a point satisfying the
        # knapsack-cover inequality for S cannot produce
        guaranteed = False

    chosen = sorted(S + [i for _, i, _ in residual[:take]])
    covered = sum(inst.profits[i] for i in chosen)
    if covered < 1:
        raise VerificationError("rounding returned a set that does not cover")
    cost = sum(inst.costs[i] for i in chosen)
    if guaranteed and cost > 2 * cx:
        raise VerificationError("rounding broke its cost guarantee")
    return RoundResult(chosen=tuple(chosen), cost=cost, guaranteed=guaranteed)


class CutPool:
    """Deduplicated cut store; optionally validates every insert."""

    def __init__(self, inst, check=False, budget=None):
        self.inst = inst
        self.check = check
        self.budget = budget
        self.cuts = []
        self._keys = set()

    def add(self, ineq):
        key = ineq.key()
        if key in self._keys:
            return False
        if self.check and not is_valid(ineq, self.inst, budget=self.budget):
            raise VerificationError("separator produced an invalid cut: %s"
                                    % format_cut(ineq, self.inst))
        self._keys.add(key)
        self.cuts.append(ineq)
        return True

    def __len__(self):
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)

    def counts(self):
        out = {}
        for cut in self.cuts:
            out[cut.family] = out.get(cut.family, 0) + 1
        return out


@dataclass(frozen=True)
class LoopConfig:
    """Knobs for run().  families picks the separators; priority among
    them is fixed (kc, then p12, then fixed-support)."""

    families: frozenset = frozenset({"kc", "p12"})
    eps: Fraction = Fraction(1, 100)
    mode: str = "exact"
    kc_mode: str = "threshold-heuristic"
    fs_trigger: str = "support"
    fs_pitch_limit: Optional[int] = None
    max_iter: int = 1000
    check_cuts: bool = False
    budget: Optional[int] = None

    def __post_init__(self):
        known = {"kc", "p12", "fixed-support"}
        bad = set(self.families) - known
        if bad:
            raise ValueError("unknown separator families %r" % sorted(bad))
        if self.mode not in ("exact", "fptas"):
            raise ValueError("mode must be 'exact' or 'fptas'")
        if self.fs_trigger not in ("support", "full", "both"):
            raise ValueError("fs_trigger must be 'support', 'full' or 'both'")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(frozen=True)
class GapReport:
    instance_id: str
    int_opt: Fraction
    lp_values: tuple
    final_lp: Fraction
    gap: Fraction
    cut_counts: dict
    reason: str
    modes: dict
    iterations: int


def _fs_supports(inst, xstar, trigger):
    supports = []
    if trigger in ("support", "both"):
        supports.append(tuple(i for i in range(inst.n) if xstar[i] > 0))
    if trigger in ("full", "both"):
        supports.append(tuple(range(inst.n)))
    return [I for I in dict.fromkeys(supports) if I]


def _find_cut(inst, xstar, config):
    """First violated cut in priority order, as (cut, certified).

    cut is None when no enabled separator finds one; certified is the
    pitch oracle's Certified answer when it ran and found nothing, else
    None.
    """
    certified = None
    if "kc" in config.families:
        hit = sep.separate_kc(inst, xstar, mode=config.kc_mode)
        if hit is not None:
            return hit.cut, certified
    if "p12" in config.families:
        result = sep.separate_pitch12(inst, xstar, eps=config.eps,
                                      mode=config.mode, budget=config.budget)
        if isinstance(result, sep.Violated):
            return result.cut, certified
        certified = result
    if "fixed-support" in config.families:
        for I in _fs_supports(inst, xstar, config.fs_trigger):
            result = sep.separate_fixed_support(
                inst, xstar, I, pitch_limit=config.fs_pitch_limit,
                budget=config.budget)
            if result.violated:
                return result.as_cut(), certified
    return None, certified


def run(inst, config, instance_id=""):
    """Drive the cutting-plane loop to one of its three exits.

    The LP value sequence is non-decreasing because rows only ever get
    added, and every cut is new because it is violated at the current
    optimum.  Each re-solve resumes the last one (see ratlp.solve_lp),
    so both are checked on every round: a falling value or a repeated
    cut raises VerificationError, also under python -O.
    'certified' is reported only when the pitch oracle ran and
    certified while knapsack-cover separation (in whatever mode it is
    enabled) stayed silent; a quiet loop without that certificate exits
    as 'no-cut-found'.
    """
    if not instance_id:
        instance_id = "n%d" % inst.n
    int_opt = knapdp.solve_exact(inst, inst.costs, budget=config.budget).value
    pool = CutPool(inst, check=config.check_cuts, budget=config.budget)
    model = ratlp.LPModel()
    for i in range(inst.n):
        model.add_var(lb=0, ub=1, obj=inst.costs[i])
    row = natural_row(inst)
    model.add_row(dict(row.terms), ">=", row.rhs)
    values = []
    reason = None

    def next_cut(solution):
        nonlocal reason
        values.append(solution.objective)
        if len(values) > 1 and values[-1] < values[-2]:
            raise VerificationError("the LP value fell after a cut was added")
        if len(values) > config.max_iter:
            reason = "max-iter"
            return None
        cut, certified = _find_cut(inst, solution.primal, config)
        if cut is None:
            reason = "no-cut-found" if certified is None else "certified"
            return None
        # a cut violated at the current optimum cannot already be a row
        if not pool.add(cut):
            raise VerificationError(
                "separator returned a cut that is already a row: %s"
                % format_cut(cut, inst))
        return [(dict(cut.terms), ">=", cut.rhs)]

    solution = ratlp.solve_lp(model, next_cut)
    # costs are positive and the box is compact, so only optimal happens
    assert solution.status == "optimal"

    final = values[-1]
    gap = int_opt / final
    modes = {}
    if "kc" in config.families:
        modes["kc"] = config.kc_mode
    if "p12" in config.families:
        modes["p12"] = config.mode
    if "fixed-support" in config.families:
        modes["fixed-support"] = "trigger=%s" % config.fs_trigger
        if config.fs_pitch_limit is not None:
            modes["fixed-support"] += ",pitch<=%d" % config.fs_pitch_limit
    return GapReport(
        instance_id=instance_id,
        int_opt=int_opt,
        lp_values=tuple(values),
        final_lp=final,
        gap=gap,
        cut_counts=pool.counts(),
        reason=reason,
        modes=modes,
        iterations=len(values) - 1,
    )
