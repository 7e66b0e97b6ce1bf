"""The three workloads: seeded inputs, job lists and exact-answer pins.

A job is one timed unit of work, a closure over inputs that set-up has
already built.  It returns a canonical text of its answer, which the
pass compares with the job's pin.  Jobs call into pitchcut through
module attributes at call time, so the tracer's wrappers see them.

Pins for seed-drawn inputs come from fixed pools: a pool entry is an
instance generated from its own pool index, and the workload seed only
chooses which entries a run uses.  ``make_pins.py`` computes the pool
answers once; a run compares against them and never against itself.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
from contextlib import redirect_stdout
from fractions import Fraction
from typing import Callable, NamedTuple

F = Fraction

# cutloop
RANDOM_POOL = 32        # seed-drawn cutloop instances with pins
RANDOM_PER_RUN = 2      # keeps wild-fs the median job (see README)
RANDOM_N = 20
# oracle
ORACLE_SIZES = tuple(range(6, 31))
ORACLE_POOL = 16        # pinned queries per size
ORACLE_PER_SIZE = 4     # queries per size in one job list
ORACLE_EPS = F(1, 10)
ORACLE_KC_MAX_N = 16    # exhaustive KC scans 2^n sets in the fallback
# implied: consecutive seeds with at most 200 targets each, up to a fixed
# total, so every workload seed gives a job list of one size.  All
# targets of 50 seeds (the test suite's sweep) vary by 19% in number;
# 100 seeds of at most 200 targets vary by 10%, which moved peak memory
# by 5% across workload seeds.
IMPLIED_TARGETS = 13500
IMPLIED_PER_SEED = 200
QUARTER_GRID = 5        # weights 0, 1/4, 1/2, 3/4, 1

WILD_ARGS = ("--families", "kc,p12,fs", "--fs-trigger", "full")


class Job(NamedTuple):
    name: str
    call: Callable[[], str]
    pin: str
    digest: bool = False     # pin holds a digest of the answer

    def check(self, answer):
        if self.digest:
            answer = digest(answer)
        return answer == self.pin


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- canonical answers --------------------------------------------------

def report_text(report):
    cuts = ",".join("%s:%d" % kv for kv in sorted(report.cut_counts.items()))
    return ("int_opt=%s final_lp=%s gap=%s reason=%s iterations=%d cuts=%s"
            % (report.int_opt, report.final_lp, report.gap, report.reason,
               report.iterations, cuts))


def _cut_text(cut):
    terms = " ".join("%d:%s" % (i, w) for i, w in cut.terms)
    return "%s [%s] >= %s" % (cut.family, terms, cut.rhs)


def _sep_text(result):
    if result is None:
        return "none"
    if type(result).__name__ == "Violated":
        return "violated %s by %s" % (_cut_text(result.cut), result.violation)
    return "certified " + ",".join(str(v) for v in result.ybar)


def _solution_text(sol):
    return "%s %s" % (sol.value, ",".join(str(i) for i in sol.chosen))


# -- input generators (the harness's own, seeded) -----------------------

def random_cutloop_raw(pc, index):
    """Pool instance: n = 20, profits and costs in 64ths, threshold 2."""
    rng = random.Random("cutloop-random-%d" % index)
    while True:
        profits = tuple(F(rng.randint(1, 64), 64) for _ in range(RANDOM_N))
        if sum(profits) >= 2:
            break
    costs = tuple(F(rng.randint(1, 64), 64) for _ in range(RANDOM_N))
    labels = tuple("x%d" % (i + 1) for i in range(RANDOM_N))
    return pc.gaplab.RawInstance(threshold=F(2), labels=labels, costs=costs,
                                 profits=profits)


def oracle_inputs(pc, n, index):
    """Pool query: profits k/256, threshold 35-50% of their sum (so q is
    in the hundreds to thousands), costs in 64ths, and two points.

    The scaled random point lies on the 1/64 grid and is doubled until
    it satisfies the knapsack row; the greedy point is the LP optimum of
    the knapsack row alone.  They give Certified and Violated answers.
    """
    rng = random.Random("oracle-%d-%d" % (n, index))
    ks = [rng.randint(1, 256) for _ in range(n)]
    costs = tuple(F(rng.randint(1, 64), 64) for _ in range(n))
    share = sum(ks) * rng.randint(35, 50) // 100
    labels = tuple("x%d" % (i + 1) for i in range(n))
    raw = pc.gaplab.RawInstance(threshold=F(share, 256), labels=labels,
                                costs=costs,
                                profits=tuple(F(k, 256) for k in ks))
    inst = raw.normalize()
    point = [F(rng.randint(0, 64), 64) for _ in range(n)]
    while sum(p * v for p, v in zip(inst.profits, point)) < 1:
        point = [min(F(1), 2 * v) if v else F(1, 64) for v in point]
    greedy = [F(0)] * n
    covered = F(0)
    density = sorted(range(n),
                     key=lambda i: (inst.costs[i] / inst.profits[i], i))
    for i in density:
        if covered + inst.profits[i] >= 1:
            greedy[i] = (1 - covered) / inst.profits[i]
            break
        greedy[i] = F(1)
        covered += inst.profits[i]
    return inst, tuple(point), tuple(greedy)


def implied_vectors(inst, seed):
    """Quarter-grid weight vectors of criterion 8: the two smallest
    positive weights sum to at least 1 and every cover gets weight at
    least 1.  Weights are in quarters; checking the minimal covers is
    enough because weights are nonnegative.  At most IMPLIED_PER_SEED
    of them, drawn with the instance's seed, in product order."""
    n = inst.n
    p = inst.profits
    covers = [T for r in range(n + 1)
              for T in itertools.combinations(range(n), r)
              if sum(p[i] for i in T) >= 1]
    minimal = [T for T in covers
               if all(sum(p[i] for i in T if i != j) < 1 for j in T)]
    out = []
    for vec in itertools.product(range(QUARTER_GRID), repeat=n):
        positive = sorted(w for w in vec if w)
        if not positive:
            continue
        if sum(positive[:2]) < 4:
            continue
        if all(sum(vec[i] for i in T) >= 4 for T in minimal):
            out.append(vec)
    if len(out) > IMPLIED_PER_SEED:
        keep = sorted(random.Random(seed).sample(range(len(out)),
                                                 IMPLIED_PER_SEED))
        out = [out[k] for k in keep]
    return out


# -- job lists ----------------------------------------------------------

def loop_job(pc, name, inst, config_kwargs, pin):
    def call():
        config = pc.cutloop.LoopConfig(**config_kwargs)
        return report_text(pc.cutloop.run(inst, config))
    return Job(name, call, pin)


def wild_job(pc, path, pin):
    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            code = pc.cli.cli(["cutplane", path, *WILD_ARGS])
        return "exit=%d %s" % (code, " | ".join(out.getvalue().splitlines()))
    return Job("wild-fs", call, pin)


def write_wild(pc, workdir):
    path = workdir / "pitch3-wild.mk"
    path.write_text(pc.gaplab.serialize_instance(pc.gaplab.gen_pitch3_wild()),
                    encoding="utf-8")
    return str(path)


LEMMA4 = dict(families=frozenset({"p12"}), mode="exact", max_iter=40)
KC_P12 = dict(families=frozenset({"kc", "p12"}))


def cutloop_jobs(pc, seed, pins, workdir, smoke=False):
    pinned = pins["cutloop"]
    if smoke:
        jobs = [loop_job(pc, "lemma4-9", pc.gaplab.gen_lemma4(9).normalize(),
                          LEMMA4, pinned["lemma4-9"])]
        picks = [seed % RANDOM_POOL]
    else:
        jobs = [
            loop_job(pc, "lemma4-25", pc.gaplab.gen_lemma4(25).normalize(),
                      LEMMA4, pinned["lemma4-25"]),
            loop_job(pc, "ola-16", pc.gaplab.gen_ola(16).normalize(),
                      KC_P12, pinned["ola-16"]),
        ]
        picks = random.Random(seed).sample(range(RANDOM_POOL), RANDOM_PER_RUN)
    jobs.append(wild_job(pc, write_wild(pc, workdir), pinned["wild-fs"]))
    for index in picks:
        inst = random_cutloop_raw(pc, index).normalize()
        jobs.append(loop_job(pc, "random-%d" % index, inst, KC_P12,
                              pinned["random"][index]))
    return jobs


def oracle_answer(pc, inst, points):
    knapdp, sep = pc.knapdp, pc.sep
    parts = [
        "exact " + _solution_text(knapdp.solve_exact(inst, inst.costs)),
        "fptas " + _solution_text(
            knapdp.solve_fptas(inst, inst.costs, ORACLE_EPS)),
    ]
    for x in points:
        parts.append(_sep_text(sep.separate_pitch12(inst, x)))
        parts.append(_sep_text(
            sep.separate_pitch12(inst, x, eps=ORACLE_EPS, mode="fptas")))
        if inst.n <= ORACLE_KC_MAX_N:
            parts.append(_sep_text(
                sep.separate_kc(inst, x, mode="exhaustive")))
    return "; ".join(parts)


def oracle_jobs(pc, seed, pins, smoke=False):
    rng = random.Random(seed)
    if smoke:
        picks = [(6, seed % ORACLE_POOL), (16, seed % ORACLE_POOL)]
    else:
        picks = [(n, index) for n in ORACLE_SIZES
                 for index in rng.sample(range(ORACLE_POOL), ORACLE_PER_SIZE)]
    jobs = []
    for n, index in picks:
        inst, point, greedy = oracle_inputs(pc, n, index)
        jobs.append(Job("oracle-%d-%d" % (n, index),
                        lambda inst=inst, pts=(point, greedy):
                        oracle_answer(pc, inst, pts),
                        pins["oracle"][str(n)][index], digest=True))
    return jobs


def implied_targets(pc, seed, smoke=False):
    """[(instance seed, target vectors)] over consecutive seeds from
    ``seed``, IMPLIED_TARGETS targets in all; the last seed's targets are
    cut to fit.  With ``smoke``, the first seed only."""
    out = []
    left = IMPLIED_TARGETS
    s = seed
    while left > 0 and not (smoke and out):
        vecs = implied_vectors(implied_instances(pc, [s])[0], s)[:left]
        out.append((s, vecs))
        left -= len(vecs)
        s += 1
    return out


def implied_instances(pc, seeds):
    return [pc.gaplab.gen_random(3 + s % 4, s, p_equals_c=True).normalize()
            for s in seeds]


def implied_jobs(pc, targets):
    """One job per implied_by call; every answer must be True (the
    pitch-2 dominance of criterion 8).  ``targets`` are the harness's
    filtered targets per seed (implied_targets), computed outside the
    timed set-up."""
    seeds = [s for s, _ in targets]
    jobs = []
    for (s, vecs), inst in zip(targets, implied_instances(pc, seeds)):
        family = pc.sep.enumerate_pitch1(inst) + pc.sep.enumerate_pitch2(inst)
        n = inst.n
        for vec in vecs:
            target = pc.core.make_inequality(
                {i: F(w, 4) for i, w in enumerate(vec) if w}, 1, "user")
            jobs.append(Job("implied-%d" % s,
                            lambda t=target, fam=family, n=n:
                            str(pc.sep.implied_by(t, fam, n)),
                            "True"))
    return jobs
