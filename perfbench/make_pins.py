"""Recompute the exact-answer pins in pins.json from the current program.

    python3 perfbench/make_pins.py

Runs every pinned job once: the fixed cutloop cases, the smoke case,
the whole pool of seed-drawn cutloop instances and the whole pool of
oracle queries, and prints the time each took.  Regenerate only when a
change is meant to alter answers, and say so where the change is
described; the benchmark itself never writes pins.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
import workloads as w


def timed(label, call):
    start = perf_counter()
    answer = call()
    print("%-16s %8.3f s" % (label, perf_counter() - start), file=sys.stderr)
    return answer


def main():
    pc = run.import_pitchcut()
    run.WORK.mkdir(parents=True, exist_ok=True)
    gaplab = pc.gaplab
    cutloop = {}
    for name, raw, config in (
            ("lemma4-25", gaplab.gen_lemma4(25), w.LEMMA4),
            ("ola-16", gaplab.gen_ola(16), w.KC_P12),
            ("lemma4-9", gaplab.gen_lemma4(9), w.LEMMA4)):
        job = w.loop_job(pc, name, raw.normalize(), config, None)
        cutloop[name] = timed(name, job.call)
    job = w.wild_job(pc, w.write_wild(pc, run.WORK), None)
    cutloop["wild-fs"] = timed("wild-fs", job.call)
    cutloop["random"] = [
        timed("random-%d" % index,
              w.loop_job(pc, "", w.random_cutloop_raw(pc, index).normalize(),
                         w.KC_P12, None).call)
        for index in range(w.RANDOM_POOL)]
    oracle = {}
    for n in w.ORACLE_SIZES:
        digests = []
        for index in range(w.ORACLE_POOL):
            inst, point, greedy = w.oracle_inputs(pc, n, index)
            answer = timed("oracle-%d-%d" % (n, index),
                           lambda: w.oracle_answer(pc, inst, (point, greedy)))
            digests.append(w.digest(answer))
        oracle[str(n)] = digests
    pins = {"cutloop": cutloop, "oracle": oracle}
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
