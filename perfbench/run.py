"""End-to-end and per-layer benchmark of pitchcut.

    python3 perfbench/run.py --workload cutloop|oracle|implied|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One process runs one workload: set-up (timed several times, median
reported), then passes over the workload's fixed job list until the
time is up.  Every answer is compared with its exact pin.  The last
line of standard output is the result object; the line before it holds
the facts of the run (kernel backends, Python version, cores, seed).
``--trace 1`` runs untraced passes, then traced ones, and reports the
per-layer metrics instead.  ``--workload all`` runs each workload in a
process of its own and prints a table.  ``--smoke`` runs one small job
list per workload once and checks its pins.

Exit status: 0 when every answer matches its pin, 1 when any job raised
or mismatched (the result is still printed), 2 when the benchmark
cannot start, e.g. because the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
MODULES = ("core", "ratlp", "kernels", "knapdp", "sep", "cutloop", "gaplab",
           "cli")
WORKLOADS = ("cutloop", "oracle", "implied")
SETUP_REPS = 5
# cutloop needs two passes so its median job is the same case each run
MIN_PASSES = {"cutloop": 2, "oracle": 1, "implied": 1}
CASES = ("lemma4-25", "ola-16", "wild-fs", "random")
# files under src/ that setup.py may compile
EXT_SOURCES = (".pyx", ".pxd", ".c", ".h", ".cpp")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- building and importing the program ---------------------------------

def _build_key():
    """Digest of setup.py and the extension's sources under src/."""
    digest = hashlib.sha256()
    for path in [ROOT / "setup.py"] + sorted(
            p for p in SRC.rglob("*") if p.suffix in EXT_SOURCES):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def build_extension():
    """Build the optional compiled kernels in place; returns this run's
    build status for the facts line.

    The build is redone whenever setup.py or an extension source has
    changed since the last successful build, or that build failed.  A
    rebuild first deletes the compiled modules under src/, so a stale
    one is never imported.  At a commit whose setup.py builds nothing
    the run then uses the fallback kernels, which the facts record.
    """
    if not (ROOT / "setup.py").is_file():
        raise SetupError("no setup.py in %s: the package sources are missing"
                         % ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    stamp = WORK / "build.key"
    key = _build_key()
    if stamp.is_file() and stamp.read_text(encoding="utf-8").strip() == key:
        return "ok:unchanged"
    stamp.unlink(missing_ok=True)
    for lib in [p for p in SRC.rglob("*") if p.suffix in (".so", ".pyd")]:
        lib.unlink()
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force",
         "--build-temp", str(WORK / "temp")],
        cwd=ROOT, env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
        check=False)
    (WORK / "build.log").write_bytes(proc.stdout)
    if proc.returncode != 0:
        return "failed:%d" % proc.returncode
    # keyed after the build, so sources it regenerates count as built
    stamp.write_text(_build_key() + "\n", encoding="utf-8")
    return "ok:built"


def import_pitchcut():
    """Fresh import of the package from this checkout's sources.

    The compiled extension stays loaded: an extension module cannot be
    re-initialised, and its import is not pitchcut's set-up work.
    """
    for name in [m for m in sys.modules
                 if m == "pitchcut" or m.startswith("pitchcut.")]:
        if name != "pitchcut._speedups":
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("pitchcut")
    except ImportError as exc:
        raise SetupError("cannot import pitchcut from %s: %s" % (SRC, exc))
    if Path(package.__file__).resolve().parent != SRC / "pitchcut":
        raise SetupError("pitchcut imported from %s, not from %s"
                         % (package.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("pitchcut." + m)
                              for m in MODULES})


# -- set-up ---------------------------------------------------------------

def load_pins():
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read %s: %s" % (PINS.name, exc))


def make_jobs(pc, workload, seed, pins, prepared, smoke):
    if workload == "cutloop":
        return workloads.cutloop_jobs(pc, seed, pins, WORK, smoke)
    if workload == "oracle":
        return workloads.oracle_jobs(pc, seed, pins, smoke)
    return workloads.implied_jobs(pc, prepared)


def set_up(workload, seed, smoke, reps):
    """Returns (pc, jobs, setup seconds).  Set-up is import plus input
    generation, normalisation and enumeration through pitchcut; it runs
    ``reps`` times and the median counts.  The harness's filtering of
    implied targets runs once beforehand and is not timed."""
    pins = load_pins()
    WORK.mkdir(parents=True, exist_ok=True)
    pc = import_pitchcut()
    prepared = None
    if workload == "implied":
        prepared = workloads.implied_targets(pc, seed, smoke)
    spans = []
    with speed.Sampler() as sampler:
        for _ in range(reps):
            start = perf_counter()
            pc = import_pitchcut()
            jobs = make_jobs(pc, workload, seed, pins, prepared, smoke)
            spans.append((start, perf_counter()))
    return pc, jobs, statistics.median(sampler.nominal(*s) for s in spans)


# -- measuring ----------------------------------------------------------

class Passes:
    """Durations, job times and failures of a series of passes.

    Job times are in nominal seconds (see speed.py); a pass's duration
    is the sum of its job times.
    """

    def __init__(self):
        self.durations = []
        self.raw_durations = []
        self.probe_s = []        # median probe time of each pass
        self.samples = []        # nominal seconds of every job
        self.job_times = []      # one {name: nominal seconds} per pass
        self.attempted = 0
        self.failures = []

    def run(self, jobs):
        spans = []
        with speed.Sampler() as sampler:
            for job in jobs:
                start = perf_counter()
                try:
                    answer = job.call()
                except Exception as exc:  # a failed job is counted, not fatal
                    answer = "raised %s: %s" % (type(exc).__name__, exc)
                spans.append((job.name, start, perf_counter()))
                self.attempted += 1
                if not job.check(answer):
                    self.failures.append((job.name, answer))
        times = {}
        for name, start, end in spans:
            seconds = sampler.nominal(start, end)
            self.samples.append(seconds)
            times[name] = times.get(name, 0.0) + seconds
        self.durations.append(sum(times.values()))
        self.raw_durations.append(sum(end - start for _, start, end in spans))
        self.probe_s.append(statistics.median(sampler.probes))
        self.job_times.append(times)

    def run_for(self, jobs, seconds, min_passes):
        """Passes until the next one would end after ``seconds``."""
        start = perf_counter()
        while True:
            lap = perf_counter()
            self.run(jobs)
            now = perf_counter()
            if (len(self.durations) >= min_passes
                    and now - start + (now - lap) > seconds):
                return


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def case_seconds(passes):
    """Median over passes of each cutloop case; random sums its jobs."""
    out = {}
    for case in CASES:
        per_pass = []
        for times in passes.job_times:
            if case == "random":
                per_pass.append(sum(v for k, v in times.items()
                                    if k.startswith("random-")))
            else:
                per_pass.append(times.get(case, 0.0))
        out[case] = statistics.median(per_pass)
    return out


def measure(workload, seed, seconds, trace):
    pc, jobs, setup_s = set_up(workload, seed, smoke=False, reps=SETUP_REPS)
    backends = tracing.BackendCounter(pc.kernels)
    untraced = Passes()
    try:
        if not trace:
            untraced.run_for(jobs, seconds, MIN_PASSES[workload])
            passes = [untraced]
        else:
            untraced.run_for(jobs, seconds / 2, 1)
            before = backends.split()
            tracer = tracing.Tracer(pc)
            tracer.install()
            traced = Passes()
            try:
                traced.run_for(jobs, seconds / 2, 1)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
    finally:
        backends.close()
    split = backends.split()

    if trace:
        n_traced = len(traced.durations)
        metrics = tracing.layer_metrics(
            tracer.spans, n_traced,
            sum(traced.durations) / sum(traced.raw_durations))
        for kernel, counts in split.items():
            for backend in ("compiled", "python"):
                metrics["kernels.%s.%s_calls" % (kernel, backend)] = (
                    (counts[backend] - before[kernel][backend]) / n_traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.durations)
            / statistics.median(untraced.durations))
        cases = case_seconds(untraced) if workload == "cutloop" else {}
        for case in CASES:
            metrics["case_s." + case] = cases.get(case, 0.0)
    else:
        samples = untraced.samples
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(untraced.durations),
            "job_ms_p50": statistics.median(samples) * 1000.0,
            "job_ms_p90": statistics.quantiles(
                samples, n=10, method="inclusive")[8] * 1000.0,
            "peak_rss_mb": peak_rss_mb(),
        }

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    facts = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "have_speedups": bool(pc.kernels.HAVE_SPEEDUPS),
        "kernel_backend": split,
        "passes": [len(p.durations) for p in passes],
        "jobs_per_pass": len(jobs),
        "job_samples": len(untraced.samples),
        "raw_pass_s": statistics.median(untraced.raw_durations),
        "probe_ms": [1000 * p for p in untraced.probe_s],
        "fail_ratio": len(failures) / attempted,
    }
    if workload == "cutloop":
        facts["case_s"] = case_seconds(untraced)
    return metrics, facts, attempted, failures


# -- output -------------------------------------------------------------

def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for the mode."""
    try:
        spec = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read BENCHMARK.json: %s" % exc)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(metrics, facts, attempted, failures, trace):
    units = metric_units(trace)
    differ = set(units) ^ set(metrics)
    if differ:
        raise SetupError("metrics differ from BENCHMARK.json: %s"
                         % sorted(differ))
    for name, answer in failures[:5]:
        print("pin mismatch in %s: %s" % (name, answer), file=sys.stderr)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if failures else 0


def run_all(args):
    """Each workload in its own process (so peak RSS is its own), then a
    table of every metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print("%s: no result (exit %d)" % (workload, proc.returncode))
            status = max(status, 1)
            continue
        facts = json.loads(lines[-2])["facts"]
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        print("%s  seed=%s passes=%s backend=%s" % (
            workload, facts["seed"], facts["passes"],
            "compiled" if facts["have_speedups"] else "python"))
        for name, metric in result["metrics"].items():
            print("  %-40s %14.6g %s"
                  % (name, metric["value"], metric["unit"]))
        print("  %-40s %14.6g ratio (%d/%d)" % (
            "fail_ratio", facts["fail_ratio"], result["failed"],
            result["attempted"]))
        for case, value in facts.get("case_s", {}).items():
            print("  %-40s %14.6g s" % ("case_s." + case, value))
    return status


def smoke():
    """One small job list per workload, run once, pins checked."""
    status = 0
    for workload in WORKLOADS:
        start = perf_counter()
        pc, jobs, _ = set_up(workload, 3003, smoke=True, reps=1)
        passes = Passes()
        passes.run(jobs)
        for name, answer in passes.failures:
            print("pin mismatch in %s: %s" % (name, answer), file=sys.stderr)
        print("smoke %-8s %5d jobs %d failed  %.2f s  backend=%s" % (
            workload, passes.attempted, len(passes.failures),
            perf_counter() - start,
            "compiled" if pc.kernels.HAVE_SPEEDUPS else "python"))
        if passes.failures:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        build = build_extension()
        if args.smoke:
            return smoke()
        if args.workload == "all":
            return run_all(args)
        metrics, facts, attempted, failures = measure(
            args.workload, args.seed, args.seconds, args.trace)
        facts["build"] = build
        return report(metrics, facts, attempted, failures, args.trace)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
