"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of pitchcut's modules with thin
wrappers that record one span per call: name, start, end, the index of
the enclosing span and a small result summary.  Every caller inside the
package reaches these functions through a module attribute
(``sep.separate_pitch12``, ``kernels.min_cover_solve``), so patching the
attribute sees every call without touching the package.  Spans stay in
memory and are summarised by ``layer_metrics`` after the traced passes.

The kernel backend of each call is counted apart from the spans, by
wrapping the two backend modules that ``pitchcut.kernels`` dispatches
to.  That counter costs one dict increment per kernel call and stays on
in untraced passes too, so every result records which backend ran.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LAYERS = ("cutloop", "sep", "knapdp", "kernels", "ratlp", "gaplab", "cli")
_KERNEL_FUNCS = {
    "min_cover": "min_cover_solve",
    "max_profit": "max_profit_solve",
    "kc_best_subset": "kc_best_subset",
}
_SEP_FUNCS = {
    "kc": "separate_kc",
    "pitch12": "separate_pitch12",
    "fixed_support": "separate_fixed_support",
    "implied_by": "implied_by",
}
_KNAPDP_FUNCS = ("solve_exact", "solve_fptas", "solve_Palpha")
CUT_FAMILIES = ("kc", "pitch1", "pitch2-canonical", "knapsack-row",
                "fixed-support")


def _cells(kernel, args):
    """DP table cells of one kernel call, computed from its arguments."""
    if kernel == "min_cover":
        r, _, need = args
        return (len(r) + 1) * (max(need, 0) + 1)
    if kernel == "max_profit":
        cost, _, budget, _ = args
        return (len(cost) + 1) * (budget + 1)
    return 1 << len(args[0])


def _sep_hit(family, result):
    if family == "kc":
        return result is not None
    if family == "pitch12":
        return type(result).__name__ == "Violated"
    if family == "fixed_support":
        return bool(result.violated)
    return bool(result)


class _Patches:
    """Module attributes replaced by wrappers, restorable in reverse."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        fn = getattr(module, attr)
        setattr(module, attr, make(fn))
        self._saved.append((module, attr, fn))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


class BackendCounter:
    """Kernel calls per (kernel, backend), counted at the backend modules."""

    def __init__(self, kernels_module):
        self.calls = {}
        self._patches = _Patches()
        backends = [("python", kernels_module._kernels_py)]
        if kernels_module._speedups is not None:
            backends.append(("compiled", kernels_module._speedups))
        for kernel, func in _KERNEL_FUNCS.items():
            for backend in ("compiled", "python"):
                self.calls[kernel, backend] = 0
            for backend, module in backends:
                self._patches.replace(
                    module, func,
                    lambda fn, key=(kernel, backend): self._counted(fn, key))

    def _counted(self, fn, key):
        calls = self.calls

        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    def split(self):
        """{kernel: {"compiled": calls, "python": calls}} so far."""
        return {kernel: {"compiled": self.calls[kernel, "compiled"],
                         "python": self.calls[kernel, "python"]}
                for kernel in _KERNEL_FUNCS}

    def close(self):
        self._patches.restore()


class Tracer:
    """Spans around the public functions of every layer.

    A span is ``[name, start, end, parent, info]``: ``parent`` indexes
    the enclosing span (-1 for none) and ``info`` summarises the result.
    The layer of a span is the part of its name before the first dot.
    """

    def __init__(self, pc):
        self.pc = pc
        self.spans = []
        self._stack = []
        self._patches = _Patches()

    def install(self):
        pc = self.pc

        def wrap(module, attr, name, enter=None, info=None):
            self._patches.replace(module, attr, lambda fn: self._wrap(
                fn, name, enter, info))

        wrap(pc.ratlp, "solve_lp", "ratlp.solve", enter=self._enter_lp,
             info=lambda result, rows: (result.status, rows))
        for family, func in _SEP_FUNCS.items():
            wrap(pc.sep, func, "sep." + family,
                 info=lambda result, _, f=family: _sep_hit(f, result))
        for func in _KNAPDP_FUNCS:
            wrap(pc.knapdp, func, "knapdp." + func)
        for kernel, func in _KERNEL_FUNCS.items():
            wrap(pc.kernels, func, "kernels." + kernel,
                 enter=lambda args, kwargs, k=kernel:
                 (args, kwargs, _cells(k, args)),
                 info=lambda result, cells: cells)
        wrap(pc.cutloop, "run", "cutloop.run",
             info=lambda report, _: (report.iterations,
                                     dict(report.cut_counts)))
        wrap(pc.gaplab, "parse_instance", "gaplab.parse")
        wrap(pc.cli, "cli", "cli.cli")

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, fn, name, enter=None, info=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            state = None
            if enter is not None:
                args, kwargs, state = enter(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(result, state)
            return result

        return traced

    def _enter_lp(self, args, kwargs):
        """Rows at entry, and the row callback wrapped as a span of the
        caller's layer, so row generation is not billed to the LP."""
        model = args[0]
        callback = args[1] if len(args) > 1 else kwargs.get("row_callback")
        if callback is not None:
            caller = (self.spans[self._stack[-1]][0].split(".", 1)[0]
                      if self._stack else "harness")
            callback = self._wrap(callback, caller + ".rowgen")
            args = (model, callback)
            kwargs = {}
        return args, kwargs, len(model.rows)


def layer_metrics(spans, passes, scale):
    """Per-pass averages of the per-layer metrics from recorded spans.

    ``scale`` converts span seconds to the nominal seconds of the
    end-to-end metrics (see speed.py): one factor for all traced passes.
    A call that raised has no result summary and counts as a call only.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = {}
    self_s = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name = {}
    for k, span in enumerate(spans):
        name, start, end = span[:3]
        own = end - start - child[k]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        by_name.setdefault(name, []).append(span)

    def per_pass(value):
        return value / passes

    def ms(name):
        return per_pass(self_s.get(name, 0.0) * scale * 1000.0)

    def infos(name):
        return [s[4] for s in by_name.get(name, ()) if s[4] is not None]

    out = {}
    lp = by_name.get("ratlp.solve", [])
    lp_infos = infos("ratlp.solve")
    out["ratlp.solve.calls"] = per_pass(len(lp))
    out["ratlp.solve.self_ms"] = ms("ratlp.solve")
    lp_index = [k for k, s in enumerate(spans) if s[0] == "ratlp.solve"]
    out["ratlp.solve.ms_p50"] = (
        statistics.median(spans[k][2] - spans[k][1] - child[k]
                          for k in lp_index) * scale * 1000.0
        if lp_index else 0.0)
    # one LP solve per row-generation round; a call without rounds, or
    # one that ends non-optimal, adds one solve more
    rounds = dict.fromkeys(lp_index, 0)
    for name, _, _, parent, _ in spans:
        if parent in rounds and name.endswith(".rowgen"):
            rounds[parent] += 1
    out["ratlp.solves"] = per_pass(sum(
        r if r and spans[k][4] is not None and spans[k][4][0] == "optimal"
        else r + 1 for k, r in rounds.items()))
    out["ratlp.rows_at_solve_mean"] = (
        statistics.fmean(rows for _, rows in lp_infos) if lp_infos else 0.0)
    out["ratlp.rowgen.rounds"] = per_pass(
        sum(c for name, c in calls.items() if name.endswith(".rowgen")))
    for status in ("optimal", "infeasible"):
        out["ratlp.status." + status] = per_pass(
            sum(1 for s, _ in lp_infos if s == status))
    for family in _SEP_FUNCS:
        name = "sep." + family
        hits = sum(1 for hit in infos(name) if hit)
        count = calls.get(name, 0)
        out[name + ".calls"] = per_pass(count)
        out[name + ".hits"] = per_pass(hits)
        out[name + ".self_ms"] = ms(name)
        out[name + ".hit_ratio"] = hits / count if count else 0.0
    for func in _KNAPDP_FUNCS:
        name = "knapdp." + func
        out[name + ".calls"] = per_pass(calls.get(name, 0))
        out[name + ".self_ms"] = ms(name)
    for kernel in _KERNEL_FUNCS:
        name = "kernels." + kernel
        cells = sum(infos(name))
        seconds = self_s.get(name, 0.0) * scale
        out[name + ".calls"] = per_pass(calls.get(name, 0))
        out[name + ".self_ms"] = ms(name)
        out[name + ".cells"] = per_pass(cells)
        out[name + ".cells_per_s"] = cells / seconds if seconds else 0.0
    run_index = {k for k, s in enumerate(spans) if s[0] == "cutloop.run"}
    reports = infos("cutloop.run")
    out["cutloop.run.calls"] = per_pass(calls.get("cutloop.run", 0))
    out["cutloop.run.self_ms"] = ms("cutloop.run")
    out["cutloop.iterations"] = per_pass(sum(it for it, _ in reports))
    out["cutloop.lp_solves"] = per_pass(
        sum(1 for s in lp if s[3] in run_index))
    for family in CUT_FAMILIES:
        out["cutloop.cuts." + family] = per_pass(
            sum(cuts.get(family, 0) for _, cuts in reports))
    out["cli.self_ms"] = ms("cli.cli")
    out["gaplab.parse.self_ms"] = ms("gaplab.parse")
    for layer in LAYERS:
        out["layer_self_ms." + layer] = per_pass(
            layer_self[layer] * scale * 1000.0)
    out["trace.spans"] = per_pass(len(spans))
    return out
