"""Outside-in tracing of tdmpc's public functions.

`Tracer.install` replaces each traced function with a timing wrapper in
every tdmpc module that holds it under its own name (a function imported
with `from .pgm import solve_benchmark` is a separate binding in the
importing module, so wrapping the defining module alone would miss those
calls).  Spans are kept in memory; `write` saves them when the run ends.

`pgm_step` runs hundreds of thousands of times per workload, so it gets
no span of its own: each call is timed and added to the span that called
it, and calls made by the controller (`pgm_iterate`) also keep their
individual durations for percentiles.
"""

import math
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, span name); the part of a span name before the dot
# is its layer, the module under src/tdmpc/ that the function lives in
TARGETS = [
    ("plant", "LtiModel.from_continuous", "plant.from_continuous"),
    ("numerics", "solve_dare", "numerics.solve_dare"),
    ("condensed", "build_condensed", "condensed.build"),
    ("pgm", "pgm_config", "pgm.config"),
    ("pgm", "solve_benchmark", "pgm.ref"),
    ("pgm", "pgm_iterate", "pgm.ctrl"),
    ("closed_loop", "run_tdmpc", "closed_loop.tdmpc"),
    ("closed_loop", "run_benchmark", "closed_loop.bench"),
    ("closed_loop", "write_run_csv", "closed_loop.csv_write"),
    ("closed_loop", "cost_JT", "closed_loop.cost"),
    ("closed_loop", "path_vectors", "closed_loop.path"),
    ("closed_loop", "truncate_run", "closed_loop.truncate"),
    ("gap", "eta_tilde_mpc", "gap.eta_tilde_mpc"),
    ("gap", "chain_bound", "gap.chain_bound"),
    ("gap", "complexity_term", "gap.complexity_term"),
    ("gap", "empirical_gap", "gap.empirical_gap"),
    ("gap", "build_gap_report", "gap.build_gap_report"),
    ("certificates", "compute_certificates", "certificates.compute"),
    ("certificates", "sample_gamma", "certificates.sample_gamma"),
    ("certificates", "check_psi_decay", "certificates.psi_check"),
    ("probe", "fit_ediss", "probe.fit"),
    ("probe", "audit_contraction", "probe.audit"),
    ("probe", "lyapunov_finite_horizon", "probe.lyap"),
    ("cli", "main", "cli.main"),
    ("cli", "_write_lines", "cli.write"),
]

NAME, PARENT, START, END, COLUMNS, FAILED = range(6)


def _columns(args):
    """Batch width of the state argument of solve_benchmark(qp, cfg, x, ...)."""
    x = args[2] if len(args) > 2 else None
    return x.shape[1] if getattr(x, "ndim", 1) == 2 else 1


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent, start, end, columns, failed]
        self.stack = []
        self.steps = defaultdict(int)        # parent span -> pgm_step calls
        self.step_s = defaultdict(float)     # parent span -> pgm_step seconds
        self.ctrl_step_s = []                # durations of controller steps

    def reset(self):
        """Drop the recorded spans; the wrappers hold these same containers."""
        for box in (self.spans, self.stack, self.steps, self.step_s, self.ctrl_step_s):
            box.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        width = _columns if name == "pgm.ref" else None

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   width(args) if width else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf()
                stack.pop()

        return traced

    def _wrap_step(self, fn):
        stack, spans = self.stack, self.spans
        steps, step_s, ctrl_step_s = self.steps, self.step_s, self.ctrl_step_s

        def traced_step(*args):
            t0 = perf()
            out = fn(*args)
            dt = perf() - t0
            parent = stack[-1] if stack else -1
            steps[parent] += 1
            step_s[parent] += dt
            if parent >= 0 and spans[parent][NAME] == "pgm.ctrl":
                ctrl_step_s.append(dt)
            return out

        return traced_step

    def install(self):
        """Wrap every target in every loaded tdmpc module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "tdmpc" or k.startswith("tdmpc.")) and m is not None]
        pkg = sys.modules["tdmpc"]
        replace = {}
        for mod_name, attr, name in TARGETS:
            mod = getattr(pkg, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            elif hasattr(mod, attr):
                fn = getattr(mod, attr)
                replace[id(fn)] = self._wrap(name, fn)
        step = sys.modules["tdmpc.pgm"].pgm_step
        replace[id(step)] = self._wrap_step(step)
        # the evaluator is a closure built per call; wrap what the factory returns
        factory = sys.modules["tdmpc.probe"].make_benchmark_evaluator
        replace[id(factory)] = lambda *a, **k: self._wrap("probe.evaluator", factory(*a, **k))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and callable(val):
                    setattr(mod, attr, replace[id(val)])

    def metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = defaultdict(float)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        self_s = [dur[i] - child[i] - self.step_s[i] for i in range(len(spans))]
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[NAME]].append(i)

        def total(name, values=dur):
            return sum(values[i] for i in by_name[name])

        def layer_of(i):
            return spans[i][NAME].split(".")[0]

        ref = by_name["pgm.ref"]
        ctrl = by_name["pgm.ctrl"]
        mains = set(by_name["cli.main"])
        top = [i for i, s in enumerate(spans) if s[PARENT] in mains]
        gap_outer = [i for i in range(len(spans)) if layer_of(i) == "gap"
                     and (spans[i][PARENT] < 0 or layer_of(spans[i][PARENT]) != "gap")]
        instr = [i for i in ref if spans[i][PARENT] >= 0
                 and spans[spans[i][PARENT]][NAME] == "closed_loop.tdmpc"]
        tdmpc_s = total("closed_loop.tdmpc")
        instr_s = sum(dur[i] for i in instr)
        cli_self = sum(self_s[i] for i in mains)
        ref_ms = [1e3 * dur[i] for i in ref]
        step_us = [1e6 * t for t in self.ctrl_step_s]
        return {
            "plant.from_continuous_s": total("plant.from_continuous"),
            "numerics.solve_dare_s": total("numerics.solve_dare"),
            "condensed.build_s": total("condensed.build"),
            "pgm.config_s": total("pgm.config"),
            "pgm.ref_calls": len(ref),
            "pgm.ref_columns": sum(spans[i][COLUMNS] for i in ref),
            "pgm.ref_iters": sum(self.steps[i] for i in ref),
            "pgm.ref_col_iters": sum(self.steps[i] * spans[i][COLUMNS] for i in ref),
            "pgm.ref_s": total("pgm.ref"),
            "pgm.ref_self_s": total("pgm.ref", self_s),
            "pgm.ref_ms_p50": _percentile(ref_ms, 0.50),
            "pgm.ref_ms_p99": _percentile(ref_ms, 0.99),
            "pgm.ref_failures": sum(spans[i][FAILED] for i in ref),
            "pgm.ctrl_calls": len(ctrl),
            "pgm.ctrl_iters": sum(self.steps[i] for i in ctrl),
            "pgm.ctrl_s": total("pgm.ctrl"),
            "pgm.step_us_p50": _percentile(step_us, 0.50),
            "pgm.step_us_p99": _percentile(step_us, 0.99),
            "closed_loop.tdmpc_s": tdmpc_s,
            "closed_loop.bench_s": total("closed_loop.bench"),
            "closed_loop.instr_s": instr_s,
            "closed_loop.instr_share": instr_s / tdmpc_s if tdmpc_s > 0 else 0.0,
            "closed_loop.self_s": sum(self_s[i] for i in range(len(spans))
                                      if layer_of(i) == "closed_loop"),
            "closed_loop.csv_write_s": total("closed_loop.csv_write"),
            "gap.calls": len(gap_outer),
            "gap.s": sum(dur[i] for i in gap_outer),
            "certificates.calls": len(by_name["certificates.compute"]),
            "certificates.s": total("certificates.compute"),
            "certificates.sample_gamma_s": total("certificates.sample_gamma"),
            "certificates.psi_check_s": total("certificates.psi_check"),
            "probe.fit_s": total("probe.fit"),
            "probe.fit_self_s": total("probe.fit", self_s),
            "probe.evaluator_calls": len(by_name["probe.evaluator"]),
            "probe.evaluator_s": total("probe.evaluator"),
            "probe.audit_s": total("probe.audit"),
            "probe.lyap_s": total("probe.lyap"),
            "cli.self_s": cli_self,
            "cli.write_s": total("cli.write"),
            "trace.wall_s": wall_s,
            "trace.top_s": sum(dur[i] for i in top),
            "trace.unattributed_s": wall_s - cli_self - sum(dur[i] for i in top),
            "trace.spans": len(spans),
        }

    def write(self, path):
        """Write the recorded spans as CSV, one row per span."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,columns,failed,steps,step_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r},"
                         f"{s[COLUMNS]},{int(s[FAILED])},{self.steps[i]},{self.step_s[i]!r}\n")
