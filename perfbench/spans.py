"""Outside-in layer trace for srcid.

A :class:`Tracer` wraps the public functions of each srcid layer in every
module that binds them (``from .qseries import theta`` binds ``theta`` again
in ``linalg``, ``sources``, ``detreps`` and ``engine``), records one span per
call at the layer boundary and counts the work done there.  srcid itself is
not changed; ``Tracer.uninstall`` puts every original binding back.

A span is (name, start, end, parent).  A call into the layer whose span is
already open (``source_subset_sum`` calling ``rational_F``) stays inside that
span, so each layer's self time is its span duration minus the time covered
by child spans of other layers.  Spans live in flat arrays and are reduced to
metrics when the traced pass ends.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> (module, public functions wrapped under that span)
LAYERS = {
    "qseries.theta": ("qseries", ("theta",)),
    "qseries.qpoch_inf": ("qseries", ("qpoch_inf",)),
    "linalg.det_exact": ("linalg", ("det_exact",)),
    "linalg.det_complex": ("linalg", ("det_complex",)),
    "sources.subset_sum": ("sources", (
        "source_subset_sum", "source_polynomial_form",
        "rational_F", "rational_G", "rational_P", "rational_Q",
        "trig_F", "trig_G", "trig_P", "trig_Q", "trig_lambda_F", "trig_lambda_G",
        "elliptic_F", "elliptic_G", "elliptic_P", "elliptic_Q",
    )),
    "sources.difference_ops": ("sources", (
        "source_via_difference_ops", "apply_difference_product",
    )),
    "detreps.det_rep": ("detreps", ("det_rep", "build_dwbc_matrix", "izergin_korepin")),
    "symmetrize.sym_c": ("symmetrize", ("sym_c",)),
    "symmetrize.sides": ("symmetrize", (
        "lascoux_symmetrized_sides", "lascoux_rhs_via_source", "lascoux_tau_sides",
        "lascoux_tau_rhs_via_source", "reduction_identity_sides",
        "divided_difference", "newton_chain",
    )),
    "wallcross": ("wallcross", (
        "enumerate_dec", "chi_genus_integral", "geometric_sides", "coeff_identity_sides",
        "verify_coeff_identity", "dec_weight", "wallcrossing_sides", "verify_wallcrossing_K",
        "hook_product_identity", "hook_product_limit",
    )),
    "engine.run_case": ("engine", ("run_case",)),
    "cli.report": ("cli", ("_report_json", "_report_csv", "_report_text")),
}
SAMPLING = "engine.sampling"  # PointContext.attempt, a method rather than a module function

# metric name -> unit; the order is the order of BENCHMARK.json's per_layer list
METRICS = {
    "qseries.theta.calls": "count",
    "qseries.theta.self_s": "s",
    "qseries.theta.repeat_share": "share",
    "qseries.qpoch_inf.calls": "count",
    "qseries.qpoch_inf.self_s": "s",
    "qseries.qpoch_inf.factors": "count",
    "symmetrize.sym_c.calls": "count",
    "symmetrize.sym_c.self_s": "s",
    "symmetrize.sym_c.terms": "count",
    "symmetrize.sides.self_s": "s",
    "sources.subset_sum.calls": "count",
    "sources.subset_sum.self_s": "s",
    "sources.subset_sum.subsets": "count",
    "sources.difference_ops.self_s": "s",
    "linalg.det_exact.calls": "count",
    "linalg.det_exact.self_s": "s",
    "linalg.det_exact.ops": "count",
    "linalg.det_complex.calls": "count",
    "linalg.det_complex.self_s": "s",
    "detreps.det_rep.self_s": "s",
    "wallcross.self_s": "s",
    "engine.sampling.draws": "count",
    "engine.sampling.accept_ratio": "share",
    "engine.sampling.errors": "count",
    "engine.sampling.self_s": "s",
    "engine.run_case.self_s": "s",
    "cli.report.self_s": "s",
    "cli.report.bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}


def _subset_size(fn_name, args):
    """Subsets a subset-sum call enumerates: F and P run over v, G and Q over u."""
    if fn_name in ("source_subset_sum", "source_polynomial_form"):
        side, params = args[1], args[2]
    else:
        side, params = fn_name[-1], args[0]
    return 2 ** len(params.v if side in ("F", "P") else params.u)


def _bareiss_ops(n):
    """Fraction operations of Bareiss elimination: 2 mul, 1 sub, 1 div per update."""
    return 4 * (n - 1) * n * (2 * n - 1) // 6


class Tracer:
    """Span recorder and layer counters; use as ``with Tracer(): ...``."""

    def __init__(self):
        self.names: list = []  # span names, indexed by the ids in ``name_ids``
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list = []  # [name, span index, child time]
        self._theta_args: set = set()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span called ``name``; ``count(args, result)`` runs after it."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1][1] if stack else -1)
            self.ends.append(0.0)
            frame = [name, index, 0.0]
            stack.append(frame)
            start = perf_counter()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.ends[index] = end
                duration = end - start
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                count(args, result)
            return result

        return traced

    def nesting_violations(self) -> list:
        """Indices of spans that are not inside their parent span."""
        bad = []
        for i, parent in enumerate(self.parents):
            if parent < 0:
                continue
            if not (self.starts[parent] <= self.starts[i] <= self.ends[i] <= self.ends[parent]):
                bad.append(i)
        return bad

    # -- installation --------------------------------------------------------

    def install(self):
        srcid_modules = [m for name, m in sys.modules.items()
                         if name == "srcid" or name.startswith("srcid.")]
        for span_name, (module_name, fn_names) in LAYERS.items():
            module = sys.modules[f"srcid.{module_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self.span(span_name, original, self._counter(span_name, fn_name))
                for mod in srcid_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        engine = sys.modules["srcid.engine"]
        context = engine.PointContext
        self._undo.append((context, "attempt", context.attempt))
        context.attempt = self.span(SAMPLING, self._counted_attempt(context.attempt,
                                                                    engine.SamplingError))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters ------------------------------------------------------------

    def _counter(self, span_name, fn_name):
        counts = self.counts
        if span_name == "qseries.theta":
            seen = self._theta_args

            def count(args, _):
                key = (args[0], args[1])
                if key in seen:
                    counts["qseries.theta.repeats"] += 1
                else:
                    seen.add(key)
            return count
        if span_name == "qseries.qpoch_inf":
            default = sys.modules["srcid.qseries"].DEFAULT_TRUNCATION

            def count(args, _):
                trunc = args[2] if len(args) > 2 else default
                counts["qseries.qpoch_inf.factors"] += trunc.num_terms(abs(complex(args[1])))
            return count
        if span_name == "symmetrize.sym_c":
            def count(args, _):
                counts["symmetrize.sym_c.terms"] += math.factorial(len(args[1]))
            return count
        if span_name == "sources.subset_sum":
            def count(args, _):
                counts["sources.subset_sum.subsets"] += _subset_size(fn_name, args)
            return count
        if span_name == "linalg.det_exact":
            def count(args, _):
                counts["linalg.det_exact.ops"] += _bareiss_ops(len(args[0]))
            return count
        if span_name == "cli.report":
            def count(_, result):
                counts["cli.report.bytes"] += len(result.encode())
            return count
        return None

    def _counted_attempt(self, attempt, sampling_error):
        counts = self.counts

        def counted_attempt(ctx, draw, accept):
            def counted_draw():
                counts["engine.sampling.draws"] += 1
                return draw()
            try:
                value = attempt(ctx, counted_draw, accept)
            except sampling_error:
                counts["engine.sampling.errors"] += 1
                raise
            counts["engine.sampling.accepted"] += 1
            return value

        return counted_attempt

    # -- results -------------------------------------------------------------

    def metrics(self, traced_wall_s: float, overhead_share: float) -> dict:
        """Every per-layer metric, name -> value."""
        values = {}
        for span_name in list(LAYERS) + [SAMPLING]:
            values[f"{span_name}.calls"] = self.calls[span_name]
            values[f"{span_name}.self_s"] = self.self_s[span_name]
        values.update(self.counts)
        theta_calls = self.calls["qseries.theta"]
        values["qseries.theta.repeat_share"] = (
            self.counts["qseries.theta.repeats"] / theta_calls if theta_calls else 0.0
        )
        draws = self.counts["engine.sampling.draws"]
        values["engine.sampling.accept_ratio"] = (
            self.counts["engine.sampling.accepted"] / draws if draws else 0.0
        )
        values["trace.wall_s"] = traced_wall_s
        values["trace.overhead_share"] = overhead_share
        return {name: values.get(name, 0) for name in METRICS}
