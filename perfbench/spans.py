"""Outside-in tracing of qspec's public functions.

A Tracer replaces every public function of every ``qspec.*`` module with a
timing wrapper, at each ``qspec.*`` namespace that binds it (the package
re-exports, and modules that import each other's functions), so a call
through any binding is seen. Spans (name, start, end, parent) are kept in
memory; per-layer metrics are derived from them after the traced pass,
and ``uninstall`` puts the original objects back.

Count metrics are computed from call arguments and results only, never
from timings, so two traced passes on the same inputs give identical
counts.
"""

import functools
import inspect
import math
import sys
import time

LAYERS = ("linalg", "spectrum", "bounds", "dla", "qsim", "experiments", "cli")

# metric prefix -> traced functions ("<module>.<function>") it aggregates
ALIASES = {
    "qsim.forward": ("qsim.circuit_forward_encoded",),
    "qsim.encode": ("qsim.encode_inputs",),
    "qsim.grad_analytic_batch": ("qsim.grad_analytic_1p_batch",),
    "cli.render": ("cli.render_json",),
}

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("qsim.forward.calls", "count", "lower"),
    ("qsim.forward.s", "s", "lower"),
    ("qsim.forward.rows", "count", "lower"),
    ("qsim.forward.flops", "flop_computed", "lower"),
    ("qsim.forward.us_per_row_layer", "us", "lower"),
    ("qsim.encode.s", "s", "lower"),
    ("qsim.grad_fd.s", "s", "lower"),
    ("qsim.grad_analytic_batch.s", "s", "lower"),
    ("qsim.trig_poly_coeffs.s", "s", "lower"),
    ("qsim.make_generator.s", "s", "lower"),
    ("experiments.adam_train.calls", "count", "lower"),
    ("experiments.adam_train.steps", "count", "lower"),
    ("experiments.adam_train.self_s", "s", "lower"),
    ("experiments.gen_dataset.s", "s", "lower"),
    ("experiments.build_circuit.s", "s", "lower"),
    ("experiments.variance_sweep.self_s", "s", "lower"),
    ("experiments.wilcoxon_exact.s", "s", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.s", "s", "lower"),
    ("linalg.haar_unitary.s", "s", "lower"),
    ("linalg.commutator.calls", "count", "lower"),
    ("linalg.commutator.s", "s", "lower"),
    ("spectrum.gap_set.calls", "count", "lower"),
    ("spectrum.gap_set.s", "s", "lower"),
    ("spectrum.normalize_gaps.s", "s", "lower"),
    ("dla.lie_closure.s", "s", "lower"),
    ("dla.center_basis.s", "s", "lower"),
    ("dla.derived_algebra.s", "s", "lower"),
    ("dla.eta.s", "s", "lower"),
    ("dla.closure.brackets", "count", "lower"),
    ("dla.closure.accept_ratio", "ratio", "higher"),
    ("dla.basis_bytes", "bytes_computed", "lower"),
    ("bounds.annulus_points.s", "s", "lower"),
    ("bounds.annulus_points.scanned", "count", "lower"),
    ("bounds.annulus_points.hit_ratio", "ratio", "higher"),
    ("bounds.truncation_error.s", "s", "lower"),
    ("bounds.sobolev_norm.s", "s", "lower"),
    ("bounds.random_unit_ball_series.s", "s", "lower"),
    ("bounds.minimax_lower_curve.self_s", "s", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.parse_pauli_expr.s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that must repeat exactly between two traced passes
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit in ("count", "ratio", "flop_computed", "bytes_computed"))


def qspec_namespaces() -> list:
    """Every imported qspec module, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qspec" or name.startswith("qspec."))]


def public_functions(namespaces) -> dict:
    """original function -> "<module>.<name>" for every public function
    defined in a qspec module."""
    found = {}
    for mod in namespaces:
        for obj in vars(mod).values():
            if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and obj.__module__.startswith("qspec.")):
                found[obj] = qualname(obj)
    return found


def qualname(fn) -> str:
    """Span name of a qspec function: "<module>.<function>"."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


# ------------------------------------------------------------ count hooks
# Each hook maps (args, kwargs, result) of one call to counter increments.

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_forward(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    v, b = result.shape
    # two complex N x N matmuls per layer, 8 real flops per multiply-add
    return {"qsim.forward.rows": v * b,
            "qsim.forward.row_layers": v * b * spec.depth,
            "qsim.forward.flops": 16 * spec.depth * v * b * spec.dim * spec.dim}


def _count_adam(args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    cfg = _arg(args, kwargs, 2, "cfg")
    n = len(data[0]) if isinstance(data, tuple) else len(data)
    batch = min(cfg.batch_size, n)
    return {"experiments.adam_train.steps": cfg.epochs * math.ceil(n / batch)}


def _count_annulus(args, kwargs, result):
    d = int(_arg(args, kwargs, 0, "d"))
    k = float(_arg(args, kwargs, 1, "k"))
    side = 2 * int(math.floor(2.0 * k)) + 1
    return {"bounds.annulus_points.scanned": side ** d,
            "bounds.annulus_points.hits": len(result)}


def _count_closure(args, kwargs, result):
    gens = _arg(args, kwargs, 0, "generators")
    return {"dla.closure.accepted": len(result.elements),
            "dla.closure.generators": len(list(gens)),
            "dla.basis_bytes": sum(e.nbytes for e in result.elements)}


HOOKS = {
    "qsim.circuit_forward_encoded": _count_forward,
    "experiments.adam_train": _count_adam,
    "bounds.annulus_points": _count_annulus,
    "dla.lie_closure": _count_closure,
}


class Tracer:
    """Installs timing wrappers on qspec's public functions.

    Not thread-safe: the benchmark runs qspec on one thread, which the
    span stack relies on.
    """

    def __init__(self):
        self.names: list = []        # span name ids -> "<module>.<function>"
        self.spans: list = []        # (name_id, start, end, parent_index)
        self.counts: dict = {}
        self._stack: list = []
        self._bindings: list = []    # (namespace, attribute, original)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + inc
            return result

        return traced

    def install(self) -> None:
        namespaces = qspec_namespaces()
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in public_functions(namespaces).items()}
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)

    def restored(self) -> bool:
        """True when every binding the tracer replaced holds its original."""
        return all(getattr(mod, attr) is original
                   for mod, attr, original in self._bindings)

    def binding_count(self, name: str) -> int:
        """Number of namespaces at which the function `name` was wrapped."""
        return sum(1 for _, _, fn in self._bindings if qualname(fn) == name)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans of one traced pass."""
        spans, names = self.spans, self.names
        n = len(spans)
        child_s = [0.0] * n
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict = {}
        incl: dict = {}      # outermost spans only, so recursion counts once
        self_s: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += dur - child_s[i]
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur

        def agg(prefix: str, table: dict):
            return sum(table.get(fn, 0) for fn in ALIASES.get(prefix, (prefix,)))

        brackets = 0
        for name_id, _, _, parent in spans:
            if (names[name_id] == "linalg.commutator" and parent >= 0
                    and names[spans[parent][0]] == "dla.lie_closure"):
                brackets += 1

        out = {}
        for metric, _, _ in PER_LAYER:
            prefix, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = agg(prefix, calls)
            elif stat == "s":
                out[metric] = agg(prefix, incl)
            elif stat == "self_s" and prefix in LAYERS:
                out[metric] = layer_self[prefix]
            elif stat == "self_s":
                out[metric] = agg(prefix, self_s)
        c = self.counts
        row_layers = c.get("qsim.forward.row_layers", 0)
        candidates = c.get("dla.closure.generators", 0) + brackets
        scanned = c.get("bounds.annulus_points.scanned", 0)
        out.update({
            "qsim.forward.rows": c.get("qsim.forward.rows", 0),
            "qsim.forward.flops": c.get("qsim.forward.flops", 0),
            "qsim.forward.us_per_row_layer":
                out["qsim.forward.s"] * 1e6 / row_layers if row_layers else 0.0,
            "experiments.adam_train.steps": c.get("experiments.adam_train.steps", 0),
            "dla.closure.brackets": brackets,
            "dla.closure.accept_ratio":
                c.get("dla.closure.accepted", 0) / candidates if candidates else 0.0,
            "dla.basis_bytes": c.get("dla.basis_bytes", 0),
            "bounds.annulus_points.scanned": scanned,
            "bounds.annulus_points.hit_ratio":
                c.get("bounds.annulus_points.hits", 0) / scanned if scanned else 0.0,
            "trace.wall_s": wall_s,
        })
        return out
