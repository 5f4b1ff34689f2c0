"""Spans for the traced benchmark run, and the per-layer metrics made from them.

The child process calls `install`, which rebinds, in every `lmce.*` module,
each public function of every lmce module (its `__all__`) to a wrapper that
records a span, and wraps the scipy factorization and Krylov entry points
that lmce modules call.  Because the rebinding happens in the caller's
namespace, a span knows which module made the call ("caller").  Nothing in
the package is edited: the spans time calls into each layer from outside.

A span is a dict with an id, the id of its parent span (the span open when it
started), a name (`<module>.<function>`, or `scipy.factorize` /
`scipy.krylov`), the caller module, start and end (`time.perf_counter`), and
attributes read from the call's arguments and result.  Spans stay in memory
and the child writes them out when its command has finished.

`layer_metrics` turns one child's spans into the per-layer metrics; it runs
in the parent, which imports no numpy or scipy.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

FACTOR_FUNCTIONS = {"splu", "spilu"}
KRYLOV_FUNCTIONS = {
    "bicg", "bicgstab", "cg", "cgs", "gcrotmk", "gmres", "lgmres", "minres", "qmr", "tfqmr",
}

# canonical check name (the config's `checks` keys, `lmce.cli.ALL_CHECKS`)
# -> the module and function that implement it
CHECK_FUNCTIONS = {
    "form_equivalence": ("identities", "check_form_equivalence"),
    "complex_factorization": ("identities", "check_complex_factorization"),
    "volume_formula": ("identities", "check_volume_formula"),
    "cutoff_volume": ("identities", "check_cutoff_volume_identity"),
    "slope_volume": ("identities", "check_slope_volume"),
    "coordinate_laplacian": ("identities", "check_coordinate_laplacian"),
    "weak_max_principle": ("inequalities", "check_weak_max_principle"),
    "super_iso": ("inequalities", "check_super_iso"),
    "jacobi_pointwise": ("inequalities", "check_jacobi_pointwise"),
    "subharmonic": ("inequalities", "check_subharmonic_modified_slope"),
    "jacobi_integral": ("inequalities", "check_jacobi_integral"),
    "volume_bound": ("inequalities", "check_volume_bound"),
    "hessian_estimate": ("inequalities", "check_hessian_estimate"),
}

# SuperLU stores a 4-byte row index next to each 8-byte value
FACTOR_BYTES_PER_ENTRY = 12


class Recorder:
    """In-memory span list with a stack of the spans currently open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, caller: str, fn, args, kwargs, extract=None):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "caller": caller,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if extract is not None:
            span["attrs"] = extract(args, kwargs, out)
        return out


def _newton_attrs(args, kwargs, state):
    return {"iterations": state.iterations, "damping": [float(t) for t in state.damping]}


def _wmp_attrs(fn):
    signature = inspect.signature(fn)

    def extract(args, kwargs, report):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {
            "trials_drawn": int(bound.arguments["trials"]),
            "trials_run": int(report.details["trials_run"]),
        }

    return extract


def _factor_attrs(fn):
    return lambda args, kwargs, factor: {"function": fn.__name__, "nnz": int(factor.nnz)}


def _extractor(name: str, fn):
    if name == "solver.newton_solve":
        return _newton_attrs
    if name == "inequalities.check_weak_max_principle":
        return _wmp_attrs(fn)
    return None


def _wrap(rec: Recorder, fn, name: str, caller: str):
    extract = _extractor(name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, caller, fn, args, kwargs, extract)

    return traced


def _wrap_factor(rec: Recorder, fn, caller: str):
    extract = _factor_attrs(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call("scipy.factorize", caller, fn, args, kwargs, extract)

    return traced


def _wrap_krylov(rec: Recorder, fn, caller: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        count = [0]
        user_callback = kwargs.get("callback")

        def callback(*a, **k):
            count[0] += 1
            if user_callback is not None:
                return user_callback(*a, **k)
            return None

        if user_callback is None and fn.__name__ == "gmres":
            kwargs.setdefault("callback_type", "pr_norm")
        kwargs["callback"] = callback
        return rec.call(
            "scipy.krylov",
            caller,
            fn,
            args,
            kwargs,
            lambda a, k, out: {"iterations": count[0], "info": int(out[1])},
        )

    return traced


class _ModuleProxy:
    """Stands in for `scipy.sparse.linalg` inside one lmce module: traced
    factorization and Krylov functions, everything else passed through."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _scipy_linalg_override(rec: Recorder, fn, caller: str):
    name = getattr(fn, "__name__", "")
    if name in FACTOR_FUNCTIONS:
        return _wrap_factor(rec, fn, caller)
    if name in KRYLOV_FUNCTIONS:
        return _wrap_krylov(rec, fn, caller)
    return None


def install(rec: Recorder) -> None:
    """Rebind lmce's public functions and its scipy linear-algebra entry
    points to span-recording wrappers."""
    import scipy.sparse.linalg as spla

    modules = {
        name.split(".", 1)[1]: mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith("lmce.") and mod is not None
    }
    targets = {}
    for short, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[id(obj)] = (f"{short}.{attr}", obj)
    for caller, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if id(val) in targets:
                name, fn = targets[id(val)]
                setattr(mod, attr, _wrap(rec, fn, name, caller))
            elif val is spla:
                overrides = {}
                for fname in FACTOR_FUNCTIONS | KRYLOV_FUNCTIONS:
                    fn = getattr(spla, fname, None)
                    if fn is not None:
                        overrides[fname] = _scipy_linalg_override(rec, fn, caller)
                setattr(mod, attr, _ModuleProxy(spla, overrides))
            elif callable(val) and (getattr(val, "__module__", None) or "").startswith(
                "scipy.sparse.linalg"
            ):
                wrapped = _scipy_linalg_override(rec, val, caller)
                if wrapped is not None:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------- metrics


class _Tree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def ancestors(self, span: dict):
        parent = span["parent"]
        while parent is not None:
            up = self.by_id[parent]
            yield up
            parent = up["parent"]

    def named(self, name: str, caller_not: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (caller_not is None or s["caller"] != caller_not)
        ]

    def total(self, spans: list[dict]) -> float:
        """Wall time covered by spans, counting a span nested in a span of
        the same name only once."""
        return sum(
            self.duration(s)
            for s in spans
            if not any(a["name"] == s["name"] for a in self.ancestors(s))
        )

    def self_time(self, span: dict) -> float:
        return self.duration(span) - sum(self.duration(c) for c in self.children[span["id"]])

    def inside(self, span: dict, name: str) -> bool:
        return any(a["name"] == name for a in self.ancestors(span))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (times in s).

    A layer that the workload does not reach reports 0.  The cli.import_s
    and cli.config_load_s metrics come from the child's own clock, not from
    spans, and are added by the caller.
    """
    t = _Tree(spans)
    m: dict[str, float] = {}

    m["cli.write_field_csv_s"] = t.total(t.named("cli.write_field_csv"))
    commands = [s for s in spans if s["name"].startswith("cli.cmd_")]
    m["cli.command_self_s"] = sum(t.self_time(s) for s in commands)

    m["solver.manufacture_s"] = t.total(t.named("solver.manufacture"))
    newton = t.named("solver.newton_solve")
    m["solver.newton_solve_s"] = t.total(newton)
    m["solver.newton_self_s"] = sum(t.self_time(s) for s in newton)
    factors = t.named("scipy.factorize")
    in_solve = [s for s in factors if t.inside(s, "solver.linear_solve")]
    initial = [
        s for s in factors
        if t.inside(s, "solver.newton_solve") and not t.inside(s, "solver.linear_solve")
    ]
    m["solver.initial_factor_s"] = sum(t.duration(s) for s in initial)
    linear = t.named("solver.linear_solve")
    m["solver.linear_solve_calls"] = len(linear)
    m["solver.linear_solve_s"] = t.total(linear)
    m["solver.factorizations"] = len(in_solve)
    m["solver.factorize_s"] = sum(t.duration(s) for s in in_solve)
    fill = max((s["attrs"]["nnz"] for s in factors), default=0)
    m["solver.factor_fill_nnz"] = fill
    m["solver.factor_bytes_computed"] = fill * FACTOR_BYTES_PER_ENTRY
    m["solver.factorizations_per_solve"] = len(in_solve) / len(linear) if linear else 0.0
    krylov = t.named("scipy.krylov")
    m["solver.krylov_iterations"] = sum(s["attrs"]["iterations"] for s in krylov)
    m["solver.krylov_s"] = sum(t.duration(s) for s in krylov)
    accepted = sum(len(s["attrs"]["damping"]) for s in newton)
    trials = sum(
        1 + round(math.log2(1.0 / d)) for s in newton for d in s["attrs"]["damping"]
    )
    m["solver.newton_iterations"] = sum(s["attrs"]["iterations"] for s in newton)
    m["solver.line_search_trials"] = trials
    m["solver.line_search_accept_ratio"] = accepted / trials if trials else 0.0
    stencil = [
        s for s in spans
        if s["caller"] == "solver" and s["name"] in ("grid.hessian_fd", "geometry.eigen_sym2")
    ]
    m["solver.stencil_s"] = sum(t.duration(s) for s in stencil)
    m["solver.phase_residual_s"] = t.total(t.named("solver.phase_residual"))

    for fn in ("bundle", "laplace_beltrami"):
        found = t.named(f"geometry.{fn}")
        m[f"geometry.{fn}_calls"] = len(found)
        m[f"geometry.{fn}_s"] = t.total(found)
    for fn in ("hessian_fd", "gradient_fd"):
        found = t.named(f"grid.{fn}", caller_not="solver")
        m[f"grid.{fn}_calls"] = len(found)
        m[f"grid.{fn}_s"] = t.total(found)

    check_spans = {f"{mod}.{fn}" for mod, fn in CHECK_FUNCTIONS.values()}
    for check, (mod, fn) in CHECK_FUNCTIONS.items():
        # a check that another check runs internally is part of that check
        top = [
            s for s in t.named(f"{mod}.{fn}")
            if not any(a["name"] in check_spans for a in t.ancestors(s))
        ]
        m[f"{mod}.{check}_s"] = sum(t.duration(s) for s in top)
    m["inequalities.fit_modification_weight_s"] = t.total(
        t.named("inequalities.fit_modification_weight")
    )
    m["inequalities.jacobi_pointwise_calls"] = len(t.named("inequalities.check_jacobi_pointwise"))
    wmp = t.named("inequalities.check_weak_max_principle")
    m["inequalities.wmp_calls"] = len(wmp)
    drawn = sum(s["attrs"]["trials_drawn"] for s in wmp)
    ran = sum(s["attrs"]["trials_run"] for s in wmp)
    m["inequalities.wmp_admissible_ratio"] = ran / drawn if drawn else 0.0
    return m


# counts that must repeat exactly between two traced invocations of one workload
EXACT_COUNTS = (
    "solver.linear_solve_calls",
    "solver.factorizations",
    "solver.factor_fill_nnz",
    "solver.krylov_iterations",
    "solver.newton_iterations",
    "solver.line_search_trials",
    "geometry.bundle_calls",
    "geometry.laplace_beltrami_calls",
    "grid.hessian_fd_calls",
    "grid.gradient_fd_calls",
    "inequalities.jacobi_pointwise_calls",
    "inequalities.wmp_calls",
)
