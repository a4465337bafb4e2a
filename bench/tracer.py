"""Layer tracer for the rtails benchmark.

The tracer wraps the public entry points of each rtails module from outside
the library.  rtails modules import functions by name (``from .strata0 import
zero_witness``), so a wrapper is bound into every ``rtails*`` module namespace
that holds the original object, not only into the defining module.

Each wrapped call is a span.  A stack of child-time accumulators turns spans
into self time (a span's duration minus the time its wrapped children took),
so nested calls are never counted twice.  Spans are aggregated in memory per
function and handed out when the run ends; ``integrate_term`` alone is
entered hundreds of thousands of times per grid, so individual spans are not
kept.

``strata0.strata_paired`` counts pairings the library actually makes: every
pairing starts with ``strata0._refine(tree, stratum, ambient)``, so the tracer
rebinds that helper and counts the distinct ``stratum`` arguments it sees
while a ``zero_witness`` call is open.

Every wrapped function belongs to exactly one layer time metric (the keys of
``LAYERS``).  Time outside any wrapped call lands in
``trace.unattributed_s``, so the layer times plus that remainder add up to
``trace.wall_s`` by construction.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# time metric -> {module: [function names]}; the order fixes the report order
LAYERS = {
    "strata0.zero_test_s": {"strata0": ["zero_witness"]},
    "strata0.integrate_term_s": {"strata0": ["integrate_term"]},
    "strata0.pair_term_s": {"strata0": ["pair_term"]},
    "strata0.algebra_s": {
        "strata0": [
            "collide",
            "relabel_class",
            "product_with_stratum",
            "pullback_forget",
            "pushforward_forget",
            "glue_push_gamma",
            "glue_push_sigma0",
        ]
    },
    "trees.decorations_s": {"trees": ["decorations_of_degree", "enumerate_decorations"]},
    "trees.build_tree_s": {"trees": ["build_tree"]},
    "trees.enumerate_s": {"trees": ["enumerate_stable_trees", "enumerate_trees0", "enumerate_rt_graphs"]},
    "weights.coeff_s": {"weights": ["coeff_c", "coeff_c_im", "coeff_c_im_truncated", "coeff_d"]},
    "cycles.assemble_s": {"cycles": ["z_cycle", "z_truncated", "e_cycle", "dec_polynomial"]},
    "cycles.verify_s": {
        "cycles": [
            "verify_collide0",
            "collide_first_legs",
            "verify_recursion_a",
            "verify_recursion_all",
            "verify_dect",
            "verify_decrec",
            "verify_ei_pushforward",
            "verify_closed_forms",
            "verify_vanishing",
        ]
    },
    "rtclasses.verify_s": {"rtclasses": ["verify_frec", "verify_colliding_rt", "verify_overdegree_drop"]},
    "rtclasses.build_s": {"rtclasses": ["f_class", "f_class_m", "e_class"]},
    "rtclasses.ops_s": {
        "rtclasses": [
            "collide_rt",
            "relabel_rt",
            "pullback_forget_rt",
            "multiply_divisor",
            "pushforward_phi",
            "pushforward_point",
        ]
    },
}

TIME_METRICS = tuple(LAYERS) + ("trace.unattributed_s", "trace.wall_s")

# every per-layer metric with its unit, in report order
UNITS = {
    **{name: "s" for name in TIME_METRICS},
    "strata0.integrate_term_calls": "count",
    "strata0.strata_paired": "count",
    "strata0.pair_term_calls": "count",
    "strata0.pair_term_nonzero_ratio": "ratio",
    "strata0.algebra_terms_out": "count",
    "trees.decorations_out": "count",
    "trees.build_tree_calls": "count",
    "trees.trees_enumerated": "count",
    "weights.coeff_calls": "count",
    "weights.coeff_nonzero_ratio": "ratio",
    "cycles.z_calls": "count",
    "cycles.z_cache_hit_ratio": "ratio",
    "cycles.terms_assembled": "count",
    "rtclasses.f_cache_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps rtails entry points; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.self_s = defaultdict(float)  # qualified function name -> self seconds
        self.calls = defaultdict(int)  # qualified function name -> calls
        self.counts = defaultdict(int)
        self.metric_of = {}  # qualified function name -> time metric
        self._stack = [[0.0]]  # [child seconds] per open span, the run itself at the bottom
        self._patched = []  # (module, attribute, original)
        self._t_start = None
        self.wall_s = 0.0

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, qualname: str, hook=None, cache_size=None):
        """A span around ``fn``; then ``hook(args, result, missed)``.

        ``cache_size()``, when given, is read before and after the call: growth
        of the library's own cache marks a miss, without reproducing its keys.
        ``missed`` is None when there is no cache to read.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = None if cache_size is None else cache_size()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[qualname] += dt - frame[0]
                calls[qualname] += 1
            if hook is not None:
                hook(args, result, None if before is None else cache_size() > before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    # -- counters ----------------------------------------------------------

    def _hooks(self, modules) -> dict:
        """(module, function) -> (hook, cache_size or None) for the counters."""
        counts = self.counts

        def nonzero(counter):
            def hook(args, value, missed):
                counts[counter] += bool(value)

            return hook

        def terms(counter, misses_only=False):
            def hook(args, out, missed):
                if missed or not misses_only:
                    counts[counter] += len(out.terms)

            return hook

        def decorations(args, out, missed):
            counts["trees.decorations_out"] += len(out)

        def trees_built(args, out, missed):
            if missed:
                counts["trees.trees_enumerated"] += len(out)

        def hit(counter, other=None):
            def hook(args, out, missed):
                counts[counter] += missed is False
                if other is not None:
                    other(args, out, missed)

            return hook

        def dict_size(module, attr):
            # a refactor that drops the cache leaves no size to read: no hits
            return (lambda: len(getattr(module, attr))) if hasattr(module, attr) else None

        cycles, rtclasses, trees = modules["cycles"], modules["rtclasses"], modules["trees"]
        z_hook = hit("z_hits", terms("cycles.terms_assembled", misses_only=True))
        hooks = {
            ("strata0", "pair_term"): (nonzero("pair_term_nonzero"), None),
            ("trees", "decorations_of_degree"): (decorations, None),
            ("cycles", "z_cycle"): (z_hook, dict_size(cycles, "_z_cache")),
            ("cycles", "z_truncated"): (z_hook, dict_size(cycles, "_z_cache")),
            ("cycles", "e_cycle"): (terms("cycles.terms_assembled"), None),
            ("rtclasses", "f_class_m"): (hit("f_hits"), dict_size(rtclasses, "_f_cache")),
        }
        for name in LAYERS["strata0.algebra_s"]["strata0"]:
            hooks[("strata0", name)] = (terms("strata0.algebra_terms_out"), None)
        for name in LAYERS["weights.coeff_s"]["weights"]:
            hooks[("weights", name)] = (nonzero("coeff_nonzero"), None)
        for name in ("enumerate_stable_trees", "enumerate_rt_graphs"):
            fn = getattr(trees, name)
            if hasattr(fn, "cache_info"):
                hooks[("trees", name)] = (trees_built, lambda fn=fn: fn.cache_info().misses)
        return hooks

    def _count_pairings(self, zero_witness, strata0):
        """``zero_witness`` that adds the strata it pairs with to ``strata0.strata_paired``."""
        refine = strata0._refine
        counts = self.counts
        open_tests = []  # per running zero test: id(stratum) -> stratum (kept alive)

        def counting_refine(tree, stratum, ambient):
            if open_tests:
                open_tests[-1][id(stratum)] = stratum
            return refine(tree, stratum, ambient)

        def counting_zero_witness(*args, **kwargs):
            open_tests.append({})
            try:
                return zero_witness(*args, **kwargs)
            finally:
                counts["strata0.strata_paired"] += len(open_tests.pop())

        self._rebind(strata0, "_refine", counting_refine)
        return counting_zero_witness

    # -- patching ----------------------------------------------------------

    def _rebind(self, ns, attr: str, value) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def install(self) -> None:
        """Wrap every LAYERS function and rebind it in every rtails namespace."""
        import rtails  # noqa: F401  (loads every module the layers name)

        modules = {short: sys.modules[f"rtails.{short}"] for spec in LAYERS.values() for short in spec}
        hooks = self._hooks(modules)
        namespaces = [m for name, m in sorted(sys.modules.items()) if name == "rtails" or name.startswith("rtails.")]
        for metric, spec in LAYERS.items():
            for short, names in spec.items():
                for name in names:
                    original = getattr(modules[short], name)
                    qualname = f"{short}.{name}"
                    self.metric_of[qualname] = metric
                    fn = original
                    if qualname == "strata0.zero_witness":
                        fn = self._count_pairings(original, modules["strata0"])
                    wrapper = self._wrap(fn, qualname, *hooks.get((short, name), ()))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._rebind(ns, attr, wrapper)
        self._t_start = time.perf_counter()

    def uninstall(self) -> None:
        self.wall_s = time.perf_counter() - self._t_start
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the traced interval (without the overhead ratio)."""
        c, calls = self.counts, self.calls
        out = {metric: 0.0 for metric in LAYERS}
        for qualname, seconds in self.self_s.items():
            out[self.metric_of[qualname]] += seconds
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.wall_s - sum(self.self_s.values())
        coeff_calls = sum(calls[f"weights.{name}"] for name in LAYERS["weights.coeff_s"]["weights"])
        z_calls = calls["cycles.z_cycle"] + calls["cycles.z_truncated"]
        out.update(
            {
                "strata0.integrate_term_calls": calls["strata0.integrate_term"],
                "strata0.strata_paired": c["strata0.strata_paired"],
                "strata0.pair_term_calls": calls["strata0.pair_term"],
                "strata0.pair_term_nonzero_ratio": _ratio(c["pair_term_nonzero"], calls["strata0.pair_term"]),
                "strata0.algebra_terms_out": c["strata0.algebra_terms_out"],
                "trees.decorations_out": c["trees.decorations_out"],
                "trees.build_tree_calls": calls["trees.build_tree"],
                "trees.trees_enumerated": c["trees.trees_enumerated"],
                "weights.coeff_calls": coeff_calls,
                "weights.coeff_nonzero_ratio": _ratio(c["coeff_nonzero"], coeff_calls),
                "cycles.z_calls": z_calls,
                "cycles.z_cache_hit_ratio": _ratio(c["z_hits"], z_calls),
                "cycles.terms_assembled": c["cycles.terms_assembled"],
                "rtclasses.f_cache_hit_ratio": _ratio(c["f_hits"], calls["rtclasses.f_class_m"]),
            }
        )
        return out

    def functions(self) -> list:
        """Per-function self time and calls, largest self time first."""
        rows = [
            {"function": q, "layer": self.metric_of[q], "self_s": s, "calls": self.calls[q]}
            for q, s in self.self_s.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
