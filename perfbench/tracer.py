"""Per-layer tracing from outside the program.

The layers are the valim modules.  `Tracer.install()` wraps their
public functions, and a few methods named below, and rebinds every name
under which a valim module, the package itself or a workload imported
them, so a call through `from .valuation import check_valuation` is
traced too.
`uninstall()` restores every binding it changed; with tracing off
nothing is ever installed.

A wrapped function records a span: its self time is its duration minus
the durations of spans it called, accumulated per operation so that the
harness can divide it by that operation's reference time.  Counters
record work as integers.  Spans and counters live on the Tracer object.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter

from meter import clock_ns

LAYERS = (
    "extreal",
    "order",
    "valuation",
    "projective",
    "constructions",
    "documents",
    "cli",
    "suites",
)

# Counts reported per round; names as they appear in BENCHMARK.json.
COUNT_METRICS = (
    "kernels.enumerate_upsets.calls",
    "kernels.opens_enumerated",
    "kernels.scan_axioms.calls",
    "kernels.scan_axioms.pairs_offered",
    "extreal.add_calls",
    "extreal.compare_calls",
    "order.maps_validated",
    "order.spaces_built",
    "order.open_masks.calls",
    "order.open_masks.cache_hits",
    "valuation.evaluate.calls",
    "projective.upper_adjoint.calls",
    "projective.bond.calls",
    "constructions.subset_product_system.calls",
    "documents.bytes_parsed",
    "cli.exit_0",
    "cli.exit_1",
    "cli.exit_2",
    "cli.exit_3",
)

# Self times reported in ref units per operation: metric name -> span.
SELF_METRICS = {
    "kernels.enumerate_upsets.self_ref": "kernels.enumerate_upsets",
    "kernels.scan_axioms.self_ref": "kernels.scan_axioms",
    "kernels.eval_weights.self_ref": "kernels.eval_weights",
    "order.map_validation_self_ref": "order.map_validation",
    "order.space_validation_self_ref": "order.space_validation",
    "order.product_space.self_ref": "order.product_space",
    "valuation.check_valuation.self_ref": "valuation.check_valuation",
    "valuation.decompose_simple.self_ref": "valuation.decompose_simple",
    "valuation.tabulate.self_ref": "valuation.tabulate",
    "valuation.is_tight.self_ref": "valuation.is_tight",
    "valuation.nu_bullet.self_ref": "valuation.nu_bullet",
    "valuation.mu_circ.self_ref": "valuation.mu_circ",
    "valuation.first_differing_open.self_ref":
        "valuation.first_differing_open",
    "projective.materialize_limit.self_ref": "projective.materialize_limit",
    "projective.check_compatibility.self_ref":
        "projective.check_compatibility",
    "projective.check_ep_system.self_ref": "projective.check_ep_system",
    "constructions.ep_limit_valuation.self_ref":
        "constructions.ep_limit_valuation",
    "constructions.prohorov_limit.self_ref": "constructions.prohorov_limit",
    "constructions.uniform_tightness_check.self_ref":
        "constructions.uniform_tightness_check",
    "constructions.dk_product.self_ref": "constructions.dk_product",
    "documents.loads.self_ref": "documents.loads",
    "documents.dumps.self_ref": "documents.dumps",
    "cli.main.self_ref": "cli.main",
    **{f"suites.criterion_{k}.self_ref": f"suites.criterion_{k}"
       for k in range(1, 9)},
}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.op_self_ns = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn as a span; after(result, args) may add counts."""
        counts = self.counts
        op_self = self.op_self_ns
        stack = self._stack
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            frame = [0]
            stack.append(frame)
            t0 = clock_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock_ns() - t0
                stack.pop()
                op_self[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def counter(self, name, fn, before=None):
        """Wrap fn to count its calls; before(args) may add counts."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    def exclude(self, ns):
        """Keep `ns` spent inside the current span (a reference probe) out
        of its self time."""
        if self._stack:
            self._stack[-1][0] += ns

    def take_op_self_ns(self) -> dict:
        out = dict(self.op_self_ns)
        self.op_self_ns.clear()
        return out

    # -- installing ------------------------------------------------------

    def _span_for(self, layer, fname, fn):
        name = _SPAN_NAMES.get((layer, fname), f"{layer}.{fname}")
        hook = _AFTER.get((layer, fname))
        return self.span(
            name, fn, hook and functools.partial(hook, self.counts))

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        import valim.cli  # noqa: F401  (loads every layer)
        from valim import _kernels
        from valim.extreal import ExtRat
        from valim.order import FiniteSpace, MonotoneMap
        from valim.projective import LazyChain, PosetSystem, PrefixChain
        from valim.valuation import Valuation

        counts = self.counts
        # valim's own modules and the workloads call through these names
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "valim"
                                         or name.startswith("valim.")
                                         or name.startswith("workloads."))]

        # public functions of every layer, rebound wherever imported
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"valim.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._span_for(layer, fname, fn)
        for fname in ("enumerate_upsets", "scan_axioms", "eval_weights"):
            wrapped[getattr(_kernels, fname)] = self._span_for(
                "kernels", fname, getattr(_kernels, fname))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

        # the suites' criteria are reached through the SUITES tuple
        suites = sys.modules["valim.suites"]
        self._set(suites, "SUITES", tuple(
            self.span(f"suites.criterion_{k}", fn)
            for k, fn in enumerate(suites.SUITES, start=1)
        ))

        # methods
        self._set(FiniteSpace, "__post_init__", self.span(
            "order.space_validation", FiniteSpace.__post_init__))
        self._set(MonotoneMap, "__post_init__", self.span(
            "order.map_validation", MonotoneMap.__post_init__))
        self._set(FiniteSpace, "open_masks", self.counter(
            "order.open_masks.calls", FiniteSpace.open_masks,
            functools.partial(_open_masks_hit, counts)))
        self._set(Valuation, "tabulate", self.span(
            "valuation.tabulate", Valuation.tabulate))
        self._set(Valuation, "evaluate", self.counter(
            "valuation.evaluate.calls", Valuation.evaluate))
        for cls in (PrefixChain, PosetSystem, LazyChain):
            self._set(cls, "bond", self.counter(
                "projective.bond.calls", cls.bond))
        add = self.counter("extreal.add_calls", ExtRat.__add__)
        self._set(ExtRat, "__add__", add)
        self._set(ExtRat, "__radd__", add)
        for attr in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            self._set(ExtRat, attr, self.counter(
                "extreal.compare_calls", getattr(ExtRat, attr)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # -- reporting -------------------------------------------------------

    @staticmethod
    def count_metrics(counts) -> dict:
        """The reported counts out of a Counter of this tracer's counts."""
        out = {name: counts.get(name, 0) for name in COUNT_METRICS}
        out["order.maps_validated"] = counts.get(
            "order.map_validation.calls", 0)
        out["order.spaces_built"] = counts.get(
            "order.space_validation.calls", 0)
        return out


def _open_masks_hit(counts, args):
    if "_open_masks" in vars(args[0]):
        counts["order.open_masks.cache_hits"] += 1


def _after_enumerate(counts, out, args):
    if out is not None:
        counts["kernels.opens_enumerated"] += len(out)


def _after_scan(counts, out, args):
    m = len(args[0])
    counts["kernels.scan_axioms.pairs_offered"] += m * (m - 1) // 2


def _after_loads(counts, out, args):
    counts["documents.bytes_parsed"] += len(args[0].encode("utf-8"))


def _after_main(counts, out, args):
    counts[f"cli.exit_{out}"] += 1


# The CLI serialises through body_of, which dumps wraps; both count as
# document writing.
_SPAN_NAMES = {("documents", "body_of"): "documents.dumps"}

_AFTER = {
    ("kernels", "enumerate_upsets"): _after_enumerate,
    ("kernels", "scan_axioms"): _after_scan,
    ("documents", "loads"): _after_loads,
    ("cli", "main"): _after_main,
}
