"""Per-layer tracing of pqforms from outside its sources.

``Tracer.install()`` wraps the public functions and methods (and the
arithmetic operators) of each pqforms module by patching module and class
attributes, and re-points every module global that held the original, so
calls between modules are seen too.  A wrapper records its layer's self time
(its duration minus that of wrapped calls beneath it), and for some
functions a call count, an inclusive time, or a size taken from arguments
and results.  ``uninstall()`` restores every attribute.

The layers are the modules of pqforms.  ``PER_LAYER`` lists the metrics a
traced run reports; ``layer_metrics`` computes them from the raw records of
one or more tracers (one per CLI child on ``cli_session``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb
from time import perf_counter

LAYERS = ("scalars", "wpoly", "forms", "metric", "star", "calculus", "realoracle", "obstruction", "scenarios", "dsl")

# (name, unit) of every per-layer metric, in report order.  Every metric is
# better when lower.
PER_LAYER = (
    ("scalars.mul_calls", "count"),
    ("scalars.div_calls", "count"),
    ("scalars.self_s", "s"),
    ("scalars.max_coeff_bits", "bits"),
    ("wpoly.mul_calls", "count"),
    ("wpoly.add_calls", "count"),
    ("wpoly.terms_out", "count"),
    ("wpoly.self_s", "s"),
    ("forms.wedge_calls", "count"),
    ("forms.add_calls", "count"),
    ("forms.terms_out", "count"),
    ("forms.self_s", "s"),
    ("metric.det_calls", "count"),
    ("metric.det_s", "s"),
    ("metric.volume_form_calls", "count"),
    ("metric.volume_form_s", "s"),
    ("metric.construct_s", "s"),
    ("star.hodge_star_calls", "count"),
    ("star.raise_calls", "count"),
    ("star.raise_pairs", "count"),
    ("star.self_s", "s"),
    ("calculus.d_calls", "count"),
    ("calculus.codifferential_calls", "count"),
    ("calculus.self_s", "s"),
    ("realoracle.realify_s", "s"),
    ("realoracle.complexify_s", "s"),
    ("realoracle.real_star_s", "s"),
    ("realoracle.self_s", "s"),
    ("obstruction.self_s", "s"),
    ("scenarios.run_s", "s"),
    ("dsl.parse_s", "s"),
    ("dsl.print_s", "s"),
    ("dsl.chars_parsed", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
)

# Arithmetic operators are wrapped although they are dunders.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__xor__",
}

# qualified name -> (count key, inclusive-time key, size rule)
_COUNTED = {
    "scalars.GaussianRational.__mul__": ("scalars.mul_calls", None, None),
    "scalars.GaussianRational.__rmul__": ("scalars.mul_calls", None, None),
    "scalars.GaussianRational.__truediv__": ("scalars.div_calls", None, None),
    "scalars.GaussianRational.__rtruediv__": ("scalars.div_calls", None, None),
    "wpoly.WirtingerPolynomial.__mul__": ("wpoly.mul_calls", None, "wpoly.terms_out"),
    "wpoly.WirtingerPolynomial.__rmul__": ("wpoly.mul_calls", None, "wpoly.terms_out"),
    "wpoly.WirtingerPolynomial.__add__": ("wpoly.add_calls", None, "wpoly.terms_out"),
    "wpoly.WirtingerPolynomial.__radd__": ("wpoly.add_calls", None, "wpoly.terms_out"),
    "forms.Form.wedge": ("forms.wedge_calls", None, "forms.terms_out"),
    "forms.Form.__add__": ("forms.add_calls", None, "forms.terms_out"),
    "metric.mat_determinant": ("metric.det_calls", "metric.det_s", None),
    "metric.volume_form": ("metric.volume_form_calls", "metric.volume_form_s", None),
    "metric.HermitianMetric.__init__": (None, "metric.construct_s", None),
    "star.hodge_star": ("star.hodge_star_calls", None, None),
    "star.raise_indices": ("star.raise_calls", None, "star.raise_pairs"),
    "calculus.exterior_d": ("calculus.d_calls", None, None),
    "calculus.codifferential": ("calculus.codifferential_calls", None, None),
    "realoracle.realify": (None, "realoracle.realify_s", None),
    "realoracle.complexify": (None, "realoracle.complexify_s", None),
    "realoracle.real_hodge_star": (None, "realoracle.real_star_s", None),
    "scenarios.scenario_runner": (None, "scenarios.run_s", None),
    "dsl.parse_form": (None, "dsl.parse_s", "dsl.chars_parsed"),
    "dsl.parse": (None, "dsl.parse_s", "dsl.chars_parsed"),
    "dsl.parse_poly": (None, "dsl.parse_s", "dsl.chars_parsed"),
    "dsl.to_form": (None, "dsl.parse_s", None),
    "dsl.pretty_print": (None, "dsl.print_s", None),
    "dsl.format_poly": (None, "dsl.print_s", None),
}

# Operators whose results are scanned for the widest coefficient.
_SCANNED = {
    "star.hodge_star", "star.pointwise_inner", "metric.volume_form", "calculus.exterior_d",
    "calculus.codifferential", "calculus.laplacian", "realoracle.realify", "realoracle.complexify",
    "dsl.parse_form", "obstruction.obstruction",
}


def _scalar_bits(value):
    return max(
        abs(value.re.numerator).bit_length(), value.re.denominator.bit_length(),
        abs(value.im.numerator).bit_length(), value.im.denominator.bit_length(),
    )


def coeff_bits(obj):
    """Largest numerator or denominator bit length in a form or polynomial."""
    best = 0
    for coeff in obj.terms.values():
        scalars = coeff.terms.values() if hasattr(coeff, "terms") else (coeff,)
        for value in scalars:
            best = max(best, _scalar_bits(value))
    return best


def _size(rule, args, result):
    if rule == "star.raise_pairs":
        psi, metric = args[0], args[1]
        if psi.is_zero():
            return 0
        p, q = next(iter(psi.bidegrees()))
        return comb(metric.n, p) * comb(metric.n, q)
    if rule == "dsl.chars_parsed":
        return len(args[0]) if isinstance(args[0], str) else 0
    return len(result.terms)


class Tracer:
    """Counters and timers filled by the wrappers while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.counts = dict.fromkeys((name for name, unit in PER_LAYER if unit == "count"), 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = {}
        self.max_bits = 0
        self._depth = {}
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, layer, qualname, func):
        count_key, incl_key, size_rule = _COUNTED.get(qualname, (None, None, None))
        scanned = qualname in _SCANNED
        stack, self_s, counts, depth, inclusive = self._stack, self.self_s, self.counts, self._depth, self.inclusive

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            outer = False
            if incl_key is not None:
                outer = depth.get(incl_key, 0) == 0
                depth[incl_key] = depth.get(incl_key, 0) + 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                below = stack.pop()
                self_s[layer] += elapsed - below
                if stack:
                    stack[-1] += elapsed
                if incl_key is not None:
                    depth[incl_key] -= 1
                    if outer:
                        inclusive[incl_key] = inclusive.get(incl_key, 0.0) + elapsed
            if count_key is not None:
                counts[count_key] += 1
            if size_rule is not None and (size_rule != "dsl.chars_parsed" or outer):
                counts[size_rule] += _size(size_rule, args, result)
            if scanned:
                self.max_bits = max(self.max_bits, coeff_bits(result))
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every pqforms layer; the modules must be importable."""
        modules = [importlib.import_module(f"pqforms.{layer}") for layer in LAYERS]
        everywhere = [m for name, m in sys.modules.items() if name == "pqforms" or name.startswith("pqforms.")]
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                    for target in everywhere:
                        for alias, value in list(vars(target).items()):
                            if value is obj:
                                self._patch(target, alias, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        for name, value in list(vars(cls).items()):
            wanted = name in _OPERATORS or not name.startswith("_") or f"{layer}.{cls.__name__}.{name}" in _COUNTED
            if not wanted:
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(value):
                self._patch(cls, name, self._wrap(layer, qualname, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, name, type(value)(self._wrap(layer, qualname, value.__func__)))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def raw(self):
        return {"counts": self.counts, "self_s": self.self_s, "inclusive": self.inclusive, "max_bits": self.max_bits}


def layer_metrics(raws, cli_ms):
    """Per-layer metric values from tracer records and the ``cli.*`` figures."""
    values = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.partition(".")
        if layer == "cli":
            values[name] = cli_ms[name]
        elif name == "scalars.max_coeff_bits":
            values[name] = max((r["max_bits"] for r in raws), default=0)
        elif unit == "count":
            values[name] = sum(r["counts"][name] for r in raws)
        elif field == "self_s":
            values[name] = sum(r["self_s"][layer] for r in raws)
        else:
            values[name] = sum(r["inclusive"].get(name, 0.0) for r in raws)
    return values
