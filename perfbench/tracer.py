"""Span tracer that wraps rbx's public functions from outside the package.

``Tracer.install`` replaces each target below, at every place it is looked
up (the defining module, every rbx module that imported it by name, and the
class for methods), with a wrapper that times a span while a request is
open.  A span's self time is its duration minus the time covered by the
spans it caused.  Only per-name totals (calls and self time) are kept, over
the whole traced run.  Targets missing from the installed rbx are skipped,
so a later rbx that deletes a function reports zero for it.
"""

from __future__ import annotations

import importlib
import sys
from functools import wraps
from time import perf_counter

# Prefix of the stderr line on which a traced ``rbx`` process reports its totals.
TRACE_MARK = "PERFBENCH-TRACE "

# (span name, module, attribute).  Several attributes may share a span name:
# ``__rmul__`` is ``__mul__``, ``is_rb_upto`` is a wrapper of
# ``first_rb_failure``, and the four generator ``apply`` methods are one layer
# operation.  Spans that no metric reports still take their time out of
# their callers' self time.
TARGETS = [
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.mul", "poly", "Poly.__rmul__"),
    ("poly.eval", "poly", "Poly.__call__"),
    ("poly.add", "poly", "Poly.__add__"),
    ("poly.compose_affine", "poly", "Poly.compose_affine"),
    ("poly.integrate_at", "poly", "Poly.integrate_at"),
    ("poly.lagrange", "poly", "lagrange"),
    ("poly.rational_roots", "poly", "Poly.rational_roots"),
    ("mpoly.mul", "mpoly", "MPoly.__mul__"),
    ("mpoly.mul", "mpoly", "MPoly.__rmul__"),
    ("mpoly.subst", "mpoly", "MPoly.subst"),
    ("mpoly.eval_at", "mpoly", "MPoly.eval_at"),
    ("mpoly.eval_univariate", "mpoly", "MPoly.eval_univariate"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.det", "linalg", "det"),
    ("operators.truncate", "operators", "AnalyticOp.truncate"),
    ("operators.is_rb_upto", "operators", "is_rb_upto"),
    ("operators.is_rb_upto", "operators", "first_rb_failure"),
    ("operators.operator_to_point", "operators", "operator_to_point"),
    ("operators.derived_multiplier", "operators", "derived_multiplier"),
    ("functionals.elimination_polynomial", "functionals", "elimination_polynomial"),
    ("functionals.satisfies_system", "functionals", "satisfies_system"),
    ("functionals.reduced_equation", "functionals", "reduced_equation"),
    ("functionals.vanishes_on_curve", "functionals", "vanishes_on_curve"),
    ("functionals.recover_base_point", "functionals", "recover_base_point"),
    ("functionals.curve_coords", "functionals", "curve_coords"),
    ("actions.gen_apply", "actions", "Shear.apply"),
    ("actions.gen_apply", "actions", "ShearSquared.apply"),
    ("actions.gen_apply", "actions", "Translate.apply"),
    ("actions.gen_apply", "actions", "Dilate.apply"),
    ("actions.apply_word", "actions", "apply_word"),
    ("actions.apply_word_tuple", "actions", "apply_word_tuple"),
    ("actions.affine_orbit_word", "actions", "affine_orbit_word"),
    ("transitivity.solve_single", "transitivity", "solve_single"),
    ("transitivity.solve_tuple_independent", "transitivity", "solve_tuple_independent"),
    ("transitivity.solve_distinct_tuple", "transitivity", "solve_distinct_tuple"),
    ("transitivity.make_independent", "transitivity", "make_independent"),
    ("transitivity.select_basepoints", "transitivity", "select_basepoints"),
    ("transitivity.diagonalize_tuple", "transitivity", "diagonalize_tuple"),
    ("transitivity.bridge_tuple", "transitivity", "bridge_tuple"),
    ("transitivity.fiber_move", "transitivity", "fiber_move"),
]


def _coef_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _term_count(mpoly) -> int:
    return len(mpoly.terms)


# Observers run on a span's result: the largest coefficient bit height of
# polynomial intermediates, and the largest term count of MPoly products.
OBSERVERS = {
    "poly.mul": ("coef_bits_max", _coef_bits),
    "poly.add": ("coef_bits_max", _coef_bits),
    "mpoly.mul": ("terms_max", _term_count),
    "mpoly.subst": ("terms_max", _term_count),
}


class Tracer:
    """Totals the spans of wrapped rbx calls made while a request is open."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.peaks = {"coef_bits_max": 0, "terms_max": 0}
        self._child = [0.0]  # time covered by child spans, one entry per open span
        self._elim = None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target present in the imported rbx package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rbx" or n.startswith("rbx.")]
        for name, modname, attr in TARGETS:
            mod = importlib.import_module(f"rbx.{modname}")
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = owner.__dict__.get(member) if owner is not None else None
                if fn is not None:
                    setattr(owner, member, self._wrap(name, fn))
                continue
            fn = getattr(mod, member, None)
            if fn is None:
                continue
            if name == "functionals.elimination_polynomial":
                self._elim = fn
            wrapper = self._wrap(name, fn)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        observer = OBSERVERS.get(name)
        tracer = self

        @wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child = tracer._child
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child.pop()
                child[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - inner
            if observer is not None:
                key, measure = observer
                value = measure(result)
                if value > tracer.peaks[key]:
                    tracer.peaks[key] = value
            return result

        return span

    # -- requests ------------------------------------------------------------------

    def begin(self) -> None:
        self._child = [0.0]
        self.active = True

    def end(self) -> None:
        self.active = False

    def cache_counts(self) -> "tuple[int, int] | None":
        """(hits, calls) of the elimination cache, if rbx still caches it."""
        info = getattr(self._elim, "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.hits + ci.misses

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "peaks": dict(self.peaks),
        }
