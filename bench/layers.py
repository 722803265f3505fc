"""Outside-in layer timing for the benchmark's traced passes.

The program has no tracing of its own yet, so each layer is timed from the
benchmark's side: its public functions are replaced by timing wrappers for
the duration of one pass.  Modules of ``tautmat`` import many of these
names directly (``engine`` holds its own ``interpolate_univariate``,
``checks`` its own ``euler_char_many``), so a wrapper is bound in place of
*every* module attribute that holds the original function, not only in the
defining module.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the time spent in nested wrapped
calls.  ``perms.iter_perm_bases`` is the exception: it is a generator whose
items are consumed inside ``engine`` loops, and timing each ``next()`` costs
about a microsecond per item (close to 900k items in one ``graded`` pass).
Instead its calls are recorded and, after the pass, replayed as a pure
enumeration; the replay time is that layer's self time and is taken out of
the self time of the span that consumed the generator.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
import time

# Ledger sections of ``tautmat check``, in ledger order.
SECTIONS = (
    "tutte", "theorem-a", "duality", "beta", "minkowski", "logconc", "fs-tutte",
    "cf", "gpoly", "flag", "coalgebra", "valuativity", "chi-routes", "ehrhart",
)

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ("perms.iter_perm_bases.self_s", "s"),
    ("perms.iter_perm_bases.items", "count"),
    ("engine.integrate_graded.self_s", "s"),
    ("engine.integrate_graded.calls", "count"),
    ("engine.euler_char_many.self_s", "s"),
    ("engine.euler_char_many.calls", "count"),
    ("engine.euler_char_many.classes", "count"),
    ("engine.integrate_inhomogeneous.self_s", "s"),
    ("engine.integrate_inhomogeneous.calls", "count"),
    ("poly.interpolate_univariate.self_s", "s"),
    ("poly.interpolate_univariate.calls", "count"),
    ("poly.interpolate_univariate.samples", "count"),
    ("poly.interpolate_univariate.degree_max", "count"),
    ("matroid.Matroid.minor.self_s", "s"),
    ("matroid.Matroid.minor.calls", "count"),
    ("matroid.Matroid.minor.distinct_ratio", "ratio"),
    ("kclass.restrict_to_chain.self_s", "s"),
    ("kclass.restrict_to_chain.calls", "count"),
    ("weights.mw_balance_check.self_s", "s"),
    ("weights.mw_balance_check.calls", "count"),
    ("genperm.GenPermutohedron.count_lattice_points.self_s", "s"),
    ("genperm.GenPermutohedron.count_lattice_points.points", "count"),
    ("tutte.t_transform.self_s", "s"),
    ("tutte.tutte_delcontr.calls", "count"),
    ("tutte.beta_pair.calls", "count"),
    *((f"checks.{s}.wall_s", "s") for s in SECTIONS),
)

# Printed by a traced run but kept out of BENCHMARK.json: no interpolation
# retries on any workload, so the count is 0, and the tracing overhead is
# below the noise of a pass on most workloads, so it can be negative.
REPORTED_ONLY = (
    ("poly.interpolate_univariate.retries", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Installs timing wrappers on the layers of an imported ``tautmat``."""

    def __init__(self):
        self.stats = collections.defaultdict(lambda: collections.defaultdict(float))
        self._stack = []
        self._undo = []
        self._perm_calls = []
        self._minor_keys = set()
        self._orig_iter_perm_bases = None

    # -- installation -------------------------------------------------------

    def install(self):
        from tautmat import engine, genperm, kclass, matroid, perms, poly, tutte, weights
        from tautmat.poly import InconsistentSamples

        st = self.stats
        minor_keys = self._minor_keys

        def count_classes(args, kwargs):
            st["engine.euler_char_many"]["classes"] += len(args[0])

        def count_samples(args, kwargs):
            s = st["poly.interpolate_univariate"]
            s["samples"] += len(args[0])
            degree = args[1] if len(args) > 1 else kwargs["degree_bound"]
            s["degree_max"] = max(s["degree_max"], degree)

        def retry(exc):
            if isinstance(exc, InconsistentSamples):
                st["poly.interpolate_univariate"]["retries"] += 1

        def minor_key(args, kwargs):
            m, upper, lower = args[0], args[1], args[2]
            minor_keys.add((m.n_elements, m.bases, upper, lower))

        def count_points(result):
            st["genperm.GenPermutohedron.count_lattice_points"]["points"] += result

        self._wrap_function(engine, "integrate_graded", "engine.integrate_graded")
        self._wrap_function(engine, "euler_char_many", "engine.euler_char_many", on_call=count_classes)
        self._wrap_function(engine, "integrate_inhomogeneous", "engine.integrate_inhomogeneous")
        self._wrap_function(poly, "interpolate_univariate", "poly.interpolate_univariate",
                            on_call=count_samples, on_error=retry)
        self._wrap_function(kclass, "restrict_to_chain", "kclass.restrict_to_chain")
        self._wrap_function(weights, "mw_balance_check", "weights.mw_balance_check")
        self._wrap_function(tutte, "t_transform", "tutte.t_transform")
        self._wrap_function(tutte, "tutte_delcontr", "tutte.tutte_delcontr")
        self._wrap_function(tutte, "beta_pair", "tutte.beta_pair")
        self._wrap_method(matroid.Matroid, "minor", "matroid.Matroid.minor", on_call=minor_key)
        self._wrap_method(genperm.GenPermutohedron, "count_lattice_points",
                          "genperm.GenPermutohedron.count_lattice_points", on_result=count_points)
        self._orig_iter_perm_bases = perms.iter_perm_bases
        self._rebind(perms.iter_perm_bases, self._recording_iter_perm_bases())

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, orig, wrapper):
        """Bind wrapper in place of orig in every tautmat module that holds it."""
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "tautmat" or name.startswith("tautmat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{orig.__qualname__} is bound in no tautmat module")

    def _wrap_function(self, module, attr, name, **hooks):
        orig = getattr(module, attr)
        self._rebind(orig, self._span(orig, name, **hooks))

    def _wrap_method(self, cls, attr, name, **hooks):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._span(orig, name, **hooks))

    def _span(self, orig, name, on_call=None, on_result=None, on_error=None):
        """Timing wrapper; the hooks see the arguments, the result, a raise."""
        stack = self._stack
        s = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                h0 = clock()
                on_call(args, kwargs)
                if stack:  # the hook's time is no layer's self time
                    stack[-1][0] += clock() - h0
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s["self_s"] += dt - frame[0]
                s["calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _recording_iter_perm_bases(self):
        orig = self._orig_iter_perm_bases
        calls = self._perm_calls
        stack = self._stack

        def iter_perm_bases(matroids):
            matroids = list(matroids)
            calls.append((matroids, stack[-1][1] if stack else None))
            return orig(matroids)

        iter_perm_bases.__wrapped__ = orig
        return iter_perm_bases

    # -- results ------------------------------------------------------------

    def replay_perms(self):
        """Time every recorded enumeration on its own; move that time to perms."""
        s = self.stats["perms.iter_perm_bases"]
        for matroids, consumer in self._perm_calls:
            counter = itertools.count()
            t0 = time.perf_counter()
            collections.deque(zip(self._orig_iter_perm_bases(matroids), counter), maxlen=0)
            dt = time.perf_counter() - t0
            items = next(counter)
            if items != math.factorial(matroids[0].n_elements):
                raise RuntimeError(f"replayed enumeration yielded {items} permutations")
            s["self_s"] += dt
            s["items"] += items
            s["calls"] += 1
            if consumer is not None:
                self.stats[consumer]["self_s"] -= dt
        self._perm_calls.clear()

    def metrics(self):
        """Flat {metric name: value} over the wrapped layers."""
        out = {}
        for layer, s in self.stats.items():
            for key, value in s.items():
                out[f"{layer}.{key}"] = value
        calls = self.stats["matroid.Matroid.minor"]["calls"]
        out["matroid.Matroid.minor.distinct_ratio"] = (
            len(self._minor_keys) / calls if calls else 0.0
        )
        return out
