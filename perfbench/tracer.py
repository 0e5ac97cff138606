"""Per-layer spans and counters for mzvkit, recorded from outside the package.

The tracer replaces the public functions of each module with wrappers, in
every ``mzvkit`` module namespace that binds them (``verification`` and
``regularization`` import ``harmonic`` and ``shuffle`` by name, and the
package re-exports most functions).  A wrapper opens a span unless the
innermost open span already belongs to the same layer, so recursion and
calls inside one layer count once.  A layer's self time is its spans'
duration minus the time of the child spans inside them.  Spans and counts
stay in memory; :meth:`Tracer.metrics` reads them after the run.

A name in :data:`LAYERS`, :data:`CACHES` or the counter hooks that mzvkit
no longer has, or a hooked argument a function no longer takes, raises
:class:`TracerError` at :meth:`Tracer.install`.  A change that renames or
removes one must update the maps here; the tracer never reports a layer it
has stopped measuring as 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (module, functions whose calls are spans of that layer).
# finite_sums._VARIANTS holds the unwrapped zeta_* functions, so zn_apply
# itself is an exact-DP span; evaluate_chain catches the work under it.
LAYERS = {
    "algebra.harmonic": ("algebra", ("harmonic",)),
    "algebra.shuffle": ("algebra", ("shuffle",)),
    "regularization": (
        "regularization",
        ("star_decompose", "shuffle_decompose", "reg_star", "reg_shuffle",
         "z_star_polynomial", "z_shuffle_polynomial", "reconstruct", "poly_mul"),
    ),
    "finite_sums.exact": (
        "finite_sums",
        ("zn_apply", "zeta_lt", "zeta_flat", "zeta_natural", "r_value", "evaluate_chain"),
    ),
    "finite_sums.brute": ("finite_sums", ("brute_force", "boundary_overlap_sum", "diagonal_overlap_sum")),
    "euler_maclaurin": ("euler_maclaurin", ("nested_sum_limit", "nested_sum_expansion")),
    "numeric.mzv": ("numeric", ("mzv",)),
    "numeric.float_dp": (
        "numeric",
        ("chain_value_f", "zeta_lt_f", "zeta_flat_f", "zeta_natural_f", "r_value_f",
         "zn_apply_f", "harmonic_number_f"),
    ),
    "numeric.li": ("numeric", ("li_value",)),
    "numeric.fit": ("numeric", ("fit_log_rate",)),
}

# hit-ratio metric prefix -> (module, lru_cache function); the cache sizes are
# reported as cache.<function without its underscore>.currsize
CACHES = {
    "algebra.harmonic_parts": ("algebra", "_harmonic_parts"),
    "algebra.shuffle_words": ("algebra", "_shuffle_words"),
    "regularization.star_word": ("regularization", "_star_word"),
    "regularization.shuffle_word": ("regularization", "_shuffle_word"),
    "numeric.mzv": ("numeric", "_limit_with_error"),
    "numeric.word_value_f": ("numeric", "_word_value_f"),
}

CAMPAIGN_NAMES = (
    "msw", "harmonic", "flat-natural", "lemma-r", "asymp-shuffle",
    "asymp-dsr", "asymp-h", "asymp-li", "edsr",
)

# every per-layer metric with its unit, in report order
METRICS = {
    **{f"{layer}.calls": "count" for layer in ("algebra.harmonic", "algebra.shuffle", "regularization")},
    "algebra.harmonic.self_s": "s",
    "algebra.shuffle.self_s": "s",
    "algebra.harmonic_parts.hit_ratio": "ratio",
    "algebra.shuffle_words.hit_ratio": "ratio",
    "regularization.self_s": "s",
    "regularization.star_word.hit_ratio": "ratio",
    "regularization.shuffle_word.hit_ratio": "ratio",
    "finite_sums.exact.calls": "count",
    "finite_sums.exact.self_s": "s",
    "finite_sums.exact.chain_n": "count",
    "finite_sums.brute.self_s": "s",
    "finite_sums.brute.refused": "count",
    "euler_maclaurin.passes": "count",
    "euler_maclaurin.self_s": "s",
    "euler_maclaurin.split_sum": "count",
    "numeric.mzv.calls": "count",
    "numeric.mzv.hit_ratio": "ratio",
    "numeric.mzv.escalations": "count",
    "numeric.float_dp.calls": "count",
    "numeric.float_dp.self_s": "s",
    "numeric.float_dp.chain_n": "count",
    "numeric.word_value_f.hit_ratio": "ratio",
    "numeric.li.self_s": "s",
    "numeric.fit.calls": "count",
    "numeric.fit.self_s": "s",
    "numeric.fit.failed": "count",
    **{f"verification.{name}.s": "s" for name in CAMPAIGN_NAMES},
    "verification.self_s": "s",
    "verification.cases": "count",
    "verification.report_write_s": "s",
    **{f"cache.{fn.lstrip('_')}.currsize": "count" for _, fn in CACHES.values()},
}


class TracerError(LookupError):
    """A function, module, cache or argument the tracer wraps is missing."""


def _argument_reader(fn, name: str):
    """A function of a call's ``(args, kwargs)`` returning its argument ``name``."""
    params = inspect.signature(fn).parameters
    if name not in params:
        raise TracerError(f"{fn.__module__}.{fn.__name__} has no argument {name!r}")
    param = params[name]
    pos = list(params).index(name) if param.kind is param.POSITIONAL_OR_KEYWORD else None

    def read(args: tuple, kwargs: dict):
        if pos is not None and len(args) > pos:
            return args[pos]
        return kwargs.get(name, param.default)

    return read


class Tracer:
    """Wraps mzvkit's public functions between :meth:`install` and :meth:`uninstall`."""

    def __init__(self) -> None:
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [layer, time of child spans]
        self._patches: list[tuple[object, str, object]] = []
        self._refusal: type[Exception] = Exception  # set to CapExceededError by install()
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        self.cache_stats: dict[str, tuple[int, int, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str) -> tuple[list, float]:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, frame: list, start: float) -> None:
        duration = time.perf_counter() - start
        self._stack.pop()
        layer = frame[0]
        self.counts[f"{layer}.calls"] += 1
        self.counts[f"{layer}.self_s"] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, layer: str):
        """A span of ``layer`` opened by the benchmark around its own calls."""
        frame, start = self._open(layer)
        try:
            yield
        finally:
            self._close(frame, start)

    def _wrap(self, layer: str | None, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if layer is None or (tracer._stack and tracer._stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame, start = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except tracer._refusal:
                tracer.counts[f"{layer}.refused"] += 1
                raise
            finally:
                tracer._close(frame, start)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters at layer boundaries -----------------------------------------

    def _hooks(self) -> dict[str, tuple]:
        """function name -> (argument names, counter of those arguments, counter of the result)."""
        c = self.counts

        def chain_n(key):
            def count(chain, n):
                c[key] += len(chain.steps) * n
            return count

        def em_pass(split):
            c["euler_maclaurin.split_sum"] += split

        def escalation(tier):
            c["numeric.mzv.escalations"] += tier >= 1

        def harmonic_number(n):
            c["numeric.float_dp.chain_n"] += n

        def fit_failed(fit):
            c["numeric.fit.failed"] += not fit.ok

        return {
            "evaluate_chain": (("chain", "N"), chain_n("finite_sums.exact.chain_n"), None),
            "chain_value_f": (("chain", "N"), chain_n("numeric.float_dp.chain_n"), None),
            "harmonic_number_f": (("n",), harmonic_number, None),
            "nested_sum_limit": (("split",), em_pass, None),
            "_limit_with_error": (("tier",), escalation, None),
            "fit_log_rate": ((), None, fit_failed),
        }

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "mzvkit" and not name.startswith("mzvkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        self._refusal = _function("errors", "CapExceededError")
        hooks = self._hooks()
        targets = [(layer, module, name) for layer, (module, names) in LAYERS.items() for name in names]
        targets.append((None, "numeric", "_limit_with_error"))  # counts escalations, opens no span
        for prefix, (module, name) in CACHES.items():
            fn = _function(module, name)
            if not hasattr(fn, "cache_info"):
                raise TracerError(f"mzvkit.{module}.{name} is no longer an lru_cache")
            self._caches[prefix] = fn
            info = fn.cache_info()
            self._cache_start[prefix] = (info.hits, info.misses)
        # resolve every target before patching any, so that a missing one leaves mzvkit untouched
        wrappers, wrapped = [], set()
        for layer, module, name in targets:
            original = _function(module, name)
            before = after = None
            if name in hooks:
                arg_names, count_args, after = hooks[name]
                if count_args is not None:
                    readers = [_argument_reader(original, arg) for arg in arg_names]

                    def before(args, kwargs, readers=readers, count_args=count_args):
                        count_args(*(read(args, kwargs) for read in readers))
            wrappers.append((original, self._wrap(layer, original, before, after)))
            wrapped.add(name)
        if set(hooks) - wrapped:
            raise TracerError(f"hooks on functions no layer wraps: {sorted(set(hooks) - wrapped)}")
        for original, wrapper in wrappers:
            self._patch(original, wrapper)

    def uninstall(self) -> None:
        """Restore every binding and snapshot the caches."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_start[prefix]
            self.cache_stats[prefix] = (info.hits - hits0, info.misses - misses0, info.currsize)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric name in :data:`METRICS` with its value."""
        out = {name: 0.0 for name in METRICS}
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        out["euler_maclaurin.passes"] = self.counts["euler_maclaurin.calls"]
        for prefix, (hits, misses, size) in self.cache_stats.items():
            out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"cache.{CACHES[prefix][1].lstrip('_')}.currsize"] = size
        return {name: out[name] for name in METRICS}


def _function(module: str, name: str):
    """``mzvkit.<module>.<name>``; raises :class:`TracerError` when either is missing."""
    try:
        mod = importlib.import_module(f"mzvkit.{module}")
    except ImportError as exc:
        raise TracerError(f"module mzvkit.{module} is missing") from exc
    fn = getattr(mod, name, None)
    if not callable(fn):
        raise TracerError(f"mzvkit.{module}.{name} is missing")
    return fn
