"""Per-layer tracing installed from outside the package.

Callers inside quadident bind their dependencies with ``from ... import``, so
a wrapper only takes effect where the caller looks the name up: the wrappers
are installed into the importing module's namespace (``registry``,
``series``, ``specfun``, ``ledger``, ``cli``), never into the defining
module alone. Nothing under ``src/`` changes.

``install`` must run before the first ``registry()`` call, because closed-form
cases capture their function objects when the registry is built.

Each wrapped call records a span ``(layer, start, end, parent)``. Spans stay in
memory until ``take_pass`` folds them into per-layer totals between passes;
a layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

CIRCLE_EPS = 1e-3  # |z| within this of 1 counts as a circle polylog call


def _polylog_complex_layer(p, z, *rest, **kw):
    near_circle = abs(abs(complex(z)) - 1.0) <= CIRCLE_EPS
    return "specfun.polylog_complex." + ("circle" if near_circle else "disc")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._seen_coeffs: set = set()

    def wrap(self, fn, layer, account=None):
        """Return ``fn`` wrapped in a span named ``layer`` (a string, or a
        callable of the call's arguments); ``account(counts, args, result)``
        adds the call's work counts."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if account is not None:
                account(counts, args, result)
            return result

        return traced

    def _account_coeff(self, counts, args, result):
        key = tuple(args)
        if key not in self._seen_coeffs:
            self._seen_coeffs.add(key)
            counts["combinatorics.arctan_power_coeff.first_calls"] += 1

    def install(self):
        """Wrap every traced entry point where its callers look it up, and
        return the traced ``verify``; it is also what the CLI calls."""
        registry = importlib.import_module("quadident.registry")
        series = importlib.import_module("quadident.series")
        specfun = importlib.import_module("quadident.specfun")
        ledger = importlib.import_module("quadident.ledger")

        def quad(counts, args, res):
            counts["quadrature.evals"] += res.evaluations
            counts["quadrature.not_converged"] += not res.converged

        def summed(counts, args, res):
            counts["series.terms"] += res.terms_used
            counts["series.not_converged"] += not res.converged

        wrapped = {}

        def put(module, name, layer, account=None):
            if name not in wrapped:
                wrapped[name] = self.wrap(getattr(module, name), layer, account)
            setattr(module, name, wrapped[name])

        for name in ("integrate_unit", "integrate_semi_infinite"):
            put(registry, name, "quadrature", quad)
        for name in ("sum_direct", "sum_alternating_accelerated", "sum_eq8"):
            put(registry, name, "series", summed)
        put(registry, "incomplete_beta", "specfun.incomplete_beta")
        for module in (registry, specfun):
            put(module, "polylog_real", "specfun.polylog_real")
        put(specfun, "polylog_complex", _polylog_complex_layer)
        for name in ("eq19_rhs", "ramanujan_rhs", "dilog_identity_rhs"):
            put(registry, name, "specfun.closed_form")
        put(registry, "arctan_power_coeff", "combinatorics.arctan_power_coeff",
            self._account_coeff)
        for name in ("skew_harmonic_float", "odd_harmonic_float", "leibniz_partial_float"):
            put(registry, name, "combinatorics.prefix")
        for name in ("odd_harmonic_float", "leibniz_partial_float"):
            put(series, name, "combinatorics.prefix")
        ledger.render_json = self.wrap(ledger.render_json, "ledger.render_json")
        verify = self.wrap(ledger.verify, _case_layer)
        importlib.import_module("quadident.cli").verify = verify
        return verify

    def take_pass(self) -> dict:
        """Fold the spans and counts recorded since the last call into
        per-layer totals, and start afresh."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
            total_s[name] += end - start
        out = {"calls": dict(calls), "self_s": dict(self_s),
               "total_s": dict(total_s), "counts": dict(self.counts)}
        spans.clear()
        self.counts.clear()
        return out


def _case_layer(case_id, *args, **kwargs):
    return "case:" + case_id
