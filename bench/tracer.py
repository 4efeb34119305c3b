"""Span tracer for finsum's layers, installed from outside the package.

``Tracer.install()`` replaces each layer's entry points with wrappers that
record a span (id, layer, start, end, parent span id, op id) around the
call.  Nothing under ``src/`` changes: module functions are rebound in the
``finsum`` namespaces that hold them, and methods are replaced on their
class.  ``uninstall()`` puts the originals back.

A span opens only when the caller is not already in the same layer, so
``logsum_symbolic`` calling ``_symbolic_parts`` is one ``logsum.symbolic``
span, and calls inside a module wrapped for its importers (``special``)
are not spans at all.  Self time is the span's thread CPU time minus that
of its child spans, so the time a catalog thread spends waiting for the
interpreter lock is not charged to the layer it happens to be in.  Spans are kept in memory up to
``SPAN_CAP``; the per-layer sums always cover every span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

SPAN_CAP = 200_000

# (layer, module, names, where).  ``where`` is "all" to rebind a function
# in every finsum namespace that holds it, "importers" to skip the module
# that defines it (so recursion inside the module, e.g. logsum_value, gains
# no wrapper frames), or "class" for methods "Class.method".  A names entry
# of None means every public function the module defines.
LAYERS = (
    ("exact.poly_gcd", "finsum.exact", ("poly_gcd",), "all"),
    ("exact.ratfun_init", "finsum.exact", ("RationalFunction.__init__",), "class"),
    ("exact.poly_mul", "finsum.exact", ("Polynomial.__mul__", "Polynomial.__rmul__"), "class"),
    ("exact.poly_divmod", "finsum.exact", ("Polynomial.__divmod__",), "class"),
    ("exact.laurent_mul", "finsum.exact", ("LaurentSeries.__mul__", "LaurentSeries.__rmul__"), "class"),
    ("exact.laurent_inverse", "finsum.exact", ("LaurentSeries.inverse",), "class"),
    ("special", "finsum.special", None, "importers"),
    ("genfun", "finsum.genfun", None, "importers"),
    ("zetavals", "finsum.zetavals", None, "importers"),
    ("volkenborn", "finsum.volkenborn", None, "importers"),
    ("logsum.symbolic", "finsum.logsum", ("logsum_symbolic", "_symbolic_parts"), "all"),
    ("logsum.table", "finsum.logsum", ("table",), "all"),
    ("logsum.numeric", "finsum.logsum",
     ("logsum_direct", "logsum_recurrence", "logsum_bernoulli_stirling", "logsum_at_half"), "all"),
    ("logsum.numeric", "finsum.logsum", ("logsum_value",), "importers"),
    ("logsum.oeis", "finsum.logsum", ("harmonic_lcm_sequence", "lcm_harmonic"), "all"),
    ("identities.record", "finsum.identities", ("run_identity",), "all"),
    ("cli", "finsum.cli", ("main",), "all"),
)

# Layers whose results are scanned for the largest coefficient bit-length.
_COEFF_LAYERS = ("exact.poly_gcd", "exact.ratfun_init", "exact.poly_mul", "exact.poly_divmod")


def _poly_bits(poly) -> int:
    best = 0
    for c in getattr(poly, "coeffs", ()):
        try:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        except AttributeError:  # coefficients from another ring
            continue
        if bits > best:
            best = bits
    return best


def _coeff_bits(layer, args, result) -> int:
    if layer == "exact.ratfun_init":
        target = args[0]
        return max(_poly_bits(target.num), _poly_bits(target.den))
    if layer == "exact.poly_divmod":
        return max(_poly_bits(p) for p in result)
    return _poly_bits(result)


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames: [layer, span_id, child_cpu]
        self.calls = defaultdict(int)
        self.self_cpu = defaultdict(float)
        self.max_bits = 0
        self.records = []  # (record id, family, inclusive cpu, passed)


class Tracer:
    """Collects spans and per-layer sums; see the module docstring."""

    def __init__(self):
        self.op_id = None
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._patches = []  # (owner, name, original)
        self._family = {}

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            self._states.append(state)
            return state

    # -- installing the wrappers -------------------------------------------
    def install(self):
        finsum_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "finsum" or name.startswith("finsum."))
        ]
        identities = sys.modules["finsum.identities"]
        self._family = {r.id: r.family for r in identities.records()}
        for layer, module_name, names, where in LAYERS:
            module = sys.modules[module_name]
            if where == "class":
                for dotted in names:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(layer, original))
                continue
            if names is None:
                names = [
                    n for n, obj in vars(module).items()
                    if not n.startswith("_") and callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module_name
                ]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, original)
                for target in finsum_modules:
                    if where == "importers" and target is module:
                        continue
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, attr, original))
                            setattr(target, attr, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, fn, args, kwargs)

        return wrapper

    # -- one wrapped call ------------------------------------------------------
    def _call(self, layer, fn, args, kwargs):
        state = self._state()
        stack = state.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent_id = stack[-1][1] if stack else None
        frame = [layer, span_id, 0.0]
        stack.append(frame)
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        result = None
        returned = False
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            cpu1 = time.thread_time()
            wall1 = time.perf_counter()
            stack.pop()
            inclusive = cpu1 - cpu0
            state.calls[layer] += 1
            state.self_cpu[layer] += inclusive - frame[2]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, layer, wall0, wall1, parent_id, self.op_id))
            # The bookkeeping below belongs to no layer: its time is added to
            # the parent's child time, so the parent's self time excludes it.
            if returned and layer in _COEFF_LAYERS:
                bits = _coeff_bits(layer, args, result)
                if bits > state.max_bits:
                    state.max_bits = bits
            elif layer == "identities.record":
                rid = args[0]
                passed = returned and bool(result.get("passed"))
                state.records.append((rid, self._family.get(rid, "?"), inclusive, passed))
            if stack:
                stack[-1][2] += time.thread_time() - cpu0

    # -- results ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-layer sums over every thread so far."""
        calls, self_cpu = defaultdict(int), defaultdict(float)
        records, max_bits = [], 0
        for state in list(self._states):
            for layer, v in state.calls.items():
                calls[layer] += v
            for layer, v in state.self_cpu.items():
                self_cpu[layer] += v
            records.extend(state.records)
            max_bits = max(max_bits, state.max_bits)
        return {
            "calls": dict(calls),
            "self_s": dict(self_cpu),
            "records": records,
            "max_coeff_bits": max_bits,
            "spans_total": sum(calls.values()),
        }
