"""Tracing from outside the program: every public function of each tiara
module is wrapped at every place that holds a reference to it.

A module such as ``attention`` binds ``dstft_bins`` by name at import, and
``cli`` and ``verifier`` do the same for what they import, so patching only
``tiara.spectral.dstft_bins`` would miss most calls.  ``Tracer.operation``
replaces the function object in every loaded ``tiara`` module (and public
methods on the classes those modules define) and puts the originals back
afterwards.

Each call records a span (operation id, span id, parent id, name, start,
end) in memory; ``write`` stores them when the run ends.  Wrappers are
installed for one operation at a time (``operation``), so untraced
operations run the program exactly as shipped.  A layer is the
module a function is defined in.  The root span of an operation is the
``cli.main`` call made by the benchmark, so ``cli`` self time is operation
time that no library span covers: argparse, CSV formatting, stacking.
"""

import inspect
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("spectral", "attention", "consistency", "verifier", "promptblend",
          "tensorfile", "config")
ROOT_SPAN = "cli.main"


def _public_functions(module):
    """(owner, attribute, function) for the public functions a module
    defines, and the public plain methods of the classes it defines."""
    found = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, name, value))
        elif inspect.isclass(value):
            found.extend((value, attr, method) for attr, method in vars(value).items()
                         if inspect.isfunction(method) and not attr.startswith("_"))
    return found


class Tracer:
    """Spans and counts of the first ``keep_ops`` traced operations.

    Later operations are traced the same way, so their times still show
    the tracing overhead, but their spans are dropped: a field_reweight
    operation makes about 20,000 spans.
    """

    def __init__(self, keep_ops=10):
        self.keep_ops = keep_ops
        self.spans = []                 # (op, span id, parent id, name, start, end)
        self.counts = Counter()         # values computed from arguments, summed over ops
        self.ops = 0                    # operations traced, kept or not
        self._stack = [0]
        self._next_id = 1
        self._patched = []              # (owner, attribute, original)

    def _wrap(self, name, function, op, spans, counts):
        stack, after = self._stack, _AFTER.get(name)

        @wraps(function)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((op, span_id, parent, name, start, end))
                if after is not None:
                    after(counts, args, kwargs)
        return traced

    def _install(self, op, spans, counts):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tiara" or n.startswith("tiara."))]
        wrapped = {}
        for layer in LAYERS:
            for owner, attr, function in _public_functions(sys.modules["tiara." + layer]):
                wrapper = self._wrap(f"{layer}.{attr}", function, op, spans, counts)
                wrapped[id(function)] = wrapper
                self._patched.append((owner, attr, function))
                setattr(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def _uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def operation(self):
        """Trace the calls made inside the block as one operation."""
        self.ops += 1
        kept = self.ops <= self.keep_ops
        spans, counts = (self.spans, self.counts) if kept else ([], Counter())
        self._install(self.ops, spans, counts)
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._uninstall()
            spans.append((self.ops, span_id, 0, ROOT_SPAN, start, end))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart\tend\n")
            for op, span, parent, name, start, end in self.spans:
                handle.write(f"{op}\t{span}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    def summary(self):
        """Per-operation totals: self time per layer, and inclusive time and
        call count per function, plus the counts computed from arguments."""
        names = {span: name for _, span, _, name, _, _ in self.spans}
        covered = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        self_s, inclusive, calls = Counter(), Counter(), Counter()
        for _, span, parent, name, start, end in self.spans:
            self_s[name.split(".")[0]] += (end - start) - covered[span]
            inclusive[name] += end - start
            calls[name] += 1
            if name == "spectral.dstft_bins" and names.get(parent, "").startswith("consistency."):
                calls["consistency.dstft_bins"] += 1
        ops = max(min(self.ops, self.keep_ops), 1)
        return {
            "self_ms": {layer: 1e3 * t / ops for layer, t in self_s.items()},
            "ms": {name: 1e3 * t / ops for name, t in inclusive.items()},
            "calls": {name: c / ops for name, c in calls.items()},
            "counts": {key: c / ops for key, c in self.counts.items()},
            "op_ms": 1e3 * inclusive[ROOT_SPAN] / ops,
        }


def _dstft_terms(counts, args, kwargs):
    window, ks = args[1], args[3]
    counts["spectral.dstft_bins.terms"] += window.length * len(ks)


def _bytes_read(counts, args, kwargs):
    counts["tensorfile.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, kwargs):
    counts["tensorfile.bytes_written"] += os.path.getsize(args[0])


# Counts taken from a call's arguments after the span closes.
_AFTER = {
    "spectral.dstft_bins": _dstft_terms,
    "tensorfile.read_tensor": _bytes_read,
    "tensorfile.write_tensor": _bytes_written,
}
