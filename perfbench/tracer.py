"""Outside tracer for rotorsusy: spans around the public functions of each module.

The tracer changes no library file.  ``install`` rebinds every public
function in *every* ``rotorsusy`` module namespace that holds it (``from
.harmonics import harmonic_values`` copies the name into
``antikrawtchouk`` and ``verification``, so wrapping only the defining
module would miss those calls), and wraps ``Operator.__matmul__`` so that
dense matmuls show as spans of the ``operators`` layer.

A span is attributed to the module that defines the function.  Spans are
appended to an in-memory list at entry, carry the index of their parent
span, and are written out only when the pass ends.  A span's self time is
its duration minus the durations of its direct children, so the self times
of a call tree add up to the duration of its root span.

With ``memory=True`` every span also records the peak of ``tracemalloc``
traced memory above its entry level, children included.
"""

import functools
import json
import sys
import time
import tracemalloc
import types

LAYERS = ("harmonics", "operators", "susy", "eigenbases", "antikrawtchouk", "verification", "cli")

# span record fields
SPAN_FIELDS = ("layer", "name", "op", "size", "parent", "start", "end", "failed", "peak_bytes")
LAYER, NAME, OP, SIZE, PARENT, START, END, FAILED, PEAK = range(len(SPAN_FIELDS))


def _degree(args):
    """Degree j of a call: from a HarmonicSpace, an Operator, or an int first argument."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    j = getattr(first, "j", None)
    if j is None:
        j = getattr(getattr(first, "space", None), "j", None)
    return j if isinstance(j, int) else None


class Tracer:
    """Collects one span per wrapped call.

    ``op`` is set by the caller to the index of the benchmark op that is
    running, so spans can be grouped per op.  ``hooks`` maps a span name
    ``"<layer>.<function>"`` to ``hook(args, kwargs, result)``, called after
    a successful return to take work counts from arguments or results.
    """

    def __init__(self, memory=False):
        self.spans = []
        self.op = None
        self.hooks = {}
        self._memory = memory
        self._stack = []
        self._mem = []
        self._undo = []

    def wrap(self, fn, layer, name):
        """Return ``fn`` wrapped in a span of ``layer`` called ``<layer>.<name>``."""
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(layer, key, _degree(args))
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(idx, failed)
            hook = self.hooks.get(key)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _enter(self, layer, key, size):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [layer, key, self.op, size, parent, 0.0, 0.0, False, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        if self._memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        rec[START] = time.perf_counter()
        return idx

    def _exit(self, idx, failed):
        end = time.perf_counter()
        rec = self.spans[idx]
        rec[END] = end
        rec[FAILED] = failed
        self._stack.pop()
        if self._memory:
            _, peak = tracemalloc.get_traced_memory()
            start_cur, seen = self._mem.pop()
            top = max(peak, seen)
            rec[PEAK] = top - start_cur
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)

    def install(self, package="rotorsusy"):
        """Wrap every public function of ``package`` in every namespace that binds it."""
        prefix = package + "."
        wrapped = {}
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                if value not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[value] = self.wrap(value, layer, value.__name__)
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])
        operator = sys.modules[prefix + "operators"].Operator
        self._undo.append((operator, "__matmul__", operator.__matmul__))
        operator.__matmul__ = self.wrap(operator.__matmul__, "operators", "Operator.__matmul__")

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, rec))) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus its direct children's durations."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
