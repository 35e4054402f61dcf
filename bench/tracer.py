"""Spans around the public functions of each mmwsync layer, from outside.

``Tracer.install`` replaces every public function of the layer modules, in
every mmwsync namespace that refers to it, by a wrapper that records a span;
``uninstall`` puts the originals back.  Spans are aggregated in memory per
function: call count, inclusive time and self time (inclusive time minus the
part covered by nested spans).  Time spent inside an experiment call but
outside every top-level span is montecarlo's own work.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("waveform", "quantization", "channel", "beamforming", "sqnr", "optimizer", "detector")


class SpanStats:
    __slots__ = ("calls", "incl", "self_")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_ = 0.0


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [getattr(package, name) for name in package.__all__
                         if isinstance(getattr(package, name, None), types.ModuleType)]
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.top_level_s = 0.0
        self.bound_evals = 0
        self.iterations = 0
        self.propagate_calls = 0
        self.propagate_distinct = 0
        self._inputs: set = set()
        self._held: list = []

    def end_call(self) -> None:
        """Close the distinct-input window of one experiment call."""
        self.propagate_distinct += len(self._inputs)
        self._inputs.clear()
        self._held.clear()

    # -- counters observed at layer boundaries ---------------------------

    def _observe(self, name, args, result) -> None:
        if name == "sqnr.sqnr_lower_bound_single":
            self.bound_evals += int(getattr(args[0], "size", 1))
        elif name.startswith("optimizer.select_"):
            self.iterations += result.iteration_count
        elif name == "channel.propagate":
            ch, _, tx, _, cfo = args[:5]
            self.propagate_calls += 1
            # hold the channel so its id cannot be reused within the window
            self._held.append(ch)
            self._inputs.add((id(ch), tx.tobytes(), cfo))

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                st = self.spans[name]
                st.calls += 1
                st.incl += dur
                st.self_ += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.top_level_s += dur
            self._observe(name, args, result)
            return result

        return span

    def install(self) -> None:
        if self._saved:
            return
        targets = {}
        for layer in LAYERS:
            mod = getattr(self._package, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                is_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if is_fn and getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- read-out ----------------------------------------------------------

    def incl_s(self, *names: str) -> float:
        return sum(self.spans[n].incl for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_ for n, st in self.spans.items() if n.startswith(layer + "."))
