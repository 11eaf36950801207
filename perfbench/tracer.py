"""Spans around the calls into each delaymix layer.

A wrapper replaces a public function wherever delaymix code looks it up:
every module global bound to the function object is pointed at the wrapper.
`engine` imports `accumulate_window`, `cp_als`, `forecast` and the others
by name, and `filtering` calls `kalman_forward` as a module global, so
wrapping only the defining module would miss those calls. A function that
no longer exists is skipped and reads as 0 calls.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

LAYERS = {
    "moments": ("accumulate_window", "normalized_view"),
    "filtering": (
        "kalman_forward", "rts_smoother", "window_error", "select_regime", "forecast",
    ),
    "cpd": ("cp_als",),
    "realization": ("realize_components",),
    "syslin": ("simulate_delay_free",),
    "engine": ("engine_init", "engine_update"),
    "cli": ("read_csv_trajectory", "cmd_run"),
}


def _als(result):
    _, iters, residual = result
    return {"iters": iters, "residual": residual}


# Values read from a layer's return value that the engine itself discards.
_EXTRACT = {
    "cpd.cp_als": _als,
    "realization.realize_components": lambda res: {
        "orders": [item.model.state_dim for item in res]
    },
    "filtering.select_regime": lambda res: {"fit": res[1]},
    "engine.engine_update": lambda res: {"adapted": bool(res.adapted)},
}


def rebind(original, replacement):
    """Point every delaymix global bound to `original` at `replacement`.

    Returns a function that restores the original bindings.
    """
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "delaymix" or name.startswith("delaymix.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                sites.append((namespace, key))

    def undo():
        for namespace, key in sites:
            namespace[key] = original

    return undo


class Tracer:
    """Records (name, start, end, parent, update id, info) for each call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._update = -1
        self._updates = 0
        self._undo: list = []

    def install(self) -> None:
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"delaymix.{module_name}")
            for fname in names:
                original = getattr(module, fname, None)
                if callable(original):
                    wrapper = self._wrap(f"{module_name}.{fname}", original)
                    self._undo.append(rebind(original, wrapper))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extract = _EXTRACT.get(name)
        is_update = name == "engine.engine_update"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_update = self._update
            if is_update:
                self._update = self._updates
                self._updates += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._update, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self._update = outer_update
            if extract is not None:
                try:
                    span[5] = extract(result)
                except (TypeError, AttributeError, IndexError, ValueError):
                    pass  # the return value changed shape; the count still holds
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, update, info in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "update": update}
                if info is not None:
                    record["info"] = info
                handle.write(json.dumps(record) + "\n")


class LayerStats:
    """Per-function call counts, self time and call durations from spans.

    A span's self time is its duration minus the durations of the spans it
    directly caused, so self times add up to the outermost span's time.
    """

    def __init__(self, spans):
        durations = [end - start for _, start, end, _, _, _ in spans]
        self_time = list(durations)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self_time[span[3]] -= durations[index]
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        self.infos: dict[str, list] = {}
        for index, span in enumerate(spans):
            name = span[0]
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time[index]
            self.durations.setdefault(name, []).append(durations[index])
            if span[5] is not None:
                self.infos.setdefault(name, []).append(span[5])

    def count(self, name) -> int:
        return len(self.durations.get(name, ()))

    def busy(self, name) -> float:
        return self.self_s.get(name, 0.0)

    def total(self, name) -> float:
        return sum(self.durations.get(name, ()))

    def percentile_ms(self, name, q) -> float:
        values = self.durations.get(name)
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    def info(self, name, key) -> list:
        return [item[key] for item in self.infos.get(name, ()) if key in item]

