"""The traced pass: layer attribution from outside the program.

Two collectors, both benchmark-side (nothing under ``src/`` changes):

* :class:`LayerProfile` — a ``cProfile`` collector.  The profiler records an
  enter/exit span for every call and keeps per-function and per-caller-edge
  totals in memory; when the run ends :meth:`LayerProfile.fold` charges each
  function's *self* time and call count to the layer that owns its defining
  source file (:func:`layer_of`).  Built-in calls (``heappush``, ``dict.get``,
  numpy draws) have no source file: their time is charged to the *calling*
  layer through the profile's caller edges, so ``simulation.engine`` pays
  for its heap operations and ``workload`` for its random draws.
* :class:`EventMix` — a ``Simulator.add_trace_hook`` hook that counts fired
  events by the labels the source already sets.

The span tree's shared identifier is the event dispatch: everything between
two kernel pops belongs to one event.  Request-id spans that follow one
operation across events need hooks inside the program (ROADMAP item 5).

Profiling costs about 2.2x in host time and shifts proportions towards
call-heavy code, which is why end-to-end metrics only ever come from the
untraced pass; call counts and the event mix are exact either way.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["LAYERS", "layer_of", "layer_of_module", "LayerProfile", "EventMix", "EVENT_CLASSES"]

_LEDGER_DIR = Path(__file__).resolve().parent
_PACKAGE_MARKER = "/src/repro/"

#: Pseudo-layer of the benchmark's own frames (the trace hook, the segment
#: loop); excluded from every total so the tracer does not measure itself.
BENCH = "bench"
EXTERNAL = "external"
#: Functions kept, by self time, in a trace document.
TOP_FUNCTIONS = 40

#: Packages whose every module is one layer.
_PACKAGE_LAYERS = {
    "middleware": "middleware",
    "workload": "workload",
    "monitoring": "monitoring",
    "consistency": "consistency",
    "core": "core",
    "cost": "core",
    "experiments": "runner",
}

#: Modules of the packages that split into several layers, and of the
#: package root.  A new module in one of these must be assigned here;
#: ``test_ledger.py`` fails until it is.
_MODULE_LAYERS = {
    "__init__.py": "runner",
    "cli.py": "runner",
    "runner.py": "runner",
    "simulation/__init__.py": "simulation.misc",
    "simulation/engine.py": "simulation.engine",
    "simulation/events.py": "simulation.engine",
    "simulation/timers.py": "simulation.timers",
    "simulation/network.py": "simulation.network",
    "simulation/resources.py": "simulation.resources",
    "simulation/randomness.py": "simulation.randomness",
    "simulation/errors.py": "simulation.misc",
    "simulation/interference.py": "simulation.misc",
    "simulation/timeseries.py": "simulation.misc",
    "simulation/sharding.py": "simulation.sharding",
    "cluster/__init__.py": "cluster.cluster",
    "cluster/cluster.py": "cluster.cluster",
    "cluster/errors.py": "cluster.cluster",
    "cluster/coordinator.py": "cluster.coordinator",
    "cluster/node.py": "cluster.replica",
    "cluster/storage.py": "cluster.replica",
    "cluster/versioning.py": "cluster.replica",
    "cluster/types.py": "cluster.replica",
    "cluster/ring.py": "cluster.placement",
    "cluster/membership.py": "cluster.placement",
    "cluster/hinted_handoff.py": "cluster.background",
    "cluster/read_repair.py": "cluster.background",
    "cluster/anti_entropy.py": "cluster.background",
    "cluster/rebalance.py": "cluster.background",
    "cluster/faults.py": "cluster.background",
}

LAYERS: Tuple[str, ...] = (
    "simulation.engine",
    "simulation.timers",
    "simulation.network",
    "simulation.resources",
    "simulation.randomness",
    "simulation.misc",
    "simulation.sharding",
    "cluster.coordinator",
    "cluster.cluster",
    "cluster.replica",
    "cluster.placement",
    "cluster.background",
    "middleware",
    "workload",
    "monitoring",
    "consistency",
    "core",
    "runner",
    EXTERNAL,
)


def layer_of_module(relative: str) -> Optional[str]:
    """Layer of a module path relative to ``src/repro`` (``None``: unassigned)."""
    layer = _MODULE_LAYERS.get(relative)
    if layer is None and "/" in relative:
        layer = _PACKAGE_LAYERS.get(relative.split("/", 1)[0])
    return layer


def layer_of(filename: str) -> str:
    """Layer that owns a code object's ``co_filename``."""
    index = filename.rfind(_PACKAGE_MARKER)
    if index >= 0:
        layer = layer_of_module(filename[index + len(_PACKAGE_MARKER) :])
        if layer is None:
            raise KeyError(
                f"{filename} is not assigned to a layer; add it to "
                "benchmarks/ledger/tracing.py"
            )
        return layer
    if filename.startswith(str(_LEDGER_DIR)):
        return BENCH
    return EXTERNAL


class LayerProfile:
    """``cProfile`` wrapped so only the wanted regions are recorded."""

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()
        self.enable = self._profiler.enable
        self.disable = self._profiler.disable

    def fold(self, ops: int) -> Dict[str, object]:
        """Fold the recorded spans into per-layer rows and a top-functions list."""
        calls: Dict[str, int] = {layer: 0 for layer in (*LAYERS, BENCH)}
        self_s: Dict[str, float] = {layer: 0.0 for layer in (*LAYERS, BENCH)}
        builtin_total = 0.0
        builtin_charged = 0.0
        functions: List[Tuple[float, int, str, str]] = []
        for entry in self._profiler.getstats():
            code = entry.code
            if isinstance(code, str):
                # A built-in: charged below, through its callers' edges.
                builtin_total += entry.inlinetime
                continue
            layer = layer_of(code.co_filename)
            calls[layer] += entry.callcount
            self_s[layer] += entry.inlinetime
            functions.append(
                (
                    entry.inlinetime,
                    entry.callcount,
                    f"{Path(code.co_filename).name}:{code.co_firstlineno}:{code.co_name}",
                    layer,
                )
            )
            for edge in entry.calls or ():
                if isinstance(edge.code, str):
                    calls[layer] += edge.callcount
                    self_s[layer] += edge.inlinetime
                    builtin_charged += edge.inlinetime
                    functions.append((edge.inlinetime, edge.callcount, edge.code, layer))
        # Built-in time no Python caller accounts for (the profiler's own
        # enable/disable calls, made from frames entered before profiling).
        unattributed = max(0.0, builtin_total - builtin_charged)
        total_s = sum(self_s[layer] for layer in LAYERS) + unattributed
        total_calls = sum(calls[layer] for layer in LAYERS)
        functions = [row for row in functions if row[3] != BENCH]
        functions.sort(key=lambda row: (-row[0], row[2], row[3]))
        return {
            "layers": {
                layer: {
                    "calls": calls[layer],
                    "calls_per_op": calls[layer] / ops,
                    "self_s": self_s[layer],
                    "self_share": self_s[layer] / total_s if total_s else 0.0,
                }
                for layer in LAYERS
            },
            "calls": total_calls,
            "calls_per_op": total_calls / ops,
            "profiled_s": total_s,
            "unattributed_share": unattributed / total_s if total_s else 0.0,
            "bench_self_s": self_s[BENCH],
            "top_functions": [
                {"self_s": seconds, "calls": count, "function": name, "layer": layer}
                for seconds, count, name, layer in functions[:TOP_FUNCTIONS]
            ],
        }


#: Event classes of the mix, in reporting order.
EVENT_CLASSES = ("net", "service", "arrival", "timer", "background")

_TIMER_LABELS = frozenset(("read:timeout", "write:timeout", "read:hedge", "timer:tick"))


def _event_class(label: Optional[str]) -> str:
    if label is None:
        return "background"
    if label.startswith("net:"):
        return "net"
    if label.startswith("server:") and label.endswith(":finish"):
        return "service"
    # A tenant's burst process is an arrival process with its own label.
    if label.endswith(":arrival") or ":tenant-burst:" in label:
        return "arrival"
    if label in _TIMER_LABELS:
        return "timer"
    return "background"


class EventMix:
    """Counts fired events per label; classifies the distinct labels afterwards."""

    def __init__(self) -> None:
        self._by_label: Dict[Optional[str], int] = {}

    def hook(self):
        """The ``(time, label)`` callable to pass to ``add_trace_hook``."""
        by_label = self._by_label
        get = by_label.get

        def count(time: float, label: Optional[str]) -> None:
            by_label[label] = get(label, 0) + 1

        return count

    def by_class(self) -> Dict[str, int]:
        """Event count per class; the classes partition every fired event."""
        mix = {name: 0 for name in EVENT_CLASSES}
        for label, count in self._by_label.items():
            mix[_event_class(label)] += count
        return mix
