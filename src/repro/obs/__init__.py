"""``repro.obs`` — the unified observability layer (DESIGN.md §4.7).

Two halves:

* :mod:`repro.obs.metrics` — counters, gauges and p50/p99 histograms
  in named :class:`MetricsRegistry` instances.  These are the
  pipeline's only counters: ``BitstreamCache``, ``CompileService``,
  ``Runtime`` and ``CascadeServer`` register their metrics here, and
  ``stats()``/``:stats`` read them back from the registry.
* :mod:`repro.obs.trace` — a process-wide structured event stream
  (eval windows, engine admissions, tier swaps, compile phases, cache
  hits, scheduler slices) carrying both virtual and host timestamps,
  exportable as JSONL or Chrome ``trace_event`` JSON.

Surfaces: the ``:trace`` / ``:stats`` REPL commands, the ``trace`` /
``metrics`` server ops, and the ``CASCADE_TRACE`` environment knob.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      merge_registries)
from .trace import (REQUIRED_EVENT_KINDS, TraceEvent, Tracer, tracer,
                    validate_jsonl)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_registries",
    "REQUIRED_EVENT_KINDS", "TraceEvent", "Tracer", "tracer",
    "validate_jsonl",
    "global_registry",
]

#: A process-wide fallback registry for call sites with no component
#: registry in reach (e.g. bare ``estimate_resources()`` calls).
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL_REGISTRY
