"""The metrics registry: counters, gauges and quantile sketches with labels.

One process-local registry holds every instrument of a run, so all
counters -- the router's batching/routing stats, the sampler's cluster
health gauges, benchmark-specific series -- export through **one path**
(:meth:`MetricsRegistry.collect` / :meth:`MetricsRegistry.to_dict`).

Instruments are deliberately minimal so the hot path stays cheap:

* :class:`Counter` -- a monotonically increasing value (``inc``);
* :class:`Gauge` -- a value that goes both ways (``set`` / ``inc``);
* :class:`~repro.obs.latency.QuantileSketch` -- the one distribution
  instrument (``observe``; p50 / p90 / p99 / p999 within a bounded
  relative error), registered through :meth:`MetricsRegistry.quantile_sketch`;
* :class:`ReadThrough` -- a plain int or dict another layer keeps, read
  only at export (:meth:`MetricsRegistry.read_through`).

Registering a name twice returns the *same* instrument as long as the
kind and label names match (so independent components can share a
series without coordination); a mismatch raises instead of silently
shadowing.  ``labels=(...)`` turns an instrument into a
:class:`LabeledFamily` whose children are keyed by label values --
``registry.counter("reads", labels=("pool",)).labels(pool="a").inc()``.

Everything here is observation-only bookkeeping: instruments never
schedule events, touch clocks, or otherwise feed back into the
simulation, which is what keeps telemetry-on and telemetry-off runs
byte-identical (see ``tests/sim/test_telemetry_noninterference.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} can only go up")
        self._value += amount

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A value that can go up and down (queue depths, lag, live pools)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def set(self, value) -> None:
        self._value = value

    def inc(self, amount=1) -> None:
        self._value += amount

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self._value})"


class LabeledFamily:
    """A set of same-named instruments keyed by label values.

    Children are created lazily on first :meth:`labels` access, in a
    deterministic dict keyed by the label-value tuple, so iteration (and
    therefore export) order is the order of first observation.
    """

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...],
                 child_class) -> None:
        if not label_names:
            raise ValueError("a labeled family needs at least one label name")
        self.name = name
        self.help = help
        self.label_names = label_names
        self._child_class = child_class
        self._children: Dict[Tuple, object] = {}

    @property
    def kind(self) -> str:
        return self._child_class.kind

    def labels(self, **labelvalues):
        """The child instrument for one label-value combination."""
        if set(labelvalues) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(labelvalues[name] for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._child_class(self.name, self.help)
            self._children[key] = child
        return child

    def items(self) -> List[Tuple[Tuple, object]]:
        return list(self._children.items())

    def as_dict(self) -> Dict:
        """Label-value -> value view (single-label keys are unwrapped)."""
        if len(self.label_names) == 1:
            return {key[0]: child.value for key, child in self._children.items()}
        return {key: child.value for key, child in self._children.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LabeledFamily({self.name!r}, labels={self.label_names}, "
                f"children={len(self._children)})")


class ReadThrough:
    """The value ``read()`` returns at export time; with a ``label``, a
    dict keyed by that label's values, exported like a labeled family."""

    kind = "read-through"
    __slots__ = ("name", "label", "_read")

    def __init__(self, name: str, read: Callable[[], object],
                 label: Optional[str] = None) -> None:
        self.name, self.label, self._read = name, label, read

    @property
    def value(self):
        value = self._read()
        return value if self.label is None else dict(value)


class MetricsRegistry:
    """The single export path for every instrument of one run."""

    def __init__(self) -> None:
        #: name -> instrument or family, in registration order.
        self._metrics: Dict[str, object] = {}
        #: name -> (kind, label names) shape recorded at registration.
        self._shapes: Dict[str, Tuple[str, Tuple[str, ...]]] = {}

    # -- registration ------------------------------------------------------------

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()):
        return self._register(name, help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()):
        return self._register(name, help, labels, Gauge)

    def quantile_sketch(self, name: str, help: str = "",
                        labels: Sequence[str] = ()):
        """A mergeable log-bucketed quantile sketch (p50/p90/p99/p999
        within a bounded relative error) -- see
        :class:`repro.obs.latency.QuantileSketch`."""
        # Imported lazily: latency.py builds on this registry.
        from repro.obs.latency import QuantileSketch
        return self._register(name, help, labels, QuantileSketch)

    def read_through(self, name: str, read: Callable[[], object],
                     label: Optional[str] = None) -> ReadThrough:
        """An instrument that reads its value from ``read()`` on export."""
        label_names = () if label is None else (label,)
        metric = self._lookup(name, ReadThrough.kind, label_names)
        if metric is None:
            metric = self._metrics[name] = ReadThrough(name, read, label)
            self._shapes[name] = (ReadThrough.kind, label_names)
        return metric

    def _register(self, name: str, help: str, labels: Sequence[str],
                  child_class):
        kind = child_class.kind
        label_names = tuple(labels)
        existing = self._lookup(name, kind, label_names)
        if existing is not None:
            return existing
        if label_names:
            metric = LabeledFamily(name, help, label_names, child_class)
        else:
            metric = child_class(name, help)
        self._metrics[name] = metric
        self._shapes[name] = (kind, label_names)
        return metric

    def _lookup(self, name: str, kind: str, label_names: Tuple[str, ...]):
        """The already-registered instrument, or None; shape mismatches raise."""
        metric = self._metrics.get(name)
        if metric is None:
            return None
        shape = self._shapes[name]
        if shape != (kind, label_names):
            raise ValueError(
                f"metric {name!r} is already registered as "
                f"{shape[0]}{shape[1] or ''}; cannot re-register as "
                f"{kind}{label_names or ''}"
            )
        return metric

    # -- export -----------------------------------------------------------------

    def get(self, name: str):
        """The instrument (or family) behind ``name``, or None."""
        return self._metrics.get(name)

    def collect(self) -> List[Tuple[str, Dict[str, object], object]]:
        """Flat ``(name, labels, value)`` samples across every instrument.

        Quantile sketches expand into ``<name>_count`` plus one
        ``<name>_p50/..p999`` sample each -- the conventional flat
        representation, so one exporter handles every kind.
        """
        samples: List[Tuple[str, Dict[str, object], object]] = []
        for name, metric in self._metrics.items():
            sketch_kind = self._shapes[name][0] == "sketch"
            if isinstance(metric, LabeledFamily):
                for key, child in metric.items():
                    labels = dict(zip(metric.label_names, key))
                    if sketch_kind:
                        samples.extend(_sketch_samples(name, labels, child))
                    else:
                        samples.append((name, labels, child.value))
            elif sketch_kind:
                samples.extend(_sketch_samples(name, {}, metric))
            elif isinstance(metric, ReadThrough) and metric.label is not None:
                samples.extend((name, {metric.label: key}, value)
                               for key, value in metric.value.items())
            else:
                samples.append((name, {}, metric.value))
        return samples

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot: scalar, per-label dict, or sketch dict."""
        return {name: (metric.as_dict() if isinstance(metric, LabeledFamily)
                       else metric.value)
                for name, metric in self._metrics.items()}

    def render(self, nonzero_only: bool = True) -> str:
        """A terminal-friendly ``name{labels} value`` dump, sorted by name."""
        lines: List[str] = []
        for name, labels, value in sorted(self.collect(),
                                          key=lambda s: (s[0], str(s[1]))):
            if nonzero_only and not value:
                continue
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels.items())
                lines.append(f"{name}{{{rendered}}} {value}")
            else:
                lines.append(f"{name} {value}")
        return "\n".join(lines)


def _sketch_samples(name: str, labels: Dict[str, object], sketch
                    ) -> List[Tuple[str, Dict[str, object], object]]:
    """Flat samples for one quantile sketch (count + each percentile)."""
    samples = [(f"{name}_count", dict(labels), sketch.count)]
    for quantile_name in ("p50", "p90", "p99", "p999"):
        samples.append((f"{name}_{quantile_name}", dict(labels),
                        getattr(sketch, quantile_name)))
    return samples


__all__ = [
    "Counter",
    "Gauge",
    "LabeledFamily",
    "MetricsRegistry",
    "ReadThrough",
]
