"""A minimal labeled-metrics registry for the simulator.

Three instrument kinds, all zero-sim-time (they never touch the event
queue, only read clocks the caller passes in):

* :class:`Counter` — monotonically increasing count (calls, bytes,
  faults).
* :class:`Gauge` — a sampled time series of (sim_time, value) points,
  e.g. NVML utilization.
* :class:`Histogram` — a bag of observations with percentile queries,
  e.g. per-invocation end-to-end latency.

Instruments are identified by ``(name, labels)``; the registry
get-or-creates on access so call sites never need existence checks:

    registry.counter("guest.calls_localized", guest=3).inc()
    registry.gauge("gpu.utilization", device=0).set(0.82, t=env.now)
    registry.histogram("invocation.e2e_s", workload="kmeans").observe(11.3)

Naming convention: dotted ``<layer>.<metric>`` names
(``guest.rpc_retries``, ``artifact_cache.hits``, ``invocation.status``);
dimensions go in labels, never in the name.

The registry is also a *stream*: subscribers (see :mod:`repro.obs.slo`)
receive every recorded observation of the names they watch as
``(metric, value, t)`` the moment it happens, stamped with sim time from
the registry's bound clock (or the explicit ``t`` a gauge sample
carries).  An instrument whose name nobody watches notifies no one.
Notification is plain synchronous bookkeeping — no events, no buffering
— so attaching a subscriber cannot perturb the simulated timeline.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile"]


def _percentile_sorted(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile over an *already sorted* list."""
    if not xs:
        raise ValueError("percentile of empty series")
    if len(xs) == 1:
        return xs[0]
    pos = (q / 100.0) * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), local so
    the metrics layer stays import-light."""
    return _percentile_sorted(sorted(values), q)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value", "last_trace_id", "_registry")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0
        #: exemplar: the trace behind the most recent increment (None
        #: when the caller has no trace context) — lets an SLO rule link
        #: the counter stream back to a concrete timeline
        self.last_trace_id: Optional[int] = None
        self._registry: Optional["MetricsRegistry"] = None

    def inc(self, amount: int = 1, trace_id: Optional[int] = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        if trace_id is not None:
            self.last_trace_id = trace_id
        if self._registry is not None:
            self._registry._notify(self, amount)

    def __repr__(self):
        return f"Counter({self.name}{self.labels or ''}={self.value})"


#: retained-sample bound per gauge series; beyond it the series is
#: decimated exactly the way Histogram decimates (see Gauge.set) so
#: million-invocation runs keep O(cap) memory per gauge
_GAUGE_CAP = 65536


class Gauge:
    """A last-value gauge that also keeps a bounded (time, value) series.

    The series is complete until :data:`_GAUGE_CAP` samples have been
    retained, after which it is halved (every other sample dropped) and
    only every ``stride``-th new sample is kept — the same deterministic
    systematic decimation :class:`Histogram` applies, so same-seed runs
    stay bit-identical.  The *last* value is always exact regardless of
    decimation (:attr:`value` reads a scalar, not the series), and the
    live notification stream still fires for **every** ``set`` — SLO
    window rules see the full stream; only the stored history thins.
    :attr:`truncated`/:attr:`dropped` surface the loss, never silent.
    """

    __slots__ = ("name", "labels", "times", "values", "_registry",
                 "_count", "_last", "_stride", "_phase")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.times: list[float] = []
        self.values: list[float] = []
        self._registry: Optional["MetricsRegistry"] = None
        self._count = 0
        self._last: Optional[tuple[float, float]] = None  # exact (t, value)
        self._stride = 1  # keep every _stride-th sample
        self._phase = 0

    def set(self, value: float, t: float) -> None:
        self._count += 1
        self._last = (t, value)
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self.times.append(t)
            self.values.append(value)
            if len(self.values) >= _GAUGE_CAP:
                # Halve the retained series and the future keep rate —
                # identical policy to Histogram.observe.
                del self.times[::2]
                del self.values[::2]
                self._stride *= 2
        if self._registry is not None:
            self._registry._notify(self, value, t=t)

    @property
    def value(self) -> Optional[float]:
        if self._last is not None:
            return self._last[1]
        return self.values[-1] if self.values else None

    @property
    def count(self) -> int:
        """Samples ever set (exact, decimation-independent)."""
        return max(self._count, len(self.values))

    @property
    def truncated(self) -> bool:
        """True once samples have been dropped from the stored series."""
        return self._stride > 1

    @property
    def dropped(self) -> int:
        """Samples not present in the retained series."""
        return self.count - len(self.values)

    def series(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))

    def __repr__(self):
        return f"Gauge({self.name}{self.labels or ''}={self.value})"


#: retained-sample bound per histogram; beyond it the sample is decimated
#: (see Histogram.observe) so memory stays O(cap) no matter how long the
#: scenario runs
_HISTOGRAM_CAP = 65536

#: fixed log-spaced bucket upper edges for histogram exemplars (seconds
#: or milliseconds alike — coverage from sub-ms to hours); fixed edges
#: keep the exemplar set deterministic and bounded
_EXEMPLAR_EDGES = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


def _exemplar_bucket(value: float) -> float:
    """The upper edge of the exemplar bucket ``value`` falls in
    (``inf`` for values beyond the last edge, and for NaN, which is
    ``<=`` no edge)."""
    i = bisect_left(_EXEMPLAR_EDGES, value)
    if i < len(_EXEMPLAR_EDGES) and value == value:
        return _EXEMPLAR_EDGES[i]
    return float("inf")


class Histogram:
    """A bag of observations with mean/percentile queries.

    ``count``/``sum``/``mean`` are exact over *every* observation (scalar
    accumulators).  Percentiles are computed from :attr:`observations`,
    the retained sample: complete until :data:`_HISTOGRAM_CAP` values
    have been kept, after which the sample is halved (every other
    retained value dropped) and only every ``stride``-th new observation
    is kept — a deterministic systematic sample, so same-seed runs stay
    bit-identical.  :attr:`truncated`/:attr:`dropped` report when and how
    much was dropped instead of letting the list grow without bound.

    The sorted snapshot used by percentile queries is cached and
    invalidated when the sample changes, so ``p50``/``p95``/``p99`` after
    a batch of observes sort once, not three times.

    **Exemplars**: an ``observe`` that carries a ``trace_id`` files it as
    the exemplar for the fixed log-spaced bucket its value falls in
    (latest observation wins) and as :attr:`last_trace_id` — so "what
    does a 40 s invocation look like?" maps straight to a concrete trace
    in the flight bundle, and SLO rules can name the traces that
    breached them.  Exemplars are bounded (one per bucket) and purely
    additive: call sites without trace context change nothing.
    """

    __slots__ = ("name", "labels", "observations", "_registry",
                 "_count", "_total", "_sorted", "_stride", "_phase",
                 "last_trace_id", "exemplars")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.observations: list[float] = []
        self._registry: Optional["MetricsRegistry"] = None
        self._count = 0
        self._total = 0.0
        self._sorted: Optional[list[float]] = None  # cached sorted sample
        self._stride = 1  # keep every _stride-th observation
        self._phase = 0
        #: exemplar: the trace behind the most recent observation
        self.last_trace_id: Optional[int] = None
        #: bucket upper edge -> (value, trace_id) of its latest exemplar
        self.exemplars: dict[float, tuple[float, int]] = {}

    def observe(self, value: float, trace_id: Optional[int] = None) -> None:
        self._count += 1
        self._total += value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            obs = self.observations
            obs.append(value)
            self._sorted = None
            if len(obs) >= _HISTOGRAM_CAP:
                # Halve the sample (drop every other retained value) and
                # halve the keep rate for future observations.
                del obs[::2]
                self._stride *= 2
        if trace_id is not None:
            self.last_trace_id = trace_id
            self.exemplars[_exemplar_bucket(value)] = (value, trace_id)
        if self._registry is not None:
            self._registry._notify(self, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name} is empty")
        return self._total / self._count

    @property
    def truncated(self) -> bool:
        """True once observations have been dropped from the sample."""
        return self._stride > 1

    @property
    def dropped(self) -> int:
        """Observations not present in the retained sample."""
        return self._count - len(self.observations)

    def percentile(self, q: float) -> float:
        xs = self._sorted
        if xs is None:
            xs = self._sorted = sorted(self.observations)
        return _percentile_sorted(xs, q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def __repr__(self):
        return f"Histogram({self.name}{self.labels or ''}, n={self.count})"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of labeled instruments.

    ``clock`` (optional) is a zero-argument callable returning the current
    sim time; the deployment binds it to ``env.now`` so counter/histogram
    notifications carry timestamps without every call site threading one
    through.  Gauges already carry their own ``t``.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._metrics: dict[tuple[str, tuple], object] = {}
        self.clock = clock
        #: (callback, watched names or None for every name), in order
        self._subscribers: list[tuple[Callable, Optional[frozenset]]] = []
        #: metric name -> the callbacks watching it, in subscription order
        self._routes: dict[str, tuple] = {}

    # -- streaming ---------------------------------------------------------------
    def subscribe(self, callback: Callable,
                  names: Optional[Iterable[str]] = None) -> None:
        """Receive ``(metric, value, t)`` for every recorded observation.

        With ``names`` the callback sees only instruments with one of
        those names; an instrument nobody watches notifies no one.  ``t``
        comes from the gauge sample itself or the bound clock (0.0 with
        no clock).  Callbacks must be pure bookkeeping: they run
        synchronously inside the recording call and must never touch the
        event queue or draw randomness.
        """
        self._subscribers.append(
            (callback, None if names is None else frozenset(names))
        )
        self._routes.clear()
        for metric in self._metrics.values():
            self._wire(metric)

    def _wire(self, metric) -> None:
        """Point ``metric`` at this registry iff someone watches its name."""
        name = metric.name
        callbacks = self._routes.get(name)
        if callbacks is None:
            callbacks = self._routes[name] = tuple(
                callback for callback, names in self._subscribers
                if names is None or name in names
            )
        metric._registry = self if callbacks else None

    def _notify(self, metric, value, t: Optional[float] = None) -> None:
        if t is None:
            t = self.clock() if self.clock is not None else 0.0
        for callback in self._routes[metric.name]:
            callback(metric, value, t)

    def _get(self, kind: str, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = _KINDS[kind](name, labels)
            self._wire(metric)
            self._metrics[key] = metric
            return metric
        expected = _KINDS[kind]
        if not isinstance(metric, expected):
            raise TypeError(
                f"metric {name!r}{labels} already registered as "
                f"{type(metric).__name__}, not {expected.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- queries ---------------------------------------------------------------
    def find(self, name: str, **match) -> Iterator:
        """Yield every instrument named ``name`` whose labels are a
        superset of ``match``."""
        for (metric_name, _), metric in self._metrics.items():
            if metric_name != name:
                continue
            if all(metric.labels.get(k) == v for k, v in match.items()):
                yield metric

    def total(self, name: str, **match) -> int:
        """Sum of every matching counter's value (0 if none exist)."""
        return sum(m.value for m in self.find(name, **match))

    # -- cross-process merging -------------------------------------------------
    def snapshot(self) -> list:
        """A picklable dump of every instrument, for shipping a shard's
        metrics back to the coordinator (see :mod:`repro.sim.shard`).

        Kept intentionally plain (nested tuples/lists of primitives) so it
        survives ``multiprocessing`` pipes without custom reducers.
        """
        out = []
        for (name, label_items), metric in sorted(self._metrics.items()):
            labels = list(label_items)
            if isinstance(metric, Counter):
                out.append(("counter", name, labels, metric.value))
            elif isinstance(metric, Gauge):
                out.append(("gauge", name, labels,
                            list(metric.times), list(metric.values),
                            metric.count, metric._last))
            else:
                out.append(("histogram", name, labels, metric._count,
                            metric._total, list(metric.observations),
                            sorted((edge, v, tid) for edge, (v, tid)
                                   in metric.exemplars.items())))
        return out

    def merge_snapshot(self, snapshot: list) -> None:
        """Fold a :meth:`snapshot` into this registry (additive merge).

        Counters add; gauge series concatenate then re-sort by sample
        time; histograms combine exact count/total accumulators and pool
        the retained samples (re-capped if the pooled sample exceeds the
        retention bound).  Merging shard snapshots in shard order is
        deterministic, so merged digests are reproducible.
        """
        for entry in snapshot:
            kind, name, labels = entry[0], entry[1], dict(entry[2])
            if kind == "counter":
                self.counter(name, **labels).value += entry[3]
            elif kind == "gauge":
                gauge = self.gauge(name, **labels)
                gauge._count += entry[5] if len(entry) > 5 else len(entry[3])
                gauge.times.extend(entry[3])
                gauge.values.extend(entry[4])
                series = sorted(zip(gauge.times, gauge.values))
                gauge.times = [t for t, _ in series]
                gauge.values = [v for _, v in series]
                incoming_last = entry[6] if len(entry) > 6 else None
                if incoming_last is not None:
                    incoming_last = tuple(incoming_last)
                    if gauge._last is None or incoming_last[0] >= gauge._last[0]:
                        gauge._last = incoming_last
                while len(gauge.values) >= _GAUGE_CAP:
                    del gauge.times[::2]
                    del gauge.values[::2]
                    gauge._stride *= 2
            elif kind == "histogram":
                hist = self.histogram(name, **labels)
                hist._count += entry[3]
                hist._total += entry[4]
                hist.observations.extend(entry[5])
                hist._sorted = None
                while len(hist.observations) >= _HISTOGRAM_CAP:
                    del hist.observations[::2]
                    hist._stride *= 2
                if len(entry) > 6:
                    for edge, value, tid in entry[6]:
                        hist.exemplars[edge] = (value, tid)
                        hist.last_trace_id = tid
            else:
                raise ValueError(f"unknown snapshot entry kind {kind!r}")

    def as_dict(self) -> dict:
        """A plain serializable snapshot, for reports and debugging."""
        out = {}
        for (name, label_items), metric in sorted(self._metrics.items()):
            key = name
            if label_items:
                key += "{" + ",".join(f"{k}={v}" for k, v in label_items) + "}"
            if isinstance(metric, Counter):
                out[key] = metric.value
            elif isinstance(metric, Gauge):
                entry = {"last": metric.value, "samples": len(metric.times)}
                if metric.truncated:
                    # The stored series is decimated; surface how much the
                    # cap dropped (the live stream saw everything).
                    entry["sample_dropped"] = metric.dropped
                out[key] = entry
            else:
                entry = {"count": metric.count, "sum": metric.total}
                if metric.count:
                    entry.update(
                        mean=metric.mean,
                        p50=metric.p50,
                        p95=metric.p95,
                        p99=metric.p99,
                    )
                if metric.truncated:
                    # Percentiles above are estimates over the retained
                    # sample; surface how much the cap dropped.
                    entry["sample_dropped"] = metric.dropped
                if metric.exemplars:
                    entry["exemplars"] = [
                        {"le": edge, "value": value, "trace_id": tid}
                        for edge, (value, tid) in sorted(metric.exemplars.items())
                    ]
                out[key] = entry
        return out

    def __len__(self):
        return len(self._metrics)
