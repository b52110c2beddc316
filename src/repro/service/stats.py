"""Service observability: latency histograms and per-endpoint counters.

Latencies go into fixed log-scale bucket histograms (~7% relative bucket
width from 10µs to >60s), so recording is O(1), memory is constant no
matter how long the server lives, and p50/p95/p99 come out with bounded
relative error — the standard serving-system trade against unbounded
sample reservoirs.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

#: Exponential bucket upper bounds in seconds: 10µs · 1.35^i, 58 buckets,
#: topping out above 60s; one overflow bucket catches the rest.
_GROWTH = 1.35
_BUCKET_BOUNDS: List[float] = []
_bound = 1e-5
while _bound < 120.0:
    _BUCKET_BOUNDS.append(_bound)
    _bound *= _GROWTH
_BUCKET_BOUNDS.append(float("inf"))


class LatencyHistogram:
    """Thread-safe fixed-bucket latency histogram with percentile readout."""

    __slots__ = ("_counts", "count", "total", "max", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * len(_BUCKET_BOUNDS)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        # Bisect by hand-rolled scan would be O(buckets); binary search:
        lo, hi = 0, len(_BUCKET_BOUNDS) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if seconds <= _BUCKET_BOUNDS[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    def percentile(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (0..1), 0.0 when empty."""
        with self._lock:
            if not self.count:
                return 0.0
            rank = q * self.count
            seen = 0
            for i, count in enumerate(self._counts):
                seen += count
                if seen >= rank:
                    bound = _BUCKET_BOUNDS[i]
                    return self.max if bound == float("inf") else min(bound, self.max)
            return self.max

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total, peak = self.count, self.total, self.max
        return {
            "count": count,
            "mean_ms": round(1e3 * total / count, 3) if count else 0.0,
            "p50_ms": round(1e3 * self.percentile(0.50), 3),
            "p95_ms": round(1e3 * self.percentile(0.95), 3),
            "p99_ms": round(1e3 * self.percentile(0.99), 3),
            "max_ms": round(1e3 * peak, 3),
        }

    # -- cross-process aggregation ------------------------------------------
    #
    # Pool workers publish raw bucket counts; the stats endpoint merges
    # sibling payloads index-wise into one histogram, so pooled p50/p95/p99
    # are computed over the union of observations — averaging per-worker
    # percentiles would be statistically meaningless.

    def raw_payload(self) -> Dict[str, object]:
        """Mergeable raw state (bucket counts, not percentiles)."""
        with self._lock:
            return {
                "buckets": list(self._counts),
                "count": self.count,
                "total": self.total,
                "max": self.max,
            }

    @classmethod
    def merged(cls, payloads: List[Dict[str, object]]) -> "LatencyHistogram":
        """One histogram holding the union of several raw payloads.

        Payloads whose bucket layout doesn't match this build's (a worker
        from another version) are skipped rather than misbinned, and so is
        a malformed payload: all of it is read before any of it is added.
        """
        hist = cls()
        for payload in payloads:
            try:
                buckets = [int(n) for n in payload["buckets"]]
                count = int(payload["count"])
                total = float(payload["total"])
                peak = float(payload["max"])
            except (KeyError, TypeError, ValueError):
                continue
            if len(buckets) != len(hist._counts):
                continue
            hist._counts = [a + b for a, b in zip(hist._counts, buckets)]
            hist.count += count
            hist.total += total
            hist.max = max(hist.max, peak)
        return hist


class EndpointStats:
    """Per-endpoint latency histograms plus ok/error counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._ok: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}

    def _histogram(self, op: str) -> LatencyHistogram:
        with self._lock:
            hist = self._latency.get(op)
            if hist is None:
                hist = self._latency[op] = LatencyHistogram()
                self._ok.setdefault(op, 0)
                self._errors.setdefault(op, 0)
            return hist

    def observe(self, op: str, seconds: float, ok: bool) -> None:
        hist = self._histogram(op)
        hist.observe(seconds)
        with self._lock:
            if ok:
                self._ok[op] = self._ok.get(op, 0) + 1
            else:
                self._errors[op] = self._errors.get(op, 0) + 1

    def latency(self, op: str) -> Optional[LatencyHistogram]:
        with self._lock:
            return self._latency.get(op)

    def summary(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            ops = list(self._latency)
        payload: Dict[str, Dict[str, float]] = {}
        for op in ops:
            entry = dict(self._latency[op].summary())
            with self._lock:
                entry["ok"] = self._ok.get(op, 0)
                entry["errors"] = self._errors.get(op, 0)
            payload[op] = entry
        return payload

    def raw_payload(self) -> Dict[str, Dict[str, object]]:
        """Per-op mergeable state (see :meth:`LatencyHistogram.raw_payload`)."""
        with self._lock:
            ops = list(self._latency)
        payload: Dict[str, Dict[str, object]] = {}
        for op in ops:
            entry = self._latency[op].raw_payload()
            with self._lock:
                entry["ok"] = self._ok.get(op, 0)
                entry["errors"] = self._errors.get(op, 0)
            payload[op] = entry
        return payload


def merge_endpoint_payloads(
    payloads: List[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, float]]:
    """Merge per-worker :meth:`EndpointStats.raw_payload` dicts into one
    per-op summary (the pool-wide view the ``stats`` endpoint serves)."""
    by_op: Dict[str, List[Dict[str, object]]] = {}
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        for op, entry in payload.items():
            if isinstance(entry, dict):
                by_op.setdefault(op, []).append(entry)
    merged: Dict[str, Dict[str, float]] = {}
    for op, entries in sorted(by_op.items()):
        summary = LatencyHistogram.merged(entries).summary()
        summary["ok"] = sum(int(e.get("ok", 0)) for e in entries)
        summary["errors"] = sum(int(e.get("errors", 0)) for e in entries)
        merged[op] = summary
    return merged
