"""Background resource sampler: peak RSS, CPU seconds, child count.

Long psim/partition/sweep runs fork worker pools and build large CSR
arrays; the ROADMAP's million-gate ladder needs peak-RSS-per-rung
gating.  :class:`ResourceSampler` polls ``/proc/self/status`` (with a
:mod:`resource`-module fallback off Linux) on a daemon thread while the
instrumented work runs, then deposits its aggregates into a recorder's
**host-value channel** via
:meth:`~repro.obs.recorder.MetricsRecorder.record_host` — so sampled
values land in the quarantined ``host_timings`` export and can never
contaminate the deterministic counter body (the same rule phase wall
seconds follow).

Sampled names (registered in
:data:`repro.obs.registry.HOST_VALUE_REGISTRY`):

* ``obs.sampler.peak_rss_kb`` — peak resident set (VmHWM) in kB;
* ``obs.sampler.cpu_seconds`` — user+system CPU of this process and
  its reaped children;
* ``obs.sampler.children.peak`` — peak live multiprocessing children
  observed (worker pools).

Usage::

    with ResourceSampler() as sampler:
        ... run the work ...
    sampler.record_into(recorder)   # -> host_timings channel
"""

from __future__ import annotations

import multiprocessing
import os
import threading

__all__ = ["ResourceSampler"]

_PROC_STATUS = "/proc/self/status"


def _read_rss_kb() -> float:
    """Current peak RSS in kB — VmHWM from /proc, else getrusage."""
    try:
        with open(_PROC_STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kB on Linux, bytes on macOS
        return float(peak) / (1024.0 if os.uname().sysname == "Darwin" else 1.0)
    except Exception:  # pragma: no cover
        return 0.0


def _read_cpu_seconds() -> float:
    """User+system CPU seconds of this process and reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class ResourceSampler:
    """Poll host resource usage on a background daemon thread.

    It polls every :attr:`interval` seconds (50 ms — coarse enough to
    be invisible in profiles, fine enough to catch worker-pool spikes).
    Use as a context manager (or ``start()``/``stop()``).  Aggregates
    are maxima/latest values, so a sampler that never got a chance to
    poll (very short work) still reports one final sample taken at
    ``stop()``.
    """

    interval = 0.05

    def __init__(self) -> None:
        self.peak_rss_kb = 0.0
        self.cpu_seconds = 0.0
        self.peak_children = 0
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def _sample_once(self) -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, _read_rss_kb())
        self.cpu_seconds = max(self.cpu_seconds, _read_cpu_seconds())
        self.peak_children = max(self.peak_children,
                                 len(multiprocessing.active_children()))

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample_once()

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("ResourceSampler already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "ResourceSampler":
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sample_once()  # guarantee at least one sample
        return self

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- export -----------------------------------------------------------

    def as_host_values(self) -> dict[str, float]:
        """The sampled aggregates under their registered host names."""
        return {
            "obs.sampler.peak_rss_kb": self.peak_rss_kb,
            "obs.sampler.cpu_seconds": self.cpu_seconds,
            "obs.sampler.children.peak": float(self.peak_children),
        }

    def record_into(self, recorder) -> None:
        """Deposit aggregates into ``recorder``'s host-value channel
        (no-op for the null recorder)."""
        for name, value in self.as_host_values().items():
            recorder.record_host(name, value)
