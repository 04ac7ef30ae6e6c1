"""Counter and progress instrumentation for the dataset-generation runtime.

Wall-clock lives in spans (:mod:`repro.obs.spans`); :class:`RuntimeStats`
keeps the event counters and the progress sink.  Self-contained (no
:mod:`repro` imports) so any layer — the runtime, the training pipeline,
the CLI — can record into one :class:`RuntimeStats` without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

__all__ = ["RuntimeStats", "null_progress"]


def null_progress(message: str) -> None:
    """Default progress sink: discard."""


@dataclass
class RuntimeStats:
    """Event counters plus the progress sink.

    Attributes:
        counters: Free-form event counters (cache hits/misses, samples,
            chunks, workers used).  Names are dotted paths
            (``"cache.design.hit"``, ``"dataset.chunks_built"``) so reports
            group naturally.
        progress: Callable invoked with one-line progress messages.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    progress: Callable[[str], None] = field(default=null_progress, repr=False)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def emit(self, message: str) -> None:
        """Send one progress line to the configured sink."""
        self.progress(message)

    # -------------------------------------------------------------- pickling
    # Stats ride along in multiprocessing payloads (worker merges); the
    # progress sink may be a lambda or bound method, which does not pickle.
    # Drop it on the wire and restore the null sink on the far side — a
    # worker has no terminal to print to anyway.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["progress"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        if self.__dict__.get("progress") is None:
            self.__dict__["progress"] = null_progress

    # ------------------------------------------------------------- reporting
    @property
    def cache_hits(self) -> int:
        """Total artifact-cache hits (``cache.<kind>.hit`` counters only)."""
        return sum(
            v for k, v in self.counters.items()
            if k.startswith("cache.") and k.endswith(".hit")
        )

    @property
    def cache_misses(self) -> int:
        """Total artifact-cache misses (``cache.<kind>.miss`` counters only)."""
        return sum(
            v for k, v in self.counters.items()
            if k.startswith("cache.") and k.endswith(".miss")
        )

    def merge(self, other: "RuntimeStats") -> None:
        """Fold another stats object (e.g. from a worker) into this one."""
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def report(self) -> str:
        """Human-readable multi-line summary of the counters."""
        lines = ["runtime stats:"]
        # Size the name column to the longest key so long dotted names
        # (easily past 28 chars) cannot shove the value column out of line.
        width = max([28, *(len(k) for k in self.counters)])
        for name in sorted(self.counters):
            lines.append(f"  {name:{width}s} {self.counters[name]:8d}")
        if len(lines) == 1:
            lines.append("  (no recorded activity)")
        return "\n".join(lines)

    def clear(self) -> None:
        self.counters.clear()
