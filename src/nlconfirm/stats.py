"""Where a run's time went and what its data did: stage seconds and counters.

Code records a number with one call where its event happens,
`stats.count(name, n)` or `with stats.stage(name):`, into the Stats whose
`collecting()` block is open in this thread or task, and nowhere when none is.
`cli.main` runs each command inside its RunContext's Stats, and
`RunContext.finish` writes both tables into `run_metadata.json`. Stages used:
synthesize, load, extract, search, fit, classify. Counters used: segments,
samples and filter_calls (calls of scipy's linear filter, one per run of equal
resonator coefficients) of synth-corpus, frames (pushed through feature
extraction), vectors (feature vectors produced) and, for the formant feature
sets, the frames whose formant pair is zero-filled, by cause: formant_silent
(frame energy zero or subnormal), formant_root_failures (LPC roots miss the
residual bound) and formant_no_candidate (no root survives the frequency and
bandwidth filters).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass
class Stats:
    stages: dict[str, float] = field(default_factory=dict)   # name -> seconds
    counters: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def collecting(self) -> Iterator[Stats]:
        """Make this Stats receive `count` and `stage` in the with-block."""
        token = _COLLECTING.set(self)
        try:
            yield self
        finally:
            _COLLECTING.reset(token)

    def to_dict(self) -> dict:
        return {
            "stages": {name: round(seconds, 6) for name, seconds in self.stages.items()},
            "counters": dict(self.counters),
        }


_COLLECTING: ContextVar[Stats | None] = ContextVar("nlconfirm_stats", default=None)


def count(name: str, n: int = 1) -> None:
    """Add `n` to counter `name` of the collecting Stats."""
    stats = _COLLECTING.get()
    if stats is not None:
        stats.counters[name] = stats.counters.get(name, 0) + int(n)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Add the wall time of the with-block to stage `name` of the collecting Stats."""
    stats, start = _COLLECTING.get(), time.perf_counter()
    try:
        yield
    finally:
        if stats is not None:
            stats.stages[name] = stats.stages.get(name, 0.0) + time.perf_counter() - start
