"""Where a run's time went and what its data did: stage seconds and counters.

A command makes one Stats and passes it explicitly to what it measures;
there is no global registry. `RunContext.finish` writes both tables into
`run_metadata.json`. Stages used: load, extract, search, fit, classify.
Counters used: frames (pushed through feature extraction), vectors
(feature vectors produced) and, for the formant feature sets, the frames
whose formant pair is zero-filled, by cause: formant_silent (frame energy
zero or subnormal), formant_root_failures (LPC roots miss the residual bound) and
formant_no_candidate (no root survives the frequency and bandwidth
filters).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Stats:
    stages: dict[str, float] = field(default_factory=dict)   # name -> seconds
    counters: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Add the wall time of the with-block to stage `name`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def to_dict(self) -> dict:
        return {
            "stages": {name: round(seconds, 6) for name, seconds in self.stages.items()},
            "counters": dict(self.counters),
        }
