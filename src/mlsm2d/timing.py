"""Wall-clock phase accounting for solver runs."""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .io import _table


@dataclass
class TimingReport:
    """Seconds per phase, in the order the phases ran, plus the total wall time of the run.

    total is the pipeline's time; the output phase, when written, follows it.
    """

    phases: dict[str, float] = field(default_factory=dict)
    total: float = 0.0

    @contextmanager
    def phase(self, name: str):
        """Add the wall time of the with-block (or decorated call) to phase name."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def validate(self) -> None:
        if any(t < 0 for t in self.phases.values()):
            raise ValueError("negative phase time")
        if self.phases and self.total < max(self.phases.values()):
            raise ValueError("total below the largest phase")

    def to_csv(self, path) -> None:
        seconds = {**self.phases, "total": self.total}
        with open(path, "w") as fh:
            fh.write("phase,seconds\n")
            fh.write(_table([list(seconds), list(seconds.values())], fmt="%.6f"))


class PhaseTimer(TimingReport):
    """A run's report while it runs: its phases accumulate and report() adds the total; create one per run."""

    def __init__(self) -> None:
        super().__init__()
        self._start = time.perf_counter()

    def report(self) -> TimingReport:
        report = TimingReport(phases=dict(self.phases), total=time.perf_counter() - self._start)
        report.validate()
        return report
