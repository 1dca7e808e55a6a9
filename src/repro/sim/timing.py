"""Simulated-time bookkeeping.

All simulated durations are carried as a :class:`TimeBreakdown`: a total in
seconds plus a named component breakdown, so benchmark output can show where
a query spends its time (the paper's models are stated as sums of such
components, e.g. r1 + r2 + r3 for SSB q2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimeBreakdown:
    """A simulated duration with named components.

    Components are additive unless the producer explicitly combined them with
    ``max`` (bandwidth-bound kernels take the max of read and compute, for
    example); in that case the producer records the final value under a
    single component so the invariant ``total == sum(components)`` holds.
    """

    components: dict[str, float] = field(default_factory=dict)

    @classmethod
    def single(cls, name: str, seconds: float) -> "TimeBreakdown":
        """A breakdown with one component."""
        return cls(components={name: seconds})

    @property
    def total_seconds(self) -> float:
        return sum(self.components.values())

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3

    def add(self, name: str, seconds: float) -> "TimeBreakdown":
        """Add ``seconds`` to component ``name`` (creating it if needed)."""
        if seconds < 0:
            raise ValueError(f"component {name!r}: negative duration")
        self.components[name] = self.components.get(name, 0.0) + seconds
        return self

    def merge(self, other: "TimeBreakdown", prefix: str = "") -> "TimeBreakdown":
        """Accumulate another breakdown, optionally namespacing its keys."""
        for name, seconds in other.components.items():
            self.add(prefix + name, seconds)
        return self

    def scaled(self, factor: float) -> "TimeBreakdown":
        """Return a new breakdown with every component scaled by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return TimeBreakdown({k: v * factor for k, v in self.components.items()})

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        result = TimeBreakdown(dict(self.components))
        result.merge(other)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v * 1e3:.3f}ms" for k, v in self.components.items())
        return f"TimeBreakdown(total={self.total_ms:.3f}ms, {parts})"
