"""Uncertain indoor positioning data model (Section 2.2).

A positioning record is a triplet ``(oid, X, t)`` where ``X`` is a *sample
set*: entries ``(loc, prob)`` meaning "the object is at P-location ``loc``
with probability ``prob`` at time ``t``".  The probabilities of a sample set
always sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

PROBABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Sample:
    """A single positioning sample ``(loc, prob)``.

    Individual weights may exceed 1 transiently (e.g. raw WkNN weights before
    normalisation); the enclosing :class:`SampleSet` enforces that the final
    probabilities are non-negative and sum to one.
    """

    ploc_id: int
    prob: float

    def __post_init__(self) -> None:
        if self.prob < -PROBABILITY_TOLERANCE:
            raise ValueError(f"sample probability {self.prob} must not be negative")


class SampleSet:
    """A normalised, immutable set of samples for one positioning report.

    The constructor merges duplicate P-locations (summing their probabilities)
    and validates that probabilities sum to 1 (within tolerance) unless
    ``normalise=True`` is passed, in which case they are rescaled — the data
    reduction operations rely on rescaling when samples are merged or when a
    record is truncated to the maximum sample-set size.

    ``plocation_key`` is the sorted tuple of the set's P-locations; the data
    reduction memoises its per-set work on it.
    """

    __slots__ = ("_samples", "plocation_key")

    def __init__(self, samples: Iterable[Sample], normalise: bool = False):
        merged: Dict[int, float] = {}
        for sample in samples:
            merged[sample.ploc_id] = merged.get(sample.ploc_id, 0.0) + sample.prob
        if not merged:
            raise ValueError("a sample set must contain at least one sample")
        total = sum(merged.values())
        if normalise:
            if total <= 0:
                raise ValueError("cannot normalise a sample set with zero total probability")
            merged = {loc: prob / total for loc, prob in merged.items()}
        elif abs(total - 1.0) > 1e-3:
            raise ValueError(
                f"sample probabilities must sum to 1 (got {total:.6f}); "
                "pass normalise=True to rescale"
            )
        ordered = sorted(merged.items())
        self._samples: Tuple[Sample, ...] = tuple(
            Sample(loc, prob) for loc, prob in ordered
        )
        self.plocation_key: Tuple[int, ...] = tuple(loc for loc, _ in ordered)

    @classmethod
    def _rescaled(cls, plocation_key: Tuple[int, ...], weights: List[float]) -> "SampleSet":
        """A set over sorted distinct ``plocation_key`` with ``weights`` rescaled.

        The arithmetic is exactly that of ``normalise=True`` on samples in
        that order, but each :class:`Sample` is created once.
        """
        total = sum(weights)
        if total <= 0:
            raise ValueError("cannot normalise a sample set with zero total probability")
        sample_set = cls.__new__(cls)
        sample_set._samples = tuple(
            Sample(loc, weight / total) for loc, weight in zip(plocation_key, weights)
        )
        sample_set.plocation_key = plocation_key
        return sample_set

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Tuple[Sample, ...]:
        return self._samples

    def plocation_set(self) -> Set[int]:
        """``πl(X)``: the set of P-locations appearing in this sample set."""
        return set(self.plocation_key)

    def probability_of(self, ploc_id: int) -> float:
        """The probability assigned to ``ploc_id`` (0.0 if absent)."""
        for sample in self._samples:
            if sample.ploc_id == ploc_id:
                return sample.prob
        return 0.0

    def most_probable(self) -> Sample:
        """The sample with the highest probability (ties broken by smaller id)."""
        return max(self._samples, key=lambda s: (s.prob, -s.ploc_id))

    def above_threshold(self, threshold: float) -> List[Sample]:
        """All samples with probability strictly above ``threshold``."""
        return [s for s in self._samples if s.prob > threshold]

    def truncated(self, max_size: int) -> "SampleSet":
        """Keep the ``max_size`` most probable samples and renormalise.

        Reproduces the paper's uncertainty experiment (Section 5.2.2): "if the
        number of its containing samples exceeds the maximum sample-set size
        mss, the samples with lower probabilities are removed".
        """
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if len(self._samples) <= max_size:
            return self
        kept = sorted(self._samples, key=lambda s: (-s.prob, s.ploc_id))[:max_size]
        return SampleSet(kept, normalise=True)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self._samples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self._samples == other._samples

    def __hash__(self) -> int:
        return hash(self._samples)

    def __repr__(self) -> str:
        body = ", ".join(f"(p{s.ploc_id}, {s.prob:.3f})" for s in self._samples)
        return f"SampleSet[{body}]"

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def certain(ploc_id: int) -> "SampleSet":
        """A sample set reporting a single P-location with probability 1."""
        return SampleSet([Sample(ploc_id, 1.0)])

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[int, float]], normalise: bool = False) -> "SampleSet":
        """Build a sample set from ``(ploc_id, prob)`` pairs."""
        return SampleSet([Sample(loc, prob) for loc, prob in pairs], normalise=normalise)


@dataclass(frozen=True)
class PositioningRecord:
    """One row of the Indoor Uncertain Positioning Table: ``(oid, X, t)``."""

    object_id: int
    sample_set: SampleSet
    timestamp: float

    def plocation_set(self) -> Set[int]:
        return self.sample_set.plocation_set()

    def truncated(self, max_size: int) -> "PositioningRecord":
        """Return a copy whose sample set is truncated to ``max_size`` samples."""
        truncated = self.sample_set.truncated(max_size)
        if truncated is self.sample_set:
            return self
        return PositioningRecord(self.object_id, truncated, self.timestamp)


PositioningSequence = List[SampleSet]
"""A per-object time-ordered sequence of sample sets (``X = (X1, ..., Xn)``)."""
