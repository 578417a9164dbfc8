"""Configuration of the query execution engine.

:class:`EngineConfig` gathers every knob of the execution-engine layer in one
immutable object so that callers (and experiments) can describe *how* queries
are executed independently of *what* is computed:

``presence_store_capacity``
    Bound of the cross-query :class:`~repro.engine.cache.PresenceStore` (LRU
    entries).  ``0`` disables cross-query caching entirely, which reproduces
    the pre-engine behaviour where every query starts cold.
``continuous_refresh``
    How the continuous-query subsystem maintains standing results after each
    ingested batch: ``"incremental"`` (default) skips subscriptions whose
    window token is unchanged and re-keys the cached presences of objects
    the batch did not touch, so only actually-changed objects are
    recomputed; ``"recompute"`` re-answers every standing query from the
    (invalidated) cache on every event — the pre-continuous behaviour a
    polling client would get, kept for the refresh-strategy benchmark.
``scoring_kernel``
    Which accumulation kernel sums per-object presences into flows:
    ``"scalar"`` is the per-entry Python loop, ``"vectorized"`` builds a
    :class:`~repro.codec.kernels.PresenceMatrix` once per window group and
    reduces contiguous arrays (bit-identical flows and rankings, asserted
    by the differential tests).  ``"auto"`` (default) picks vectorized when
    the codec's numpy backend is active and scalar on the pure-Python
    fallback, where the matrix build would cost more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

CONTINUOUS_REFRESH_KINDS = ("incremental", "recompute")

SCORING_KERNEL_KINDS = ("auto", "scalar", "vectorized")


@dataclass(frozen=True)
class EngineConfig:
    """Immutable description of how the execution engine runs queries."""

    presence_store_capacity: int = 4096
    continuous_refresh: str = "incremental"
    scoring_kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.continuous_refresh not in CONTINUOUS_REFRESH_KINDS:
            raise ValueError(
                f"unknown continuous refresh {self.continuous_refresh!r}; "
                f"expected one of {CONTINUOUS_REFRESH_KINDS}"
            )
        if self.scoring_kernel not in SCORING_KERNEL_KINDS:
            raise ValueError(
                f"unknown scoring kernel {self.scoring_kernel!r}; "
                f"expected one of {SCORING_KERNEL_KINDS}"
            )
        if self.presence_store_capacity < 0:
            raise ValueError("presence_store_capacity must be non-negative")

    @property
    def caching_enabled(self) -> bool:
        return self.presence_store_capacity > 0

    @property
    def resolved_scoring_kernel(self) -> str:
        """``"scalar"`` or ``"vectorized"``, with ``"auto"`` resolved against
        the codec's active backend (vectorized only pays off on numpy)."""
        if self.scoring_kernel != "auto":
            return self.scoring_kernel
        from ..codec import active_backend

        return "vectorized" if active_backend() == "numpy" else "scalar"

    @staticmethod
    def uncached() -> "EngineConfig":
        """Execution without the cross-query presence store."""
        return EngineConfig(presence_store_capacity=0)
