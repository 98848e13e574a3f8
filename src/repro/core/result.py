"""Result objects returned by DCA runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bonus import BonusVector

__all__ = ["DCATrace", "DCAResult"]


@dataclass(frozen=True)
class DCATrace:
    """Per-iteration diagnostics of one DCA phase (core pass or refinement).

    Attributes
    ----------
    phase:
        Human-readable phase label, e.g. ``"core lr=1.0"`` or ``"refinement"``.
    bonus_history:
        Bonus vector after each iteration, shape ``(iterations, num_attributes)``.
    objective_norms:
        Norm of the sampled objective vector at each iteration.
    """

    phase: str
    bonus_history: np.ndarray
    objective_norms: np.ndarray

    def __post_init__(self) -> None:
        history = np.asarray(self.bonus_history, dtype=float)
        norms = np.asarray(self.objective_norms, dtype=float)
        if history.ndim != 2:
            raise ValueError(f"bonus_history must be 2-D, got shape {history.shape}")
        if norms.shape != (history.shape[0],):
            raise ValueError(
                f"objective_norms has shape {norms.shape}, expected ({history.shape[0]},)"
            )
        object.__setattr__(self, "bonus_history", history)
        object.__setattr__(self, "objective_norms", norms)

    @property
    def iterations(self) -> int:
        return int(self.bonus_history.shape[0])

    @property
    def final_norm(self) -> float:
        return float(self.objective_norms[-1]) if self.iterations else float("nan")


@dataclass(frozen=True)
class DCAResult:
    """Everything a DCA run produces.

    Attributes
    ----------
    bonus:
        The final (rounded, constrained) bonus vector — the published artefact.
    raw_bonus:
        The bonus vector before rounding to the stakeholder granularity.
    core_bonus:
        The bonus vector after Core DCA but before refinement (when the
        refinement step ran; otherwise equal to ``raw_bonus``).
    traces:
        Per-phase iteration diagnostics.
    sample_size:
        The per-step sample size actually used.
    elapsed_seconds:
        Wall-clock time of the fit.  For a fit of a :meth:`DCA.fit_many
        <repro.core.DCA.fit_many>` batch it is that fit's share of the
        wall-clock of its lockstep group (the batch's fits that drew the
        same sample stream, run together): the group's time divided by its
        size, so the shares of a batch never add up to more than the
        batch's run time.  Time a single fit with :meth:`DCA.fit
        <repro.core.DCA.fit>`.
    """

    bonus: BonusVector
    raw_bonus: BonusVector
    core_bonus: BonusVector
    traces: tuple[DCATrace, ...] = field(default_factory=tuple)
    sample_size: int = 0
    elapsed_seconds: float = 0.0

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.bonus.attribute_names

    def as_dict(self) -> dict[str, float]:
        """The final bonus points keyed by attribute name."""
        return self.bonus.as_dict()

    def summary(self) -> str:
        """A short human-readable description of the fitted bonus points."""
        pairs = ", ".join(f"{name}: {value:g} pts" for name, value in self.as_dict().items())
        return (
            f"DCA bonus points ({pairs}); sample_size={self.sample_size}, "
            f"fit in {self.elapsed_seconds:.2f}s"
        )
