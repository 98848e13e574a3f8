"""Configuration for the Disparity Compensation Algorithm.

The defaults reproduce the settings of Section V-B: three passes of 100
iterations (learning rates 1.0 and 0.1, then an Adam-driven refinement), a
sample of 500 objects, bonus points rounded to multiples of 0.5, and a
non-negativity constraint on every bonus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DCAConfig"]


@dataclass(frozen=True)
class DCAConfig:
    """Hyper-parameters of Core DCA and its refinement step.

    Attributes
    ----------
    learning_rates:
        Decreasing step sizes for Core DCA (Algorithm 1); each is run for
        ``iterations`` steps.  The paper uses 1.0 then 0.1.
    iterations:
        Number of sampled steps per learning rate.
    refinement_iterations:
        Number of Adam-driven steps in the refinement pass (Algorithm 2);
        set to 0 to run Core DCA only.  The paper uses 100; the default here
        is 200 because the extra (cheap) sampled steps measurably tighten the
        residual disparity on the synthetic cohorts.
    refinement_learning_rate:
        Adam's global step size during refinement.
    averaging_window:
        The refinement result is the average of the last ``averaging_window``
        iterates ("the rolling average of the last 100 points"), capped at
        ``refinement_iterations``.
    sample_size:
        Rows drawn per step.  ``None`` applies the ``max(1/k, 1/r)`` rule from
        :func:`repro.core.sampling.recommended_sample_size`.
    granularity:
        Bonus points are rounded to multiples of this value at the end
        (0 disables rounding).
    min_bonus, max_bonus:
        Per-attribute bounds enforced at every step (Section VI-A4).  The
        default forbids negative bonuses, which "would be perceived as a
        penalty".
    seed:
        RNG seed controlling the random initialization and all samples.
    initial_bonus_scale:
        The random initial bonus vector is uniform on [0, initial_bonus_scale].
    min_group_count:
        How many selected rows and rarest-group members a sample should hold
        (about 30, for the Central Limit Theorem).  Used only when
        ``sample_size`` is ``None``: the sample is then the larger of
        ``min_group_count / k`` and ``min_group_count / r`` rows, where ``r``
        is the rarest fairness group's frequency, floored at 100 and capped
        at the population (:func:`repro.core.sampling.recommended_sample_size`).
    rng_batching:
        ``"per_step"`` (the default) draws each step's sample in its own
        generator call, preserving seed-for-seed history.  ``"per_phase"``
        draws all of a phase's sample indices in **one** generator call
        (:meth:`repro.core.sampling.SampleStream.draw_phase_indices`),
        which removes per-step generator overhead but changes the stream
        (different results for the same seed) and samples with replacement
        within a step — statistically negligible while the sample is much
        smaller than the population, which is the recommended regime.
    """

    learning_rates: tuple[float, ...] = (1.0, 0.1)
    iterations: int = 100
    refinement_iterations: int = 200
    refinement_learning_rate: float = 0.1
    averaging_window: int = 100
    sample_size: int | None = 500
    granularity: float = 0.5
    min_bonus: float = 0.0
    max_bonus: float | None = None
    seed: int | None = None
    initial_bonus_scale: float = 1.0
    min_group_count: int = 30
    rng_batching: str = "per_step"

    def __post_init__(self) -> None:
        # A list of rates is accepted, but stored as a tuple so the config
        # stays hashable: batched fits group jobs by config.
        object.__setattr__(self, "learning_rates", tuple(self.learning_rates))

    def validate(self) -> None:
        if not self.learning_rates:
            raise ValueError("at least one learning rate is required")
        if any(rate <= 0 for rate in self.learning_rates):
            raise ValueError(f"learning rates must be positive, got {self.learning_rates}")
        if list(self.learning_rates) != sorted(self.learning_rates, reverse=True):
            raise ValueError(
                f"learning rates must be sorted in decreasing order, got {self.learning_rates}"
            )
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.refinement_iterations < 0:
            raise ValueError(
                f"refinement_iterations must be non-negative, got {self.refinement_iterations}"
            )
        if self.refinement_learning_rate <= 0:
            raise ValueError(
                f"refinement_learning_rate must be positive, got {self.refinement_learning_rate}"
            )
        if self.averaging_window <= 0:
            raise ValueError(f"averaging_window must be positive, got {self.averaging_window}")
        if self.sample_size is not None and self.sample_size <= 0:
            raise ValueError(f"sample_size must be positive, got {self.sample_size}")
        if self.granularity < 0:
            raise ValueError(f"granularity must be non-negative, got {self.granularity}")
        if self.min_bonus < 0:
            raise ValueError(f"min_bonus must be non-negative, got {self.min_bonus}")
        if self.max_bonus is not None and self.max_bonus < self.min_bonus:
            raise ValueError(
                f"max_bonus ({self.max_bonus}) must be at least min_bonus ({self.min_bonus})"
            )
        if self.initial_bonus_scale < 0:
            raise ValueError(
                f"initial_bonus_scale must be non-negative, got {self.initial_bonus_scale}"
            )
        if self.min_group_count <= 0:
            raise ValueError(f"min_group_count must be positive, got {self.min_group_count}")
        if self.rng_batching not in ("per_step", "per_phase"):
            raise ValueError(
                "rng_batching must be 'per_step' or 'per_phase', "
                f"got {self.rng_batching!r}"
            )

    def rng(self):
        """The fit's seeded root generator — the RNG-lineage anchor.

        Every stream a fit consumes (initialization, per-step samples)
        derives from this one generator, which is what makes a ``(seed,
        config)`` pair fully determine the fit and what repro-lint R5
        traces draws back to.  A fresh generator is returned per call, so
        two fits over the same config never share stream state.
        """
        import numpy as np  # deferred: config stays importable without numpy

        return np.random.default_rng(self.seed)

    def without_refinement(self) -> "DCAConfig":
        """A copy configured to run Core DCA only (used by the Figure 8 ablation)."""
        return replace(self, refinement_iterations=0)
