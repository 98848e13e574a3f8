"""Bonus-point vectors (Definition 2 of the paper).

A bonus vector assigns a non-negative number of points to each fairness
attribute.  The compensated score of an object is::

    f_b(o) = f(o) + A_f(o) · B

where ``A_f(o)`` is the object's fairness-attribute vector.  For binary
attributes this simply adds the bonus to members of the group; for continuous
attributes (such as the Economic Need Index) the bonus acts as a multiplier
on the attribute value, giving "a more precise disparity compensation tool".

Bonus vectors are the explainable artefact the whole method produces: they
can be published in advance, compared across attributes, scaled down to trade
fairness against utility, capped, and rounded to a stakeholder-chosen
granularity.  All of those operations live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..tabular import Table

__all__ = ["BonusVector", "apply_bonus", "compensate_scores"]


@dataclass(frozen=True)
class BonusVector:
    """An immutable mapping from fairness-attribute name to bonus points.

    Examples
    --------
    >>> bonus = BonusVector({"low_income": 1.0, "ell": 11.5})
    >>> bonus["ell"]
    11.5
    >>> bonus.scaled(0.5).as_dict()
    {'low_income': 0.5, 'ell': 5.75}
    """

    attribute_names: tuple[str, ...]
    values: np.ndarray

    def __init__(self, bonuses: Mapping[str, float] | None = None,
                 attribute_names: Sequence[str] | None = None,
                 values: Sequence[float] | None = None) -> None:
        if bonuses is not None:
            names = tuple(str(name) for name in bonuses.keys())
            array = np.asarray([float(v) for v in bonuses.values()], dtype=float)
        else:
            if attribute_names is None or values is None:
                raise ValueError(
                    "provide either a bonuses mapping or attribute_names and values"
                )
            names = tuple(str(name) for name in attribute_names)
            array = np.asarray(list(values), dtype=float)
        if array.shape != (len(names),):
            raise ValueError(
                f"values have shape {array.shape}, expected ({len(names)},)"
            )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")
        array = array.copy()
        array.setflags(write=False)
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "values", array)

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, attribute_names: Sequence[str]) -> "BonusVector":
        """A bonus vector of all zeros (the uncompensated baseline)."""
        return cls(attribute_names=attribute_names, values=np.zeros(len(attribute_names)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.attribute_names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attribute_names)

    def __getitem__(self, name: str) -> float:
        try:
            index = self.attribute_names.index(name)
        except ValueError:
            raise KeyError(
                f"no bonus for attribute {name!r}; attributes: {list(self.attribute_names)}"
            ) from None
        return float(self.values[index])

    def as_dict(self) -> dict[str, float]:
        return {name: float(value) for name, value in zip(self.attribute_names, self.values)}

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}: {value:g}" for name, value in self.as_dict().items())
        return f"BonusVector({{{pairs}}})"

    # ------------------------------------------------------------------
    # transformations (all return new vectors)
    # ------------------------------------------------------------------
    def _with_values(self, values: np.ndarray) -> "BonusVector":
        return BonusVector(attribute_names=self.attribute_names, values=values)

    def replace(self, **bonuses: float) -> "BonusVector":
        """Return a copy with the named bonuses overridden."""
        updated = self.as_dict()
        for name, value in bonuses.items():
            if name not in updated:
                raise KeyError(f"unknown attribute {name!r}")
            updated[name] = float(value)
        return BonusVector(updated)

    def scaled(self, proportion: float) -> "BonusVector":
        """Multiply every bonus by ``proportion``.

        This is the knob behind the paper's Figures 2, 3, and 7: applying a
        fraction of the recommended bonus points trades disparity reduction
        against ranking utility near-linearly.
        """
        if proportion < 0:
            raise ValueError(f"proportion must be non-negative, got {proportion}")
        return self._with_values(self.values * float(proportion))

    def clipped(self, minimum: float = 0.0, maximum: float | None = None) -> "BonusVector":
        """Clip every bonus into [minimum, maximum] (Section VI-A4, Figure 5)."""
        if maximum is not None and maximum < minimum:
            raise ValueError(f"maximum {maximum} is below minimum {minimum}")
        upper = np.inf if maximum is None else float(maximum)
        return self._with_values(np.clip(self.values, float(minimum), upper))

    def rounded(self, granularity: float = 0.5) -> "BonusVector":
        """Round every bonus to the nearest multiple of ``granularity``.

        The paper restricts published bonus points to multiples of 0.5 "for
        simplicity and efficiency"; stakeholders may choose other step sizes.
        A multiple is the float nearest the exact decimal multiple of the
        granularity as written: ``111`` steps of ``0.1`` publish ``11.1``,
        not ``111 * 0.1 == 11.100000000000001``.  A dyadic granularity such
        as the default 0.5 gives exactly ``steps * granularity``.
        """
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        step = Fraction(repr(float(granularity)))
        steps = np.round(self.values / granularity)
        return self._with_values(steps * step.numerator / step.denominator)

    def norm(self) -> float:
        """The L2 norm of the bonus values (a size diagnostic, not a fairness metric)."""
        return float(np.linalg.norm(self.values))

    # ------------------------------------------------------------------
    # application to data
    # ------------------------------------------------------------------
    def attribute_matrix(self, table: Table) -> np.ndarray:
        """The fairness-attribute matrix ``A_f`` of ``table`` in this vector's order."""
        return table.matrix(list(self.attribute_names))

    def adjustments(self, table: Table) -> np.ndarray:
        """Per-object score adjustment ``A_f(o) · B`` for every row of ``table``."""
        if len(self) == 0:
            return np.zeros(table.num_rows, dtype=float)
        return self.attribute_matrix(table) @ self.values

    def apply(self, table: Table, base_scores: np.ndarray) -> np.ndarray:
        """Compensated scores ``f_b(o) = f(o) + A_f(o) · B`` for every row."""
        base_scores = np.asarray(base_scores, dtype=float)
        if base_scores.shape != (table.num_rows,):
            raise ValueError(
                f"base_scores have shape {base_scores.shape}, expected ({table.num_rows},)"
            )
        return base_scores + self.adjustments(table)

    def explain(self, table: Table, base_scores: np.ndarray, row: int) -> dict[str, float]:
        """Break one object's compensated score into explainable components.

        Returns the base score, each attribute's contribution, and the total —
        the per-applicant transparency artefact the paper argues for.
        """
        base_scores = np.asarray(base_scores, dtype=float)
        contributions: dict[str, float] = {"base_score": float(base_scores[row])}
        for name in self.attribute_names:
            contributions[f"bonus:{name}"] = float(
                table.numeric(name)[row] * self[name]
            )
        contributions["total"] = float(
            base_scores[row] + sum(v for k, v in contributions.items() if k.startswith("bonus:"))
        )
        return contributions


def apply_bonus(table: Table, base_scores: np.ndarray, bonus: BonusVector) -> np.ndarray:
    """Functional alias for :meth:`BonusVector.apply`."""
    return bonus.apply(table, base_scores)


def compensate_scores(
    attribute_matrix: np.ndarray, base_scores: np.ndarray, bonus_values: np.ndarray
) -> np.ndarray:
    """Array-plane compensation: ``f_b = f + A_f · B`` on raw arrays.

    The DCA hot loop calls this with a row subset of the precomputed
    fairness-attribute matrix instead of routing each sampled step through a
    :class:`~repro.tabular.Table` and a :class:`BonusVector`; the arithmetic
    is the same ``base + matrix @ values`` that :meth:`BonusVector.apply`
    performs.
    """
    return base_scores + attribute_matrix @ bonus_values
