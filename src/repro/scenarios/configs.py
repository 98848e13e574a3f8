"""Declarative scenario configurations for the market-shape stress engine.

Every correctness and performance claim in this repo is validated on two
cohort shapes — the NYC-schools copula and COMPAS.  A
:class:`ScenarioConfig` describes a *synthetic admissions market* beyond
those two: how many students and schools, which correlated protected
attributes the population carries, how seats are distributed over schools
(even, heavy-tailed, zero/oversized mixes), how students form preferences
(popularity model or copula-style clusters), and whether scores are
quantized into adversarial tie storms.

Configs are plain frozen dataclasses: JSON-serializable
(:meth:`ScenarioConfig.to_dict` / :meth:`ScenarioConfig.from_dict`), fully
seeded (``(config, trial)`` determines every generated byte), and cheap to
rescale (:meth:`ScenarioConfig.scaled`) so the same shape runs at corpus
size in tier-1 tests and at stress size in the benchmarks.

:func:`builtin_scenarios` returns the six stress shapes named by the
roadmap — heavy-tailed capacities, clustered preferences, intersectional
groups, tiny districts, zero/oversized-capacity mixes, and tie storms.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

__all__ = [
    "AttributeSpec",
    "CapacitySpec",
    "PreferenceSpec",
    "ScenarioConfig",
    "builtin_scenarios",
    "get_scenario",
]


@dataclass(frozen=True)
class AttributeSpec:
    """One binary protected attribute of the synthetic population.

    ``score_correlation`` is the latent correlation between group membership
    and academic ability (negative: the group scores lower on average);
    ``score_penalty`` is an *additional* direct shift (in latent standard
    deviations) applied to the observed score — the modelled measurement
    bias that DCA compensates.
    """

    name: str
    prevalence: float
    score_correlation: float = 0.0
    score_penalty: float = 0.0

    def validate(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"attribute name must be an identifier, got {self.name!r}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError(
                f"prevalence of {self.name!r} must be in (0, 1), got {self.prevalence}"
            )
        if not -1.0 < self.score_correlation < 1.0:
            raise ValueError(
                f"score_correlation of {self.name!r} must be in (-1, 1), "
                f"got {self.score_correlation}"
            )


@dataclass(frozen=True)
class CapacitySpec:
    """How the market's seats are distributed over schools.

    ``seat_fraction`` of the student body finds a seat in total.  With
    ``tail_exponent`` set, seats follow a Zipf profile (school ``i`` gets
    weight ``1 / (i + 1) ** tail_exponent``) instead of an even split — the
    heavy-tailed shape where one magnet school holds most of the seats.
    ``zero_schools`` schools advertise zero seats (they still appear on
    preference lists), and ``oversized_schools`` schools each get more seats
    than there are students — both shapes on which the matching engine must
    agree exactly with its oracle.
    """

    seat_fraction: float = 0.15
    tail_exponent: float | None = None
    zero_schools: int = 0
    oversized_schools: int = 0

    def validate(self, num_schools: int) -> None:
        if not 0.0 < self.seat_fraction <= 1.0:
            raise ValueError(f"seat_fraction must be in (0, 1], got {self.seat_fraction}")
        if self.tail_exponent is not None and self.tail_exponent <= 0:
            raise ValueError(f"tail_exponent must be positive, got {self.tail_exponent}")
        if self.zero_schools < 0 or self.oversized_schools < 0:
            raise ValueError("zero_schools and oversized_schools must be non-negative")
        if self.zero_schools + self.oversized_schools >= num_schools:
            raise ValueError(
                "zero_schools + oversized_schools must leave at least one "
                f"ordinary school, got {self.zero_schools}+{self.oversized_schools} "
                f"of {num_schools}"
            )


@dataclass(frozen=True)
class PreferenceSpec:
    """How students rank schools.

    ``model="popularity"`` is the vectorized popularity-plus-Gumbel model of
    :func:`repro.matching.generate_student_preferences`.  ``model="clustered"``
    adds per-cluster school affinities on top: students belong to one of
    ``clusters`` taste clusters and share that cluster's pull toward its
    favourite schools, producing the correlated preference lists that stress
    the proposal machinery (everyone wants the same seats).  With
    ``alignment`` set to a protected attribute's name, members of that group
    concentrate in cluster 0 — preferences correlated with demographics.
    """

    model: str = "popularity"
    list_length: int = 4
    popularity_spread: float = 1.0
    clusters: int = 1
    cluster_affinity: float = 2.0
    alignment: str | None = None

    def validate(self) -> None:
        if self.model not in ("popularity", "clustered"):
            raise ValueError(f"unknown preference model {self.model!r}")
        if self.list_length <= 0:
            raise ValueError(f"list_length must be positive, got {self.list_length}")
        if self.clusters <= 0:
            raise ValueError(f"clusters must be positive, got {self.clusters}")
        if self.model == "clustered" and self.clusters < 2:
            raise ValueError("clustered preferences need at least 2 clusters")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully seeded synthetic market shape.

    ``(config, trial)`` determines every generated value: the population
    table, the base scores, the per-school score plane, the capacities, and
    the preference lists (see :func:`repro.scenarios.generate_market`).

    ``intersections`` lists pairs of attribute names whose conjunction
    becomes an additional protected column (``a_x_b``) — the multi-attribute
    intersectional groups whose rarity stresses sampling and disparity
    estimation.  ``tie_levels`` quantizes all scores into that many distinct
    values, creating adversarial tie storms in both top-k selection and the
    schools' applicant rankings.
    """

    name: str
    description: str = ""
    num_students: int = 2_000
    num_schools: int = 6
    seed: int = 7
    trials: int = 2
    attributes: tuple[AttributeSpec, ...] = (
        AttributeSpec("group_a", prevalence=0.3, score_correlation=-0.25, score_penalty=0.3),
        AttributeSpec("group_b", prevalence=0.15, score_correlation=-0.15, score_penalty=0.2),
    )
    #: Latent correlations between pairs of attributes, as (a, b, rho) triples.
    attribute_correlations: tuple[tuple[str, str, float], ...] = ()
    intersections: tuple[tuple[str, str], ...] = ()
    capacities: CapacitySpec = field(default_factory=CapacitySpec)
    preferences: PreferenceSpec = field(default_factory=PreferenceSpec)
    #: Observation noise on the score latent (standard deviations).
    score_noise: float = 0.35
    #: Per-school screening noise as a fraction of the base-score std.
    screening_noise: float = 0.05
    tie_levels: int | None = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.num_students <= 0:
            raise ValueError(f"num_students must be positive, got {self.num_students}")
        if self.num_schools <= 0:
            raise ValueError(f"num_schools must be positive, got {self.num_schools}")
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if len(self.attributes) < 2:
            raise ValueError("a scenario needs at least two protected attributes")
        names = [spec.name for spec in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names: {names}")
        for spec in self.attributes:
            spec.validate()
        for a, b, rho in self.attribute_correlations:
            if a not in names or b not in names:
                raise ValueError(f"correlation references unknown attributes: {(a, b)}")
            if not -1.0 < rho < 1.0:
                raise ValueError(f"correlation must be in (-1, 1), got {rho}")
        for a, b in self.intersections:
            if a not in names or b not in names:
                raise ValueError(f"intersection references unknown attributes: {(a, b)}")
            if a == b:
                raise ValueError(f"intersection of {a!r} with itself is the attribute")
        self.capacities.validate(self.num_schools)
        self.preferences.validate()
        if self.preferences.alignment is not None and self.preferences.alignment not in names:
            raise ValueError(
                f"preference alignment references unknown attribute "
                f"{self.preferences.alignment!r}"
            )
        if self.score_noise < 0:
            raise ValueError(f"score_noise must be non-negative, got {self.score_noise}")
        if self.screening_noise < 0:
            raise ValueError(
                f"screening_noise must be non-negative, got {self.screening_noise}"
            )
        if self.tie_levels is not None and self.tie_levels < 2:
            raise ValueError(f"tie_levels must be at least 2, got {self.tie_levels}")

    # ------------------------------------------------------------------
    @property
    def fairness_attributes(self) -> tuple[str, ...]:
        """Protected column names, intersections included, in table order."""
        return tuple(spec.name for spec in self.attributes) + tuple(
            f"{a}_x_{b}" for a, b in self.intersections
        )

    def scaled(self, num_students: int | None = None, trials: int | None = None) -> "ScenarioConfig":
        """The same shape at a different size (corpus vs stress scale)."""
        changes: dict[str, int] = {}
        if num_students is not None:
            changes["num_students"] = int(num_students)
        if trials is not None:
            changes["trials"] = int(trials)
        return replace(self, **changes) if changes else self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready dict (tuples become lists, nested specs become dicts)."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        data = dict(payload)
        data["attributes"] = tuple(
            AttributeSpec(**spec) for spec in data.get("attributes", ())
        )
        data["attribute_correlations"] = tuple(
            (a, b, float(rho)) for a, b, rho in data.get("attribute_correlations", ())
        )
        data["intersections"] = tuple(
            (a, b) for a, b in data.get("intersections", ())
        )
        if "capacities" in data:
            data["capacities"] = CapacitySpec(**data["capacities"])
        if "preferences" in data:
            data["preferences"] = PreferenceSpec(**data["preferences"])
        config = cls(**data)
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
def builtin_scenarios() -> tuple[ScenarioConfig, ...]:
    """The six built-in stress shapes, each exercising a distinct failure axis."""
    return (
        ScenarioConfig(
            name="heavy_tailed_capacities",
            description=(
                "One magnet school holds most of the seats (Zipf tail), so the "
                "proposal cascade concentrates on a single roster"
            ),
            num_students=2_400,
            num_schools=8,
            seed=101,
            capacities=CapacitySpec(seat_fraction=0.2, tail_exponent=1.6),
        ),
        ScenarioConfig(
            name="clustered_preferences",
            description=(
                "Students form taste clusters aligned with a protected group; "
                "everyone in a cluster chases the same schools"
            ),
            num_students=2_000,
            num_schools=6,
            seed=102,
            attribute_correlations=(("group_a", "group_b", 0.35),),
            preferences=PreferenceSpec(
                model="clustered", clusters=3, cluster_affinity=2.5, alignment="group_a"
            ),
        ),
        ScenarioConfig(
            name="intersectional_groups",
            description=(
                "Three correlated attributes plus their rare intersection as a "
                "fourth protected column"
            ),
            num_students=2_400,
            num_schools=6,
            seed=103,
            attributes=(
                AttributeSpec("low_income", 0.55, score_correlation=-0.2, score_penalty=0.25),
                AttributeSpec("ell", 0.18, score_correlation=-0.25, score_penalty=0.35),
                AttributeSpec("special_ed", 0.2, score_correlation=-0.3, score_penalty=0.3),
            ),
            attribute_correlations=(
                ("low_income", "ell", 0.3),
                ("low_income", "special_ed", 0.15),
            ),
            intersections=(("low_income", "ell"),),
        ),
        ScenarioConfig(
            name="tiny_district",
            description=(
                "A market so small every group is a handful of students; the "
                "sample covers the population and every roster matters"
            ),
            num_students=90,
            num_schools=3,
            seed=104,
            attributes=(
                AttributeSpec("group_a", 0.35, score_correlation=-0.2, score_penalty=0.3),
                AttributeSpec("group_b", 0.25, score_correlation=-0.1, score_penalty=0.2),
            ),
            capacities=CapacitySpec(seat_fraction=0.4),
            preferences=PreferenceSpec(list_length=3),
        ),
        ScenarioConfig(
            name="zero_capacity_mix",
            description=(
                "Two schools advertise zero seats and one could absorb the whole "
                "cohort; proposal accounting and rosters must still agree"
            ),
            num_students=2_000,
            num_schools=7,
            seed=105,
            capacities=CapacitySpec(
                seat_fraction=0.18, zero_schools=2, oversized_schools=1
            ),
            preferences=PreferenceSpec(list_length=5),
        ),
        ScenarioConfig(
            name="tie_storm",
            description=(
                "Scores quantized into a handful of levels: massive score ties in "
                "selection and in every school's applicant ranking"
            ),
            num_students=2_000,
            num_schools=6,
            seed=106,
            tie_levels=7,
            screening_noise=0.3,
        ),
    )


def get_scenario(name: str) -> ScenarioConfig:
    """Look up a built-in scenario by name."""
    for config in builtin_scenarios():
        if config.name == name:
            return config
    known = ", ".join(config.name for config in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r}; built-ins: {known}")
