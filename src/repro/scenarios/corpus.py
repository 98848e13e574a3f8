"""The golden-corpus emitter: small committed scenario instances.

The stress harness's output doubles as the repo's differential-test corpus:
for every built-in scenario a *downsized* instance (a few hundred students,
one trial) is realized, fitted, and matched once, and the expected artifacts
— the granularity-rounded bonus vector, disparity/DDP before and after, and
the full assignment vector of both proposing sides — are written as JSON
under ``tests/data/scenarios/``.

Tier-1 tests replay every committed instance on every run
(``tests/test_scenarios.py``): they recompute the instance from its embedded
config, assert the golden numbers still hold, and additionally match each
market against the pure-Python oracle ``tests/_da_reference_oracle.py`` on
both sides.  Regenerate
after an intentional behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_scenarios.py -q

Golden payloads follow the repo's golden-file convention: integers compare
exactly, floats via ``pytest.approx(rel=1e-9)``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core import DCA, DCAConfig, DisparityCalculator, DisparityObjective
from ..matching.deferred_acceptance import _match, _normalize_preferences
from ..metrics import ddp
from .configs import ScenarioConfig, builtin_scenarios
from .market import generate_market

__all__ = [
    "CORPUS_K",
    "CORPUS_SCHEMA",
    "corpus_fit_config",
    "corpus_scenarios",
    "build_instance",
    "write_corpus",
    "load_corpus",
]

CORPUS_SCHEMA = 1

#: Selection fraction every corpus instance is fitted at.
CORPUS_K = 0.15

#: Students per downsized corpus instance (tiny scenarios keep their size).
_CORPUS_STUDENTS = 360


def corpus_fit_config() -> DCAConfig:
    """Short-phase fit hyper-parameters: corpus instances replay on every tier-1 run."""
    return DCAConfig(iterations=40, refinement_iterations=60, sample_size=240)


def corpus_scenarios() -> tuple[ScenarioConfig, ...]:
    """Every built-in scenario downsized to corpus scale (one trial each)."""
    scaled = []
    for config in builtin_scenarios():
        students = min(config.num_students, _CORPUS_STUDENTS)
        scaled.append(config.scaled(num_students=students, trials=1))
    return tuple(scaled)


def build_instance(config: ScenarioConfig) -> dict:
    """Realize, fit, and match one corpus instance; return its golden payload.

    The fit seed matches the Monte-Carlo driver's trial-0 first-objective
    spec (``config.seed * 1000``), so the corpus pins exactly the numbers the
    sweep produces.  The differential tests are what prove the pure-Python
    oracle agrees with the matches.
    """
    market = generate_market(config, trial=0)
    table = market.table
    attributes = market.fairness_attributes
    fit_config = corpus_fit_config()
    dca = DCA(
        attributes,
        market.score_function(),
        CORPUS_K,
        objective=DisparityObjective(attributes),
        config=replace(fit_config, seed=config.seed * 1_000),
    )
    result = dca.fit(table)

    base_scores = market.base_scores
    compensated_scores = result.bonus.apply(table, base_scores)
    calculator = DisparityCalculator(attributes).fit(table)
    compensated_plane = np.vstack(
        [
            result.bonus.apply(table, market.score_plane[school])
            for school in range(market.num_schools)
        ]
    )

    preferences = _normalize_preferences(market.preferences, market.num_schools)
    matches = {}
    for side in ("students", "schools"):
        match = _match(preferences, compensated_plane, list(market.capacities), side)
        matches[side] = {
            "assignment": [int(value) for value in match.assignment],
            "num_unmatched": int(match.num_unmatched),
        }

    return {
        "schema": CORPUS_SCHEMA,
        "scenario": config.to_dict(),
        "k": CORPUS_K,
        "expected": {
            "bonus": result.bonus.as_dict(),
            "raw_bonus": result.raw_bonus.as_dict(),
            "sample_size": int(result.sample_size),
            "disparity_norm_before": float(
                calculator.disparity(table, base_scores, CORPUS_K).norm
            ),
            "disparity_norm_after": float(
                calculator.disparity(table, compensated_scores, CORPUS_K).norm
            ),
            "ddp_before": float(
                ddp(table, base_scores, attributes, include_complements=True)
            ),
            "ddp_after": float(
                ddp(table, compensated_scores, attributes, include_complements=True)
            ),
            "capacities": [int(c) for c in market.capacities],
            "matches": matches,
        },
    }


def write_corpus(
    directory: Path | str, configs: Sequence[ScenarioConfig] | None = None
) -> list[Path]:
    """Emit one golden JSON per scenario into ``directory``; return the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for config in configs if configs is not None else corpus_scenarios():
        payload = build_instance(config)
        path = directory / f"{config.name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def load_corpus(directory: Path | str) -> list[dict]:
    """Read every committed instance in ``directory``, sorted by file name."""
    directory = Path(directory)
    payloads = []
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                f"{path.name}: corpus schema {payload.get('schema')!r} != {CORPUS_SCHEMA}"
            )
        payloads.append(payload)
    return payloads
