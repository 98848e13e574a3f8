"""Cold start: the package imports without SciPy and runs without ``scipy.stats``.

``scipy.stats`` takes about a second to import, which every CLI run,
spawn-started pool worker and subprocess would pay, and ``scipy.special``
is most of what is left of the package's import.  The copula therefore
uses the standard normal CDF and quantile from ``scipy.special`` (``ndtr``,
``ndtri``), imported inside the functions that call them, and binomial
FA*IR imports ``scipy.stats`` inside ``mtable``, the one function that
needs ``binom.ppf``.

These tests pin every half: a fresh interpreter that imports
``repro.experiments`` loads no ``scipy.special`` or ``scipy.stats``;
generating a cohort loads ``scipy.special``; importing every module and
running the data and baseline paths never loads ``scipy.stats``; and the
``scipy.special`` functions equal the ``scipy.stats.norm`` methods they
replace bit for bit, so every generated cohort is unchanged.  The tests
themselves may import ``scipy.stats``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from repro.datasets import SchoolGeneratorConfig, binary_marginal, uniform_marginal
from repro.scenarios import builtin_scenarios

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "repro"

_IMPORT_GRAPH_PROBE = """
import importlib
import pkgutil
import sys

import repro.experiments

print("experiments", "scipy.special" in sys.modules, "scipy.stats" in sys.modules)

from repro.datasets import SchoolGeneratorConfig, generate_school_cohort

generate_school_cohort("2016-2017", SchoolGeneratorConfig(num_students=500))
print("cohort", "scipy.special" in sys.modules, "scipy.stats" in sys.modules)

import repro

walked = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in walked:
    importlib.import_module(name)

from repro.baselines import mtable
from repro.datasets import generate_compas_dataset
from repro.experiments import table2

generate_school_cohort("2016-2017", SchoolGeneratorConfig(num_students=2000))
generate_compas_dataset()
table2.run(num_students=2000)
print("walked", *walked)
print("pipeline", "scipy.stats" in sys.modules)
mtable(10, 0.3, 0.1)
print("mtable", "scipy.stats" in sys.modules)
"""


def _package_modules() -> set[str]:
    names = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = ("repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names - {"repro"}


@pytest.fixture(scope="module")
def probe() -> dict[str, list[str]]:
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()[-5:]
    return {line.split()[0]: line.split()[1:] for line in lines}


class TestImportGraph:
    def test_probe_imports_every_module(self, probe):
        assert set(probe["walked"]) == _package_modules()

    def test_import_loads_no_scipy(self, probe):
        assert probe["experiments"] == ["False", "False"]

    def test_cohort_generation_loads_scipy_special_only(self, probe):
        assert probe["cohort"] == ["True", "False"]

    def test_package_never_loads_scipy_stats(self, probe):
        assert probe["pipeline"] == ["False"]

    def test_binomial_mtable_loads_scipy_stats_lazily(self, probe):
        assert probe["mtable"] == ["True"]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: Every prevalence a generated population thresholds at.
PREVALENCES = sorted(
    {
        SchoolGeneratorConfig.low_income_rate,
        SchoolGeneratorConfig.ell_rate,
        SchoolGeneratorConfig.special_ed_rate,
        *(spec.prevalence for config in builtin_scenarios() for spec in config.attributes),
    }
)

EDGES = np.array(
    [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 40.0, -40.0, np.inf, -np.inf]
)


class TestCopulaMatchesScipyStats:
    def test_quantile_is_bitwise_norm_ppf(self):
        rng = np.random.default_rng(2024)
        quantiles = np.concatenate(
            [rng.uniform(size=100_000), EDGES, 1.0 - np.array(PREVALENCES)]
        )
        assert np.array_equal(_bits(ndtri(quantiles)), _bits(stats.norm.ppf(quantiles)))

    def test_quantile_of_nan_is_nan(self):
        """The one input where the bits differ: ``ndtri(nan)`` is a NaN with the
        sign bit set, ``norm.ppf(nan)`` one without.  The copula never asks,
        since ``binary_marginal`` rejects a NaN prevalence.
        """
        assert np.isnan(ndtri(np.nan)) and np.isnan(stats.norm.ppf(np.nan))
        with pytest.raises(ValueError, match="prevalence"):
            binary_marginal("flag", float("nan"))

    def test_cdf_is_bitwise_norm_cdf(self):
        rng = np.random.default_rng(2025)
        latent = np.concatenate([4.0 * rng.standard_normal(100_000), EDGES, [np.nan]])
        assert np.array_equal(_bits(ndtr(latent)), _bits(stats.norm.cdf(latent)))

    @pytest.mark.parametrize("prevalence", PREVALENCES)
    def test_binary_marginal_thresholds_at_norm_ppf(self, prevalence):
        threshold = stats.norm.ppf(1.0 - prevalence)
        latent = np.random.default_rng(7).standard_normal(10_000)
        latent = np.concatenate([latent, [threshold, np.nextafter(threshold, np.inf)]])
        flags = binary_marginal("flag", prevalence).apply(latent)
        assert np.array_equal(flags, (latent > threshold).astype(float))

    def test_uniform_marginal_is_bitwise_norm_cdf_transform(self):
        latent = np.random.default_rng(11).standard_normal(100_000)
        values = uniform_marginal("eni", 0.05, 0.98).apply(latent)
        expected = 0.05 + (0.98 - 0.05) * stats.norm.cdf(latent)
        assert np.array_equal(_bits(values), _bits(expected))
