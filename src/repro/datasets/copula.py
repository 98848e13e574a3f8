"""Correlated synthetic-attribute generation via a Gaussian copula.

The paper's experiments run on two datasets we cannot redistribute (the NYC
DOE student records are IRB-restricted; the ProPublica COMPAS extract carries
its own usage concerns).  The reproduction therefore generates *calibrated
synthetic* populations.  Each population is described by:

* a set of latent dimensions with a target correlation structure, and
* per-attribute marginal transforms (binary thresholds at a target
  prevalence, min-max clipped continuous values, etc.).

A Gaussian copula gives exactly that: draw a multivariate normal vector with
the requested correlation matrix, then push each coordinate through its
marginal transform.  Correlations between fairness attributes and the academic
(or risk) attributes are what create the disparate outcomes that DCA has to
compensate, so controlling them directly is the key to reproducing the
*shape* of the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

# The standard normal CDF and quantile that SciPy's ``norm.cdf``/``norm.ppf``
# wrap, bit for bit at loc 0 and scale 1.  Importing them alone keeps SciPy's
# stats subpackage, about a second of import, out of every process that
# generates a cohort.
from scipy.special import ndtr, ndtri

__all__ = [
    "MarginalSpec",
    "binary_marginal",
    "uniform_marginal",
    "clipped_normal_marginal",
    "GaussianCopula",
    "nearest_correlation_matrix",
]


@dataclass(frozen=True)
class MarginalSpec:
    """A named marginal transform applied to one latent normal coordinate."""

    name: str
    transform: Callable[[np.ndarray], np.ndarray]

    def apply(self, latent: np.ndarray) -> np.ndarray:
        return self.transform(latent)


def binary_marginal(name: str, prevalence: float) -> MarginalSpec:
    """A 0/1 attribute that is 1 with probability ``prevalence``.

    The latent normal coordinate is thresholded at the (1 - prevalence)
    quantile, so *larger* latent values indicate group membership.
    """
    if not 0.0 < prevalence < 1.0:
        raise ValueError(f"prevalence must be in (0, 1), got {prevalence}")
    threshold = ndtri(1.0 - prevalence)

    def transform(latent: np.ndarray) -> np.ndarray:
        return (latent > threshold).astype(float)

    return MarginalSpec(name, transform)


def uniform_marginal(name: str, low: float = 0.0, high: float = 1.0) -> MarginalSpec:
    """A continuous attribute uniform on [low, high] (probability-integral transform)."""
    if high <= low:
        raise ValueError(f"high must exceed low, got [{low}, {high}]")

    def transform(latent: np.ndarray) -> np.ndarray:
        return low + (high - low) * ndtr(latent)

    return MarginalSpec(name, transform)


def clipped_normal_marginal(
    name: str, mean: float, std: float, low: float | None = None, high: float | None = None
) -> MarginalSpec:
    """A normal attribute with the given mean/std, optionally clipped to [low, high]."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")

    def transform(latent: np.ndarray) -> np.ndarray:
        values = mean + std * latent
        if low is not None or high is not None:
            values = np.clip(values, low if low is not None else -np.inf,
                             high if high is not None else np.inf)
        return values

    return MarginalSpec(name, transform)


def nearest_correlation_matrix(matrix: np.ndarray, epsilon: float = 1e-8) -> np.ndarray:
    """Project a symmetric matrix onto the positive semi-definite cone.

    Hand-written correlation matrices (as used by the dataset generators) are
    occasionally slightly indefinite; clipping negative eigenvalues and
    re-normalizing the diagonal makes them usable for Cholesky-free sampling.
    """
    matrix = np.asarray(matrix, dtype=float)
    symmetric = (matrix + matrix.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    clipped = np.clip(eigenvalues, epsilon, None)
    rebuilt = eigenvectors @ np.diag(clipped) @ eigenvectors.T
    scale = np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt / np.outer(scale, scale)
    np.fill_diagonal(rebuilt, 1.0)
    return rebuilt


class GaussianCopula:
    """Sample correlated attributes with arbitrary marginals.

    Parameters
    ----------
    marginals:
        One :class:`MarginalSpec` per output attribute, in order.
    correlation:
        Square correlation matrix over the latent normals, same order as
        ``marginals``.  It is projected to the nearest valid correlation
        matrix if necessary.
    """

    def __init__(self, marginals: Sequence[MarginalSpec], correlation: np.ndarray) -> None:
        self._marginals = tuple(marginals)
        correlation = np.asarray(correlation, dtype=float)
        expected = (len(self._marginals), len(self._marginals))
        if correlation.shape != expected:
            raise ValueError(
                f"correlation matrix has shape {correlation.shape}, expected {expected}"
            )
        self._correlation = nearest_correlation_matrix(correlation)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._marginals)

    @property
    def correlation(self) -> np.ndarray:
        return self._correlation.copy()

    def _latent(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the correlated latent normal matrix (one generator call)."""
        if size <= 0:
            raise ValueError(f"sample size must be positive, got {size}")
        dimension = len(self._marginals)
        return rng.multivariate_normal(
            mean=np.zeros(dimension), cov=self._correlation, size=size, method="eigh"
        )

    def sample(self, size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Draw ``size`` rows and return a dict of attribute arrays."""
        latent = self._latent(size, rng)
        return {
            spec.name: spec.apply(latent[:, i]) for i, spec in enumerate(self._marginals)
        }

    def latent_and_sample_into(
        self, size: int, rng: np.random.Generator, out: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Sample straight into caller-provided column buffers; return the latent.

        Dataset generators use the latent coordinates to build outcome
        variables (grades, risk) that are correlated with the fairness
        attributes *through the latent space*, which keeps the calibration
        interpretable.  Every marginal whose name appears in ``out`` has its
        transform written into that buffer in place (``out[name][...] =
        ...``); names absent from ``out`` are skipped (their latent
        coordinate is still drawn, so the RNG stream — and therefore every
        generated value — is bitwise identical to :meth:`sample`).
        """
        latent = self._latent(size, rng)
        for i, spec in enumerate(self._marginals):
            target = out.get(spec.name)
            if target is None:
                continue
            if target.shape != (size,):
                raise ValueError(
                    f"output buffer for {spec.name!r} has shape {target.shape}, "
                    f"expected {(size,)}"
                )
            target[...] = spec.apply(latent[:, i])
        return latent
