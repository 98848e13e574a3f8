"""The pluggable rule registry for ``repro-lint``.

Each rule audits one of the contracts described in ``docs/contracts.md``:

========  ============================================================
``R1``    Determinism: hot paths draw randomness only from threaded,
          seeded generators — never global RNG state or wall clocks.
``R4``    Worker-boundary pickling: process pools receive module-level
          functions and plain descriptors, never closures or tables.
``R5``    RNG lineage (interprocedural): every draw reachable from a fit
          entry point traces to a seeded, parent-owned generator.
========  ============================================================

R1 and R4 are module-scoped; R5 is project-scoped and consults the call
graph (:mod:`repro.analysis.callgraph`) built over the whole lint run.
Retired ids, not reused: R3 (compiled-objective map-reduce contract) and R6
(shard disjointness) went with the row-sharded fit they audited, and R2
(shared-memory lifecycle) with the last shared-memory segment in ``src/``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..lint import Rule
from .determinism import DeterminismRule
from .pickling import WorkerPicklingRule
from .rng_lineage import RngLineageRule

__all__ = [
    "DEFAULT_RULES",
    "DeterminismRule",
    "RngLineageRule",
    "WorkerPicklingRule",
    "rules_by_id",
]

#: All rules, in rule-id order; instances are stateless and reusable.
DEFAULT_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    WorkerPicklingRule(),
    RngLineageRule(),
)


def rules_by_id(ids: Iterable[str]) -> Sequence[Rule]:
    """Resolve ``("R1", "R4")`` into rule instances; unknown ids raise."""
    wanted = list(ids)
    known = {rule.id: rule for rule in DEFAULT_RULES}
    missing = [rule_id for rule_id in wanted if rule_id not in known]
    if missing:
        raise KeyError(f"unknown repro-lint rule ids: {missing}; known: {sorted(known)}")
    return tuple(known[rule_id] for rule_id in wanted)
