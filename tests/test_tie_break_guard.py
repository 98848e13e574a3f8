"""Guard: the best-first tie-break has one owner, ``ranking/selection.py``.

``repro.ranking.best_first_order`` orders by ``(-score, row)``, and every
ranking, selection, metric, baseline and the matching engine build on it.
A hand-rolled copy — an ``np.lexsort`` over a negated key, or a stable
``argsort`` of a negated array — can drift from it (NaN placement, ``-0.0``,
the tie order) and misses its fast path.  This test parses every module
under ``src/repro`` and fails on such a call anywhere but
``ranking/selection.py``.  Sorts over non-negated keys (a school's offer
ranks, a table's generic ``sort``) are not tie-breaks of a score and stay
allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = SRC / "ranking" / "selection.py"
_STABLE_KINDS = ("stable", "mergesort")


def _negated(node: ast.AST) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


def _is_stable(call: ast.Call) -> bool:
    return any(
        keyword.arg == "kind"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value in _STABLE_KINDS
        for keyword in call.keywords
    )


def tie_break_copies(source: str) -> list[int]:
    """Line numbers of lexsorts over a negated key and stable argsorts of one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if name == "lexsort" and node.args:
            keys = node.args[0]
            elements = keys.elts if isinstance(keys, (ast.Tuple, ast.List)) else [keys]
            if any(_negated(key) for key in elements):
                lines.append(node.lineno)
        elif name == "argsort" and _is_stable(node):
            # ``np.argsort(-x, kind=...)`` or ``(-x).argsort(kind=...)``.
            sorted_value = node.args[0] if node.args else node.func.value
            if _negated(sorted_value) or _negated(node.func.value):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "snippet",
    [
        "order = np.lexsort((students, -scores))",
        "order = np.lexsort((proposers, -prop_scores, target))",
        "order = np.argsort(-score_plane, axis=1, kind='stable')",
        "order = (-scores).argsort(kind='mergesort')",
        "order = np.lexsort([np.arange(n), -scores])",
    ],
)
def test_guard_flags_tie_break_copies(snippet):
    assert tie_break_copies(snippet) == [1]


@pytest.mark.parametrize(
    "snippet",
    [
        "order = np.lexsort((offer_rank, students))",
        "order = np.argsort(-utilities, axis=1)",
        "order = np.argsort(type_of, kind='stable')",
        "order = np.lexsort((tie, primary))",
    ],
)
def test_guard_allows_other_sorts(snippet):
    assert tie_break_copies(snippet) == []


def test_src_has_one_owner_of_the_tie_break():
    assert tie_break_copies(OWNER.read_text()), "the owner itself should be detected"
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != OWNER
        for line in tie_break_copies(path.read_text())
    ]
    assert not offenders, (
        "order by (-score, row) through repro.ranking.best_first_order instead of "
        f"a local lexsort / stable argsort: {offenders}"
    )
