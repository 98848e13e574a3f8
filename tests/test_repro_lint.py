"""Meta-tests for ``repro-lint``: every rule proven in both directions.

The fixture corpus under ``tests/data/lint_fixtures/`` carries
``# LINT-EXPECT: <RULE>`` markers on each line a rule must flag.  One
parametrized test asserts that the findings for each fixture equal its
marker set *exactly* — so known-bad fixtures prove detection and
known-good fixtures (no markers) prove the absence of false positives.

The remaining tests cover the CLI contract (exit codes, GitHub
annotations, rule selection) and the acceptance bar: the real source tree
lints clean.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_RULES,
    lint_source,
    run_lint,
    rules_by_id,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"

_EXPECT = re.compile(r"#\s*LINT-EXPECT:\s*([A-Za-z0-9_,\s]+)")


def _expected_findings(path: Path) -> set[tuple[int, str]]:
    expected: set[tuple[int, str]] = set()
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                expected.add((number, rule_id.strip()))
    return expected


def _cli(*argv: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


ALL_FIXTURES = sorted(FIXTURES.rglob("*.py"))


def test_fixture_corpus_is_complete() -> None:
    """Every rule has at least one known-bad and one known-good fixture."""
    assert ALL_FIXTURES, "fixture corpus missing"
    flagged_rules = {rule for path in ALL_FIXTURES for _, rule in _expected_findings(path)}
    assert flagged_rules == {rule.id for rule in DEFAULT_RULES}
    good = [path for path in ALL_FIXTURES if not _expected_findings(path)]
    assert {
        "r1_good.py",
        "r4_good.py",
        "r5_good.py",
    } <= {path.name for path in good}


@pytest.mark.parametrize(
    "fixture",
    ALL_FIXTURES,
    ids=[str(path.relative_to(FIXTURES)) for path in ALL_FIXTURES],
)
def test_findings_match_markers_exactly(fixture: Path) -> None:
    """Bad fixtures are fully flagged; good fixtures produce zero findings."""
    actual = {(f.line, f.rule) for f in run_lint([fixture])}
    assert actual == _expected_findings(fixture)


def test_disable_comment_suppresses_findings() -> None:
    """``r1_disabled.py`` repeats a real violation under a disable comment."""
    disabled = FIXTURES / "core" / "r1_disabled.py"
    assert run_lint([disabled]) == []
    # The identical source *without* the disable comment is flagged —
    # proving the fixture's cleanliness comes from the comment alone.
    stripped = disabled.read_text().replace("# repro-lint: disable=R1", "")
    findings = lint_source(stripped, path="core/r1_disabled.py")
    assert [finding.rule for finding in findings] == ["R1"]


def test_disable_comment_suppresses_project_rule_findings() -> None:
    """The same-line escape hatch works for the interprocedural R5 too."""
    disabled = FIXTURES / "r5_disabled.py"
    assert run_lint([disabled]) == []
    stripped = disabled.read_text().replace("# repro-lint: disable=R5", "")
    findings = lint_source(stripped, path="r5_disabled.py")
    assert [finding.rule for finding in findings] == ["R5"]


def test_hot_path_gating() -> None:
    """R1 fires under the hot directories (scenarios included since PR 8)."""
    source = "import numpy as np\n\n\ndef draw():\n    return np.random.rand(3)\n"
    assert [f.rule for f in lint_source(source, path="repro/core/demo.py")] == ["R1"]
    assert [f.rule for f in lint_source(source, path="repro/baselines/demo.py")] == ["R1"]
    assert [f.rule for f in lint_source(source, path="repro/experiments/demo.py")] == ["R1"]
    assert [f.rule for f in lint_source(source, path="repro/scenarios/demo.py")] == ["R1"]
    assert lint_source(source, path="repro/tabular/demo.py") == []


def test_interprocedural_findings_carry_call_chains() -> None:
    """R5 messages name the path that connects entry to violation."""
    r5 = {f.line: f.message for f in run_lint([FIXTURES / "r5_bad.py"])}
    assert "[reached via r5_bad.fit -> r5_bad._entropy_stream]" in r5[19]
    assert "[reached via r5_bad._plane_worker_fit -> r5_bad._worker_noise]" in r5[37]


def test_rule_selection_and_registry() -> None:
    assert [rule.id for rule in DEFAULT_RULES] == ["R1", "R4", "R5"]
    assert [rule.id for rule in rules_by_id(["R4", "R1"])] == ["R4", "R1"]
    for unknown in ("R9", "R2", "R3", "R6"):  # R2, R3 and R6 are retired, not reused
        with pytest.raises(KeyError):
            rules_by_id([unknown])
    # Selecting only R4 must silence the R1 fixture entirely.
    r1_bad = FIXTURES / "core" / "r1_bad.py"
    assert run_lint([r1_bad], rules=rules_by_id(["R4"])) == []


def test_findings_are_sorted_and_formatted() -> None:
    findings = run_lint([FIXTURES])
    ordered = [(f.path, f.line, f.rule) for f in findings]
    assert ordered == sorted(ordered)
    sample = findings[0]
    assert sample.format("text") == (
        f"{sample.path}:{sample.line}: {sample.rule} {sample.message}"
    )
    github = sample.format("github")
    assert github.startswith(f"::error file={sample.path},line={sample.line},")
    assert sample.message in github


def test_cli_exit_codes_and_output() -> None:
    bad = _cli(str(FIXTURES / "core" / "r1_bad.py"))
    assert bad.returncode == 1
    assert " R1 " in bad.stdout
    good = _cli(str(FIXTURES / "core" / "r1_good.py"))
    assert good.returncode == 0
    assert good.stdout == ""


def test_cli_github_format() -> None:
    result = _cli(str(FIXTURES / "r4_bad.py"), "--format=github")
    assert result.returncode == 1
    lines = result.stdout.strip().splitlines()
    assert lines and all(line.startswith("::error file=") for line in lines)


def test_cli_list_rules_and_bad_rule_id() -> None:
    listing = _cli("--list-rules")
    assert listing.returncode == 0
    for rule in DEFAULT_RULES:
        assert rule.id in listing.stdout
    assert "R2" not in listing.stdout
    for unknown_id in ("R9", "R2"):
        unknown = _cli("--rules", unknown_id, "src/repro")
        assert unknown.returncode == 2


def test_exclude_prunes_paths() -> None:
    findings = run_lint([FIXTURES], exclude=[FIXTURES / "core"])
    assert findings and all("core" not in Path(f.path).parts for f in findings)
    result = _cli("tests/data/lint_fixtures/core", "--exclude", "tests/data/lint_fixtures/core")
    assert result.returncode == 0
    assert result.stdout == ""


def test_source_tree_is_clean() -> None:
    """The acceptance bar: the shipped tree audits clean, tests included."""
    targets = [REPO_ROOT / part for part in ("src/repro", "examples", "benchmarks", "tests")]
    findings = run_lint(targets, exclude=[FIXTURES])
    assert findings == [], "\n".join(finding.format() for finding in findings)
