"""The ``repro-lint`` engine: parse files, run rules, filter disables.

The contracts this package audits are *repo-specific* — they encode the
bitwise-identity and worker-boundary discipline documented in
``docs/contracts.md`` rather than general style.  The engine is therefore
deliberately small: a :class:`LintModule` wraps one parsed source file with
the cross-rule conveniences every rule needs (parent links, an import table
for resolving dotted call names, the disable-comment map, hot-path
classification), and a :class:`Rule` yields :class:`Finding` objects.

Nothing here imports numpy or the rest of :mod:`repro`; the auditor must be
runnable in a bare interpreter so CI can lint before heavier dependencies
are even importable.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Finding",
    "HOT_PATH_DIRS",
    "LintModule",
    "LintProject",
    "ProjectRule",
    "Rule",
    "ancestors",
    "dotted_name",
    "iter_python_files",
    "lint_file",
    "lint_project",
    "lint_source",
    "run_lint",
]

#: ``# repro-lint: disable=R1,R4`` (or ``disable=all``) suppresses findings
#: reported on the same source line.
_DISABLE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Directories whose files count as determinism-critical hot paths (R1).
#: ``baselines`` and ``experiments`` joined in PR 7: their outputs feed the
#: paper's comparison tables, so hidden-global draws there corrupt results
#: just as silently as in the optimizer itself.  ``scenarios`` joined with
#: the Monte-Carlo stress harness: its markets seed the golden differential
#: corpus, so an unseeded draw there silently invalidates replay.
HOT_PATH_DIRS = frozenset(
    {"core", "matching", "ranking", "baselines", "experiments", "scenarios"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a ``path:line``."""

    path: str
    line: int
    rule: str
    message: str

    def format(self, style: str = "text") -> str:
        """Render for the terminal (``text``) or as a CI annotation (``github``)."""
        if style == "github":
            return (
                f"::error file={self.path},line={self.line},"
                f"title=repro-lint {self.rule}::{self.message}"
            )
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk parent links (installed by :class:`LintModule`) to the module."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def _build_import_table(tree: ast.Module) -> dict[str, str]:
    """Map local names to the fully dotted import they refer to.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng`` maps ``default_rng -> numpy.random.default_rng``.  Relative
    imports keep their module path without the package prefix, which is
    enough for rules matching on suffixes.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the root name ``a`` only.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            # ``from . import bonus as b`` has no module; the bare name is
            # still a usable suffix for the call graph's dotted-suffix join.
            prefix = f"{node.module}." if node.module else ""
            for alias in node.names:
                table[alias.asname or alias.name] = f"{prefix}{alias.name}"
    return table


def _disabled_lines(source: str) -> dict[int, frozenset[str]]:
    disabled: dict[int, frozenset[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE.search(line)
        if match:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if ids:
                disabled[number] = ids
    return disabled


class LintModule:
    """One parsed source file plus the shared context rules operate on."""

    def __init__(self, path: str | Path, source: str) -> None:
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source, filename=self.path)
        self.tree.parent = None  # type: ignore[attr-defined]
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node  # type: ignore[attr-defined]
        self.imports = _build_import_table(self.tree)
        self.disabled = _disabled_lines(source)
        #: R1 only fires on determinism-critical directories.
        self.is_hot_path = any(part in HOT_PATH_DIRS for part in Path(self.path).parts)

    def resolve_call(self, func: ast.AST) -> str | None:
        """Fully qualified dotted name of a call target, via the import table.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; names rooted in local variables resolve to
        ``None`` (we cannot know what they are, so rules must not guess).
        """
        name = dotted_name(func)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        resolved_root = self.imports.get(root)
        if resolved_root is None:
            return None
        return f"{resolved_root}.{rest}" if rest else resolved_root

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for ancestor in ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def is_disabled(self, finding: Finding) -> bool:
        ids = self.disabled.get(finding.line)
        return bool(ids) and (finding.rule in ids or "all" in ids)


class LintProject:
    """Every parsed module of one lint run, plus the lazily built call graph.

    Module-scoped rules (R1, R4) see one :class:`LintModule` at a time;
    project-scoped rules (R5) see the whole project so they can follow
    calls across files.  A single-file lint (``lint_source``) is simply a
    one-module project, which is what lets the interprocedural rules run on
    the fixture corpus unchanged.
    """

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules = list(modules)
        self.by_path = {module.path: module for module in self.modules}
        self._callgraph = None

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "LintProject":
        """Build a project straight from ``{path: source}`` (test-friendly)."""
        return cls([LintModule(path, source) for path, source in sources.items()])

    @property
    def callgraph(self):
        """The project call graph, built on first use and cached."""
        if self._callgraph is None:
            from .callgraph import CallGraph  # deferred: callgraph imports lint

            self._callgraph = CallGraph(self.modules)
        return self._callgraph


class Rule(abc.ABC):
    """A pluggable contract check.  Subclasses set ``id`` and ``title``."""

    id: str = ""
    title: str = ""
    #: ``"module"`` rules see one file at a time through :meth:`check`;
    #: ``"project"`` rules see every file at once through ``check_project``.
    scope: str = "module"

    @abc.abstractmethod
    def check(self, module: LintModule) -> Iterator[Finding]:
        """Yield findings for one parsed module."""

    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            rule=self.id,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that audits the whole project at once (interprocedural)."""

    scope = "project"

    def check(self, module: LintModule) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError("project-scoped rules run through check_project")

    @abc.abstractmethod
    def check_project(self, project: LintProject) -> Iterator[Finding]:
        """Yield findings across the project's modules."""


def iter_python_files(
    paths: Iterable[str | Path], exclude: Iterable[str | Path] = ()
) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    ``exclude`` entries are path prefixes (files or directories) pruned
    from the expansion — e.g. the deliberately-bad lint fixture corpus.
    """
    pruned = [Path(entry) for entry in exclude]
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = path.rglob("*.py")
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if any(prefix == candidate or prefix in candidate.parents for prefix in pruned):
                continue
            seen.add(candidate)
    return sorted(seen)


def _default_rules() -> Sequence[Rule]:
    from .rules import DEFAULT_RULES

    return DEFAULT_RULES


def lint_project(project: LintProject, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run module- and project-scoped rules over a parsed project."""
    if rules is None:
        rules = _default_rules()
    module_rules = [rule for rule in rules if rule.scope == "module"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    findings: list[Finding] = []
    for module in project.modules:
        for rule in module_rules:
            findings.extend(
                finding
                for finding in rule.check(module)
                if not module.is_disabled(finding)
            )
    for rule in project_rules:
        for finding in rule.check_project(project):
            owner = project.by_path.get(finding.path)
            if owner is None or not owner.is_disabled(finding):
                findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def lint_source(
    source: str,
    path: str | Path = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint a source string as if it lived at ``path`` (drives hot-path R1).

    The string forms a one-module project, so the interprocedural rules see
    whatever call graph the single file defines.
    """
    return lint_project(LintProject([LintModule(path, source)]), rules=rules)


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    source = Path(path).read_text()
    try:
        return lint_source(source, path=path, rules=rules)
    except SyntaxError as error:
        return [_parse_finding(path, error)]


def _parse_finding(path: str | Path, error: SyntaxError) -> Finding:
    return Finding(
        path=str(path),
        line=error.lineno or 1,
        rule="parse",
        message=f"could not parse file: {error.msg}",
    )


def run_lint(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    exclude: Iterable[str | Path] = (),
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` and return sorted findings.

    All parseable files form **one** project, so the interprocedural rules
    (R5) follow calls across every file in the run.
    """
    findings: list[Finding] = []
    modules: list[LintModule] = []
    for path in iter_python_files(paths, exclude=exclude):
        try:
            modules.append(LintModule(path, Path(path).read_text()))
        except SyntaxError as error:
            findings.append(_parse_finding(path, error))
    findings.extend(lint_project(LintProject(modules), rules=rules))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
