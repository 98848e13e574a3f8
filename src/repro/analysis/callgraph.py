"""A conservative project call graph for the interprocedural lint rules.

R5 (rng-lineage) needs to reason across function boundaries: a global RNG
draw hidden two helpers below ``DCA.fit`` is invisible to the per-function
rules, but trivially reachable here.  The
graph is built from the same parsed :class:`~repro.analysis.lint.LintModule`
trees the per-module rules use, and resolution is deliberately
*conservative*: an edge exists only when the target can be named statically.

Resolution rules (documented limits in ``docs/contracts.md``):

* plain names resolve to same-module ``def``s/classes, then through the
  module's import table (``from .bonus import compensate_scores``) by
  dotted-suffix match against every indexed definition;
* ``self.method()`` / ``cls.method()`` resolve within the enclosing class
  (base classes are not searched);
* ``ClassName(...)`` adds an edge to ``ClassName.__init__`` when one exists,
  and so does ``cls(...)`` inside a method of ``ClassName``;
* local variables and parameters resolve through one level of type
  inference: ``obj = ClassName(...)`` and ``obj = ClassName.from_x(...)``
  (``from_x`` a classmethod: an alternate constructor) assignments and
  ``param: ClassName`` annotations make ``obj.method()`` resolve to
  ``ClassName.method``;
* anything else — dynamic dispatch, containers of callables, attributes of
  unknown objects — stays *unresolved* and produces no edge.

Calls inside nested functions and lambdas are attributed to the enclosing
top-level function or method (over-approximate: the nested function is
assumed to run), so reachability never misses a draw hidden in a closure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .lint import LintModule, dotted_name

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "module_name_for_path",
]


def module_name_for_path(path: str | Path) -> str:
    """Dotted module name for a source path, anchored at the package root.

    ``src/repro/core/dca.py`` becomes ``repro.core.dca``; paths outside a
    ``repro`` package (lint fixtures, tests) fall back to their directory
    parts joined from the last recognizable root, or just the file stem.
    """
    parts = list(Path(path).parts)
    if not parts:
        return "<module>"
    stem = Path(parts[-1]).stem
    parts[-1] = stem
    if "repro" in parts[:-1] or stem == "repro":
        anchor = parts.index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["<module>"]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


@dataclass
class FunctionInfo:
    """One indexed ``def``: its qualified name, owning module, and AST node."""

    qualname: str
    module: LintModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    callees: dict[str, int] = field(default_factory=dict)  # qualname -> first line

    @property
    def terminal(self) -> str:
        """The bare function name (last qualname component)."""
        return self.qualname.rsplit(".", 1)[-1]


class CallGraph:
    """Static call graph over a set of parsed modules.

    ``functions`` maps qualified names (``repro.core.dca.DCA.fit``) to
    :class:`FunctionInfo`; ``reachable_from`` walks edges breadth-first and
    returns the shortest call chain to every reachable function, which the
    interprocedural rules embed in their finding messages.
    """

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, set[str]] = {}  # class qualname -> method names
        self._by_terminal: dict[str, list[str]] = {}
        for module in modules:
            self._index_module(module)
        for info in self.functions.values():
            self._link_function(info)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: LintModule) -> None:
        module_name = module_name_for_path(module.path)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(f"{module_name}.{node.name}", module, node, None)
            elif isinstance(node, ast.ClassDef):
                class_qual = f"{module_name}.{node.name}"
                methods: set[str] = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.add(item.name)
                        self._add_function(
                            f"{class_qual}.{item.name}", module, item, node.name
                        )
                self.classes[class_qual] = methods

    def _add_function(
        self,
        qualname: str,
        module: LintModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        info = FunctionInfo(qualname, module, node, class_name)
        self.functions[qualname] = info
        self._by_terminal.setdefault(info.terminal, []).append(qualname)

    # ------------------------------------------------------------------
    # Edge building
    # ------------------------------------------------------------------
    def _match(self, dotted: str) -> list[str]:
        """Indexed qualnames matching ``dotted`` exactly or by dotted suffix.

        Import tables built from relative imports carry names without the
        package prefix (``bonus.compensate_scores``), so a suffix match with
        a dot boundary is the correct join against fully qualified names.
        """
        terminal = dotted.rsplit(".", 1)[-1]
        matches: list[str] = []
        for qualname in self._by_terminal.get(terminal, ()):
            if qualname == dotted or qualname.endswith("." + dotted):
                matches.append(qualname)
        for class_qual in self._match_classes(dotted):
            init = f"{class_qual}.__init__"
            if init in self.functions:
                matches.append(init)
        return matches

    def _match_classes(self, dotted: str) -> list[str]:
        return [
            class_qual
            for class_qual in self.classes
            if class_qual == dotted or class_qual.endswith("." + dotted)
        ]

    def _infer_local_types(self, info: FunctionInfo) -> dict[str, str]:
        """Map local names to class qualnames via assignments and annotations."""
        types: dict[str, str] = {}
        arguments = info.node.args
        for arg in [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]:
            if arg.annotation is None:
                continue
            annotation = arg.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                annotation = _parse_annotation_string(annotation.value)
            name = dotted_name(annotation) if annotation is not None else None
            if name is None:
                continue
            resolved = self._resolve_through_imports(info.module, name)
            for class_qual in self._match_classes(resolved):
                types[arg.arg] = class_qual
                break
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            callee = dotted_name(node.value.func)
            if callee is None:
                continue
            resolved = self._resolve_through_imports(info.module, callee)
            classes = self._match_classes(resolved) or self._constructed_by(resolved)
            if not classes:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = classes[0]
        return types

    def _constructed_by(self, dotted: str) -> list[str]:
        """Classes ``dotted`` names a classmethod of (``Cls.from_x``): alternate constructors."""
        owner, _, method = dotted.rpartition(".")
        if not owner:
            return []
        return [
            class_qual
            for class_qual in self._match_classes(owner)
            if method in self.classes[class_qual]
            and any(
                dotted_name(decorator) == "classmethod"
                for decorator in self.functions[f"{class_qual}.{method}"].node.decorator_list
            )
        ]

    @staticmethod
    def _resolve_through_imports(module: LintModule, dotted: str) -> str:
        root, _, rest = dotted.partition(".")
        resolved_root = module.imports.get(root)
        if resolved_root is None:
            return dotted
        return f"{resolved_root}.{rest}" if rest else resolved_root

    def _link_function(self, info: FunctionInfo) -> None:
        module_name = module_name_for_path(info.module.path)
        local_types = self._infer_local_types(info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self._resolve_call(info, module_name, local_types, node):
                info.callees.setdefault(callee, node.lineno)

    def _resolve_call(
        self,
        info: FunctionInfo,
        module_name: str,
        local_types: Mapping[str, str],
        call: ast.Call,
    ) -> list[str]:
        name = dotted_name(call.func)
        if name is None:
            return []
        parts = name.split(".")
        # cls(...) inside a classmethod constructs the enclosing class.
        if parts == ["cls"] and info.class_name:
            init = f"{module_name}.{info.class_name}.__init__"
            return [init] if init in self.functions else []
        # self.method() / cls.method(): resolve within the enclosing class.
        if parts[0] in ("self", "cls") and len(parts) == 2 and info.class_name:
            candidate = f"{module_name}.{info.class_name}.{parts[1]}"
            if candidate in self.functions:
                return [candidate]
            return []
        # obj.method() through one level of local type inference.
        if len(parts) >= 2 and parts[0] in local_types:
            candidate = f"{local_types[parts[0]]}.{'.'.join(parts[1:])}"
            if candidate in self.functions:
                return [candidate]
            return []
        # Same-module definition (function, method on a local class, or class
        # instantiation).
        local = self._match(f"{module_name}.{name}")
        if local:
            return local
        # Through the import table, by dotted-suffix match.
        resolved = self._resolve_through_imports(info.module, name)
        if resolved != name or len(parts) == 1:
            return self._match(resolved)
        return []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def functions_named(self, terminal: str) -> list[FunctionInfo]:
        """Every indexed function whose bare name is ``terminal``."""
        return [self.functions[q] for q in self._by_terminal.get(terminal, ())]

    def callees_of(self, qualname: str) -> Iterator[CallSite]:
        info = self.functions.get(qualname)
        if info is None:
            return
        for callee, line in sorted(info.callees.items()):
            yield CallSite(qualname, callee, line)

    def reachable_from(self, entries: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """Shortest call chain (entry first) to every reachable function.

        Cycle-safe breadth-first walk; each function appears once with the
        first (shortest) chain that reached it.
        """
        chains: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in self.functions and entry not in chains:
                chains[entry] = (entry,)
                queue.append(entry)
        cursor = 0
        while cursor < len(queue):
            current = queue[cursor]
            cursor += 1
            for callee in sorted(self.functions[current].callees):
                if callee not in chains:
                    chains[callee] = chains[current] + (callee,)
                    queue.append(callee)
        return chains


def _parse_annotation_string(text: str) -> ast.AST | None:
    """Parse a string annotation (``"DCAConfig"``) into an expression node."""
    try:
        parsed = ast.parse(text, mode="eval")
    except SyntaxError:
        return None
    return parsed.body
