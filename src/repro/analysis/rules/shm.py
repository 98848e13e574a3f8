"""R2 — shared-memory lifecycle: every allocation is dominated by cleanup.

``SharedMemory`` segments (and the plane wrapper built on them) are
kernel objects: a Python-level leak leaves a file in ``/dev/shm`` until
reboot.  The contract is that every allocation must be *dominated* by a
``close()``/``unlink()`` on all paths.  Statically we accept the shapes the
codebase actually uses:

* the allocation is a ``with`` item (directly, or the bound name is later
  used as one);
* the allocation is returned directly (``return SharedPopulationPlane(...)``) —
  ownership transfers to the caller;
* the allocation is stored on ``self`` inside a class that defines
  ``close`` — the instance owns the segment;
* the bound name has ``close()``/``unlink()``/``shutdown()`` called inside
  a ``finally`` block or ``except`` handler of the enclosing function;
* the bound name is handed to a cleanup registrar (``ExitStack.
  enter_context``/``callback``/``push``, ``contextlib.closing``,
  ``addfinalizer``, ``atexit.register``).

Anything else — including a plain sequential ``x.close()`` with no
``try``/``finally``, which leaks on any exception in between — is flagged.
This is a heuristic, not a data-flow analysis; genuinely safe exotic shapes
can carry ``# repro-lint: disable=R2`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, LintModule, Rule, ancestors

__all__ = ["ShmLifecycleRule"]

#: Constructor terminals that allocate (or wrap) a shared-memory segment.
_ALLOCATORS = frozenset({"SharedMemory", "SharedPopulationPlane"})

_CLEANUP_METHODS = frozenset({"close", "unlink", "shutdown"})

#: Call terminals that register a deferred cleanup for an argument.
_REGISTRARS = frozenset(
    {"enter_context", "callback", "push", "register", "closing", "addfinalizer"}
)


def _call_terminal(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _assignment_target(call: ast.Call) -> ast.AST | None:
    parent = getattr(call, "parent", None)
    if isinstance(parent, ast.Assign) and parent.value is call and len(parent.targets) == 1:
        return parent.targets[0]
    if isinstance(parent, (ast.AnnAssign, ast.NamedExpr)) and parent.value is call:
        return parent.target
    return None


def _mentions_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )


def _calls_cleanup_on(statements: list[ast.stmt], name: str) -> bool:
    for statement in statements:
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLEANUP_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
    return False


def _name_is_cleaned(scope: ast.AST, name: str) -> bool:
    """Does ``scope`` guarantee cleanup of ``name`` per the accepted shapes?"""
    for node in ast.walk(scope):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _mentions_name(item.context_expr, name):
                    return True
        elif isinstance(node, ast.Try):
            if _calls_cleanup_on(node.finalbody, name):
                return True
            for handler in node.handlers:
                if _calls_cleanup_on(handler.body, name):
                    return True
        elif isinstance(node, ast.Call):
            # ``stack.enter_context(plane)`` / ``stack.callback(plane.close)``
            terminal = _call_terminal(node)
            if terminal in _REGISTRARS and any(
                _mentions_name(arg, name) for arg in node.args
            ):
                return True
    return False


def _class_defines_close(class_def: ast.ClassDef) -> bool:
    return any(
        isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name in {"close", "__exit__", "__del__"}
        for statement in class_def.body
    )


class ShmLifecycleRule(Rule):
    """Flag shared-memory allocations that can escape without cleanup."""

    id = "R2"
    title = "shared-memory lifecycle: close()/unlink() on all paths"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or _call_terminal(node) not in _ALLOCATORS:
                continue
            finding = self._classify(module, node)
            if finding is not None:
                yield finding

    def _classify(self, module: LintModule, call: ast.Call) -> Finding | None:
        label = _call_terminal(call) or "shared-memory segment"
        # Allocated directly as (or inside) a ``with`` item: the context
        # manager owns the lifetime.
        for ancestor in ancestors(call):
            if isinstance(ancestor, ast.withitem):
                return None
            if isinstance(ancestor, ast.stmt):
                break
        parent = getattr(call, "parent", None)
        # ``return Alloc(...)`` transfers ownership to the caller.
        if isinstance(parent, ast.Return):
            return None
        target = _assignment_target(call)
        if target is None:
            return self.finding(
                module,
                call,
                f"{label} allocation is never bound to a name, so nothing "
                "can close() it; use a context manager",
            )
        if isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and (class_def := module.enclosing_class(call)) is not None
                and _class_defines_close(class_def)
            ):
                return None
            return self.finding(
                module,
                call,
                f"{label} allocation stored on an attribute of a class with "
                "no close()/__exit__; the owning object must expose cleanup",
            )
        if isinstance(target, ast.Name):
            scope = module.enclosing_function(call) or module.tree
            # Ownership transfer: the bound name is returned somewhere in
            # the same function.
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == target.id
                ):
                    return None
            if _name_is_cleaned(scope, target.id):
                return None
            return self.finding(
                module,
                call,
                f"{label} allocation bound to {target.id!r} has no "
                "close()/unlink() on all paths; use a context manager, "
                "try/finally, or a registered cleanup",
            )
        return self.finding(
            module,
            call,
            f"{label} allocation uses a binding shape repro-lint cannot "
            "verify; bind to a plain name with guaranteed cleanup",
        )
