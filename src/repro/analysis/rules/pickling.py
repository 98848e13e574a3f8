"""R4 — worker-boundary pickling: process pools take descriptors only.

Work submitted to a *process* pool crosses a pickle boundary.  Lambdas and
nested functions do not pickle at all; bound methods drag their whole
instance across; and passing a ``Table``/cohort as an argument re-pickles
megabytes per task, where the population plane reaches each worker once,
through the pool initializer.  The contract is: module-level functions plus
plain job *descriptors* (names, indices, seeds).

Thread pools share an address space, so closures over tables are legal
there — ``ThreadPoolExecutor`` is deliberately exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..lint import Finding, LintModule, Rule, ancestors

__all__ = ["WorkerPicklingRule"]

#: Constructor terminals that create a *process* pool.
_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool"})

#: Pool methods whose first argument is a callable shipped to workers.
_SUBMIT_METHODS = frozenset(
    {
        "submit",
        "map",
        "apply",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

#: Argument names that indicate a whole table/cohort crossing the boundary.
_HEAVY_NAMES = frozenset({"table", "cohort"})


def _pool_ctor(call: ast.Call) -> bool:
    if isinstance(call.func, ast.Name):
        return call.func.id in _POOL_CTORS
    if isinstance(call.func, ast.Attribute):
        return call.func.attr in _POOL_CTORS
    return False


@dataclass(frozen=True)
class _Binding:
    kind: str  # "name" (local/with-as) or "attr" (self.<attr>)
    ident: str
    scope: ast.AST  # node within which the binding is authoritative


def _within(node: ast.AST, scope: ast.AST) -> bool:
    return scope is node or any(ancestor is scope for ancestor in ancestors(node))


class WorkerPicklingRule(Rule):
    """Flag unpicklable or heavyweight submissions to process pools."""

    id = "R4"
    title = "worker boundary: module-level functions + descriptors only"

    def check(self, module: LintModule) -> Iterator[Finding]:
        bindings = self._pool_bindings(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _pool_ctor(node):
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        yield from self._check_callable(module, node, keyword.value)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and self._is_bound_pool(module, node, node.func.value, bindings)
            ):
                if node.args:
                    yield from self._check_callable(module, node, node.args[0])
                for argument in node.args[1:]:
                    yield from self._check_payload(module, node, argument)
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        yield from self._check_payload(module, node, keyword.value)

    # -- pool discovery ------------------------------------------------
    def _pool_bindings(self, module: LintModule) -> list[_Binding]:
        bindings: list[_Binding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and _pool_ctor(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        bindings.append(_Binding("name", item.optional_vars.id, node))
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _pool_ctor(node.value)
                and len(node.targets) == 1
            ):
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    scope = module.enclosing_function(node) or module.tree
                    bindings.append(_Binding("name", target.id, scope))
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    scope = module.enclosing_class(node) or module.tree
                    bindings.append(_Binding("attr", target.attr, scope))
        return bindings

    def _is_bound_pool(
        self,
        module: LintModule,
        call: ast.Call,
        receiver: ast.AST,
        bindings: list[_Binding],
    ) -> bool:
        if isinstance(receiver, ast.Name):
            return any(
                binding.kind == "name"
                and binding.ident == receiver.id
                and _within(call, binding.scope)
                for binding in bindings
            )
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            return any(
                binding.kind == "attr"
                and binding.ident == receiver.attr
                and _within(call, binding.scope)
                for binding in bindings
            )
        return False

    # -- submission checks ---------------------------------------------
    def _check_callable(
        self, module: LintModule, site: ast.Call, fn: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(fn, ast.Lambda):
            yield self.finding(
                module,
                site,
                "lambda submitted to a process pool cannot pickle; "
                "use a module-level function",
            )
        elif isinstance(fn, ast.Name):
            enclosing = module.enclosing_function(site)
            if enclosing is not None:
                for node in ast.walk(enclosing):
                    if (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node is not enclosing
                        and node.name == fn.id
                    ):
                        yield self.finding(
                            module,
                            site,
                            f"nested function {fn.id!r} submitted to a process "
                            "pool closes over local state and cannot pickle; "
                            "hoist it to module level and pass descriptors",
                        )
                        break
        elif (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "self"
        ):
            yield self.finding(
                module,
                site,
                f"bound method self.{fn.attr} submitted to a process pool "
                "pickles the whole instance; use a module-level function",
            )
        elif isinstance(fn, ast.Call) and module.resolve_call(fn.func) == "functools.partial":
            if fn.args:
                yield from self._check_callable(module, site, fn.args[0])

    def _check_payload(
        self, module: LintModule, site: ast.Call, argument: ast.AST
    ) -> Iterator[Finding]:
        heavy: str | None = None
        if isinstance(argument, ast.Name) and argument.id in _HEAVY_NAMES:
            heavy = argument.id
        elif isinstance(argument, ast.Attribute) and argument.attr in _HEAVY_NAMES:
            heavy = argument.attr
        if heavy is not None:
            yield self.finding(
                module,
                site,
                f"{heavy!r} passed across a process-pool boundary re-pickles "
                "the whole object per task; pass a job descriptor and "
                "hand the data over once, through the pool initializer",
            )
