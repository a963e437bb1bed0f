"""SPAN001 — span hygiene (tracer spans must be entered, never leaked).

``tracer.span(...)`` returns a context manager; the duration is only
recorded between ``__enter__`` and ``__exit__``.  A span created but
never entered records nothing (silently missing data), and a span
returned from a function escapes its stack discipline — nesting and
self-time attribution break for every caller.

The rule is syntactic per function: span-creating calls are fine as a
``with`` item or inside ``ExitStack.enter_context``; flagged when the
call is a bare expression statement, is returned, or is bound to a
name that is never subsequently entered in the same function.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, register

__all__ = ["SpanHygieneRule"]

#: Receiver names that identify a tracer object ("tracer", "_tracer",
#: "self._sim_tracer", a ``with_clock``/``get_tracer`` result, ...).
_TRACER_CALLS = {"with_clock", "get_tracer", "Tracer"}

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_tracer_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return "tracer" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "tracer" in node.attr.lower() or _is_tracer_receiver(node.value)
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else ""
        )
        return name in _TRACER_CALLS
    return False


def _is_span_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "span"
        and _is_tracer_receiver(node.func.value)
    )


def _is_enter_context(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("enter_context", "enter_async_context")
    )


def _own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.stmt]:
    """Statements of the function body, not descending into nested defs."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (*_FunctionNode, ast.ClassDef)):
            continue  # nested definitions are checked on their own
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    grand
                    for grand in ast.walk(child)
                    if isinstance(grand, ast.stmt)
                )
    return out


@register
class SpanHygieneRule(Rule):
    """SPAN001: tracer spans record nothing unless entered via `with`."""

    id = "SPAN001"
    title = "Span hygiene"
    rationale = (
        "A tracer span that is never entered records nothing, and one "
        "leaked across a return breaks stack discipline for every "
        "caller; spans live inside `with` blocks."
    )
    default_excludes = ("tracer.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FunctionNode):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        statements = _own_statements(func)
        entered: set[str] = set()
        created: dict[str, ast.stmt] = {}

        # First pass: which names are entered (with item / enter_context)?
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        entered.add(expr.id)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_enter_context(node):
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            entered.add(arg.id)

        # Second pass: classify every span-creating call site.
        for stmt in statements:
            if isinstance(stmt, ast.Return):
                if stmt.value is not None and _is_span_call(stmt.value):
                    yield ctx.finding(
                        self,
                        stmt,
                        "span leaked across a return; enter it in a `with` "
                        "block instead of handing the context manager out",
                    )
                continue
            if isinstance(stmt, ast.Expr) and _is_span_call(stmt.value):
                yield ctx.finding(
                    self,
                    stmt,
                    "span created but never entered; wrap the call in a "
                    "`with` block or it records nothing",
                )
                continue
            if isinstance(stmt, ast.Assign) and _is_span_call(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        created[target.id] = stmt
            elif (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and _is_span_call(stmt.value)
                and isinstance(stmt.target, ast.Name)
            ):
                created[stmt.target.id] = stmt

        for name, stmt in created.items():
            if name not in entered:
                yield ctx.finding(
                    self,
                    stmt,
                    f"span bound to {name!r} but never entered in this "
                    "function; enter it via `with` or "
                    "`stack.enter_context(...)`",
                )
