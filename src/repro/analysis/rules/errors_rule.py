"""ERR001 — exception hygiene: no swallowing, no bare builtin raises.

``repro.errors`` gives every library failure a typed home under
:class:`~repro.errors.ReproError`, so callers can catch package errors
with one clause while programming errors (``TypeError``,
``NotImplementedError``, ``AssertionError``) propagate.  Two patterns
break that contract:

* a bare ``except:`` (catches ``KeyboardInterrupt``/``SystemExit``), or
  an ``except Exception:`` whose body neither re-raises nor records the
  exception — failures vanish instead of surfacing as typed errors;
* ``raise ValueError(...)`` and friends where a ``ReproError`` subclass
  fits (``ConfigError``, ``ModelError``, ``SimulationError``, ...).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, register

__all__ = ["ExceptionHygieneRule"]

#: Builtin exception types that should be a repro.errors subclass when
#: raised from library code.  Deliberately excludes the programming-error
#: family (TypeError, NotImplementedError, AssertionError, StopIteration)
#: which repro.errors documents as pass-through.
_BUILTIN_RAISES = {
    "ValueError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "IOError",
    "OSError",
    "ArithmeticError",
    "LookupError",
    "Exception",
    "BaseException",
}


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler's body discards the exception entirely."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
    if handler.name is not None:
        # The exception is bound; if the body reads it, it is recorded.
        for node in ast.walk(handler):
            if isinstance(node, ast.Name) and node.id == handler.name:
                return False
    # A handler that returns/continues with real work may legitimately
    # recover; only flag bodies that are pure no-ops.
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
        for stmt in handler.body
    )


@register
class ExceptionHygieneRule(Rule):
    """Flag swallowed exceptions and raises of builtin exception types."""

    id = "ERR001"
    title = "exception hygiene"
    rationale = (
        "Library failures must surface as typed ReproError subclasses; "
        "swallowed exceptions and anonymous builtin raises hide them "
        "from callers."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)

    def _check_handler(
        self, ctx: FileContext, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if handler.type is None:
            yield ctx.finding(
                self,
                handler,
                "bare 'except:' catches KeyboardInterrupt/SystemExit; catch "
                "a ReproError subclass (or at most Exception) explicitly",
            )
            return
        names = set()
        if isinstance(handler.type, ast.Name):
            names.add(handler.type.id)
        elif isinstance(handler.type, ast.Tuple):
            names.update(
                elt.id for elt in handler.type.elts if isinstance(elt, ast.Name)
            )
        if names & {"Exception", "BaseException"} and _swallows(handler):
            yield ctx.finding(
                self,
                handler,
                "'except Exception:' that swallows; re-raise, record, or "
                "catch the specific ReproError subclass",
            )

    def _check_raise(
        self, ctx: FileContext, node: ast.Raise
    ) -> Iterator[Finding]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in _BUILTIN_RAISES:
            yield ctx.finding(
                self,
                node,
                f"raise of builtin {exc.id}; use a repro.errors subclass "
                "(ConfigError, ModelError, SimulationError, ...) so callers "
                "can catch typed package errors",
            )
