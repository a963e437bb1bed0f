"""Core lint types: findings, rule protocol, and the rule registry.

A *rule* is a class with an id, human-facing metadata, and a ``check``
method that walks a parsed module and yields :class:`Finding` objects.
Rules register themselves on import via the :func:`register` decorator;
:func:`all_rules` and :func:`get_rule` import :mod:`repro.analysis.rules`,
whose package init imports every rule module, so the registry is
complete whichever module was imported first.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterator, Type

from ..errors import ReproError

__all__ = [
    "AnalysisError",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
]


class AnalysisError(ReproError, ValueError):
    """The lint framework was configured or invoked incorrectly."""


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source location.

    ``suppressed`` is set by the driver when an inline
    ``# simlint: disable=RULE`` comment covers the finding's line;
    suppressed findings are kept (reporters can show them) but never
    affect the exit code.
    """

    rule: str
    message: str
    path: str
    line: int
    col: int
    suppressed: bool = False

    def suppress(self) -> "Finding":
        """A copy of this finding marked as suppressed."""
        return replace(self, suppressed=True)

    def location(self) -> str:
        """``path:line:col`` — the clickable anchor used by reporters."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileContext:
    """Everything a rule may need about the file under analysis.

    ``path`` is the path as given to the driver (kept verbatim so
    reporters echo what the user typed); ``source`` the decoded text;
    ``tree`` the parsed module.  ``aliases`` maps local names to the
    canonical module they were imported as (``np`` -> ``numpy``), built
    once per file by the driver because several rules need it.
    """

    path: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Build a finding for ``node`` in this file."""
        return Finding(
            rule=rule.id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``default_paths`` limits where the rule applies (glob fragments
    matched against the file's POSIX path, e.g. ``"sim"`` matches any
    file under a ``sim/`` directory); an empty tuple means everywhere.
    ``default_excludes`` carves out files even inside the scope.
    """

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    default_paths: ClassVar[tuple[str, ...]] = ()
    default_excludes: ClassVar[tuple[str, ...]] = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for the file; override in subclasses."""
        raise NotImplementedError  # pragma: no cover
        yield  # pragma: no cover


_REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not cls.id:
        raise AnalysisError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    from . import rules as _rules  # noqa: F401  (imports populate the registry)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    from . import rules as _rules  # noqa: F401

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown rule id {rule_id!r}") from None


def dotted_name(node: ast.AST) -> tuple[str, ...]:
    """The dotted-name chain of an expression (``np.random.rand`` ->
    ``("np", "random", "rand")``), or ``()`` if it is not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical imported module/object names.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` ->
    ``{"dt": "datetime.datetime"}``.  Only top-level and function-level
    imports are seen (anywhere in the tree), which is what the rules need.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def canonical_chain(
    node: ast.AST, aliases: dict[str, str]
) -> tuple[str, ...]:
    """Dotted chain with the leading name resolved through imports.

    ``np.random.rand`` with ``{"np": "numpy"}`` becomes
    ``("numpy", "random", "rand")``.
    """
    chain = dotted_name(node)
    if not chain:
        return ()
    head = aliases.get(chain[0])
    if head is None:
        return chain
    return tuple(head.split(".")) + chain[1:]
