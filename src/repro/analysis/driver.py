"""The lint driver: walk paths, parse each file once, run the rules.

The driver is deliberately simple — parse, build the shared
:class:`~repro.analysis.core.FileContext`, hand the tree to every rule
whose scope covers the file, then mark findings covered by inline
directives as suppressed.  Exit-code policy lives here too:
:meth:`LintResult.exit_code` is non-zero iff any *unsuppressed* finding
exists, which is exactly what CI and the self-hosting test enforce.

Scope is code, not configuration: :data:`EXCLUDE` carves test and
benchmark code out of every rule, and each rule's ``default_paths`` /
``default_excludes`` say where it applies.  Path entries are matched
against the POSIX form of each file path: a bare fragment ``"sim"``
matches any file under a directory named ``sim`` (or a file of that
name); anything containing a glob character is an ``fnmatch`` pattern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath
from typing import Iterator, Sequence

from .core import AnalysisError, FileContext, Finding, Rule, all_rules, collect_aliases
from .suppress import parse_suppressions

__all__ = ["EXCLUDE", "LintResult", "lint_paths", "lint_source"]

#: Paths no rule applies to: test and benchmark code.
EXCLUDE = ("*/tests/*", "tests/*", "*/benchmarks/*", "benchmarks/*")


@dataclass
class LintResult:
    """All findings of one lint run, plus what was scanned."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings that count against the exit code."""
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings silenced by an inline directive."""
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def exit_code(self) -> int:
        """0 when clean (unsuppressed-wise), 1 otherwise."""
        return 1 if self.unsuppressed else 0


def _match_one(path: PurePosixPath, pattern: str) -> bool:
    """Match ``pattern`` against ``path`` (fragment or fnmatch glob)."""
    if any(ch in pattern for ch in "*?["):
        return fnmatch(str(path), pattern)
    return pattern in path.parts[:-1] or path.name == pattern


def _matches(path: str, patterns: tuple[str, ...]) -> bool:
    posix = PurePosixPath(Path(path).as_posix())
    return any(_match_one(posix, pattern) for pattern in patterns)


def _rule_applies(rule: Rule, path: str) -> bool:
    """Whether ``rule`` runs on ``path``: outside :data:`EXCLUDE`, inside
    the rule's ``default_paths`` (when set), outside its ``default_excludes``."""
    if _matches(path, EXCLUDE):
        return False
    if rule.default_paths and not _matches(path, rule.default_paths):
        return False
    return not _matches(path, rule.default_excludes)


def _iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path
        else:
            raise AnalysisError(f"no such file or directory: {path}")


def _check_file(path_label: str, source: str, rules: list[Rule]) -> list[Finding]:
    try:
        tree = ast.parse(source, filename=path_label)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PARSE",
                message=f"file does not parse: {exc.msg}",
                path=path_label,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            )
        ]
    ctx = FileContext(
        path=path_label,
        source=source,
        tree=tree,
        aliases=collect_aliases(tree),
    )
    suppressions = parse_suppressions(source)
    findings: list[Finding] = []
    for rule in rules:
        if not _rule_applies(rule, path_label):
            continue
        for finding in rule.check(ctx):
            if suppressions.covers(finding.rule, finding.line):
                finding = finding.suppress()
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>") -> LintResult:
    """Lint one in-memory module (the unit-test entry point).

    Rule scoping still applies, so a test that wants a rule to fire
    passes a ``path`` inside the rule's scope.
    """
    result = LintResult(files_scanned=1)
    result.findings = _check_file(path, source, all_rules())
    return result


def lint_paths(paths: Sequence[Path | str]) -> LintResult:
    """Lint files and directory trees; the CLI's workhorse."""
    rules = all_rules()
    result = LintResult()
    for path in _iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        result.files_scanned += 1
        result.findings.extend(_check_file(path.as_posix(), source, rules))
    return result
