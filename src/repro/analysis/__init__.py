"""Static analysis for simulation correctness (``simlint``).

The reproduction's claims — model-vs-DES agreement, bit-identical
replay, paper-matching ``t = D/T`` numbers — rest on
invariants the runtime never checks: seed-driven determinism, canonical
units from :mod:`repro.units`, explicit NumPy dtypes, and the typed
:class:`~repro.errors.ReproError` hierarchy.  This package enforces them
mechanically with a small, self-contained ``ast``-based lint framework:

* a rule registry (:mod:`repro.analysis.core`) with one module per rule
  under :mod:`repro.analysis.rules`;
* a per-file driver (:mod:`repro.analysis.driver`) that parses each file
  once and runs every rule whose scope covers it;
* inline ``# simlint: disable=RULE`` suppressions
  (:mod:`repro.analysis.suppress`);
* text / JSON reporters (:mod:`repro.analysis.reporters`).

It is exposed as the ``repro lint`` CLI subcommand and runs self-hosted
over ``src/repro`` in CI (see ``tests/test_self_lint.py``), so every
future change is checked automatically.  ``docs/ANALYSIS.md`` documents
each rule, the seeded defects each one catches, and how to add one.
"""

from __future__ import annotations

from .. import _attach

__all__ = [
    "Finding",
    "Rule",
    "LintResult",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".core": ("Finding", "Rule", "all_rules", "get_rule"),
        ".driver": ("LintResult", "lint_paths", "lint_source"),
        ".reporters": ("render_json", "render_text"),
    },
)
