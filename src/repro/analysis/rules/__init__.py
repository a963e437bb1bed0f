"""Rule modules; importing this package populates the registry.

Each module defines one rule class decorated with
:func:`repro.analysis.core.register`.  To add a rule, drop a module here,
import it below, and document it in ``docs/ANALYSIS.md`` (the docs file
is cross-checked by ``tests/test_analysis_rules.py``).
"""

from __future__ import annotations

# Eager, unlike the other package namespaces: these imports are what
# registers the rules, so a lazy namespace would leave the registry empty.
from . import (  # noqa: F401
    dtypes,
    errors_rule,
    floats,
    obs_rule,
    spans,
    units_rule,
)

__all__ = [
    "dtypes",
    "errors_rule",
    "floats",
    "obs_rule",
    "spans",
    "units_rule",
]
