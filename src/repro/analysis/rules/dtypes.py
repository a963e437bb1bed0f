"""DTYPE001 — NumPy allocations must pass an explicit ``dtype=``.

``np.zeros(n)`` defaults to float64, but ``np.arange(n)`` and
``np.full(n, 0)`` default to the *platform C long* — 32-bit on Windows
and some embedded builds.  Index math over graphs with more than 2^31
edges then overflows silently, corrupting CSR offsets and traversal
results; the paper's datasets (Friendster: 3.6 B edges) are exactly in
that regime.  Inside the simulation packages every allocation therefore
states its dtype, making the width a reviewed decision instead of a
platform accident.

Scope: ``sim/``, ``traversal/``, ``gpu/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, canonical_chain, register

__all__ = ["ExplicitDtypeRule"]

_ALLOCATORS = {"zeros", "empty", "arange", "full", "ones"}


@register
class ExplicitDtypeRule(Rule):
    """Flag NumPy allocations that omit an explicit ``dtype=``."""

    id = "DTYPE001"
    title = "dtype-less NumPy allocation"
    rationale = (
        "np.arange/np.full default to the platform C long; >2^31-edge "
        "index math silently overflows on 32-bit-long platforms, so "
        "simulation-package allocations must state their dtype."
    )
    default_paths = ("sim", "traversal", "gpu")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = canonical_chain(node.func, ctx.aliases)
            if len(chain) != 2 or chain[0] != "numpy":
                continue
            if chain[1] not in _ALLOCATORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # np.arange accepts dtype positionally as its 4th argument;
            # the other allocators take it as keyword-only in practice.
            if chain[1] == "arange" and len(node.args) >= 4:
                continue
            yield ctx.finding(
                self,
                node,
                f"np.{chain[1]}(...) without an explicit dtype=; platform-"
                "dependent integer width corrupts >2^31-edge index math",
            )
