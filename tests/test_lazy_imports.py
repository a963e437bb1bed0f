"""Lazy package namespaces: what an import loads, and what a name resolves to.

Every package ``__init__`` maps its ``__all__`` names to the submodules
that define them and imports a submodule only on first access (PEP 562),
so a run loads the modules it uses and no others.  These tests pin both
halves of that contract: the import footprint of the paths people run,
and that every public spelling still resolves to the defining object.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Subsystems the evaluation and its CLI never use.
UNUSED_BY_EVALUATION = (
    "repro.bench",
    "repro.analysis",
    "yaml",
)

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def loaded_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def under(modules: list[str], roots: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)]


class TestImportFootprint:
    def test_bare_import_loads_no_subpackage(self):
        assert under(loaded_after("import repro"), ("repro",)) == ["repro"]

    def test_evaluation_path_skips_unused_subsystems(self):
        modules = loaded_after(
            "import repro.graph.datasets, repro.core.suite, repro.systems, "
            "repro.workloads"
        )
        assert under(modules, UNUSED_BY_EVALUATION) == []

    @pytest.mark.parametrize(
        "argv", [["--help"], ["evaluate", "--scale", "8"]], ids=["help", "evaluate"]
    )
    def test_cli_skips_unused_subsystems(self, argv):
        modules = loaded_after(
            "from repro.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit:\n"
            "    pass"
        )
        assert under(modules, UNUSED_BY_EVALUATION) == []


def defined_in_package(package, name, value) -> bool:
    """Whether ``value`` is the object a submodule of ``package`` binds."""
    if inspect.ismodule(value):
        return value.__name__ == f"{package.__name__}.{name}"
    if getattr(value, "__module__", None) == package.__name__:
        return True  # defined in the package body (repro.workloads.build_engine)
    prefix = package.__name__ + "."
    return any(
        vars(module).get(name) is value
        for key, module in list(sys.modules.items())
        if key.startswith(prefix) and not hasattr(module, "__path__")
    )


class TestNamespaceParity:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_listed_and_resolved(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))
        for attr in package.__all__:
            if attr == "__version__":
                continue  # a plain string assigned in repro/__init__.py
            value = getattr(package, attr)
            assert defined_in_package(package, attr, value), f"{name}.{attr}"
        with pytest.raises(AttributeError) as excinfo:
            getattr(package, "no_such_name")
        assert str(excinfo.value) == f"module {name!r} has no attribute 'no_such_name'"

    def test_public_spellings_resolve_to_defining_objects(self):
        from repro import load_dataset, systems
        from repro.core import predict_runtime
        from repro.core.runtime_model import predict_runtime as defined
        from repro.graph.datasets import load_dataset as loader

        assert load_dataset is loader
        assert predict_runtime is defined
        assert repro.core.predict_runtime is defined
        assert systems is importlib.import_module("repro.systems")

    @pytest.mark.parametrize("name", ["bfs", "kcore", "pagerank"])
    def test_submodule_named_exports_stay_functions(self, name):
        module = importlib.import_module(f"repro.traversal.{name}")
        import repro.traversal as traversal

        assert inspect.isfunction(getattr(traversal, name))
        assert getattr(traversal, name) is getattr(module, name)
