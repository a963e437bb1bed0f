"""Per-rule fixtures for the simulation-correctness linter.

Every rule gets at least one positive fixture (the target snippet must
be caught) and one negative fixture (the corrected version must stay
silent), plus suppression handling and golden text/JSON output shapes.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.core import all_rules, get_rule
from repro.analysis.reporters import render_json, render_text

# Paths chosen to fall inside each rule's default scope.
SIM_PATH = "src/repro/sim/example.py"
ENGINE_PATH = "src/repro/engine/example.py"
CORE_PATH = "src/repro/core/example.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def findings_for(source, path=CORE_PATH, rule=None):
    result = lint_source(source, path=path)
    found = result.unsuppressed
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# -- UNIT001 -----------------------------------------------------------------


class TestUNIT001:
    def test_catches_magic_time_conversion(self):
        src = "def f(seconds):\n    return seconds * 1e6\n"
        (finding,) = findings_for(src, rule="UNIT001")
        assert "USEC" in finding.message or "MIOPS" in finding.message

    def test_catches_magic_size_division(self):
        src = "def f(n):\n    return n / 1_000_000_000\n"
        (finding,) = findings_for(src, rule="UNIT001")
        assert "GB" in finding.message

    def test_allows_units_constants(self):
        src = (
            "from repro.units import USEC, to_usec\n"
            "def f(seconds):\n"
            "    return to_usec(seconds) + 2 * USEC\n"
        )
        assert not findings_for(src, rule="UNIT001")

    def test_tolerance_defaults_are_not_conversions(self):
        src = "def f(x, tol=1e-6):\n    return abs(x) < tol\n"
        assert not findings_for(src, rule="UNIT001")

    def test_units_module_itself_is_exempt(self):
        src = "USEC = 1e-6\nMB_PER_S = 1.0 * 1e6\n"
        assert not findings_for(src, path="src/repro/units.py", rule="UNIT001")


# -- DTYPE001 ----------------------------------------------------------------


class TestDTYPE001:
    @pytest.mark.parametrize(
        "alloc",
        ["np.zeros(n)", "np.empty(n)", "np.arange(n)", "np.full(n, -1)",
         "np.ones(n)"],
    )
    def test_catches_dtypeless_allocations(self, alloc):
        src = f"import numpy as np\ndef f(n):\n    return {alloc}\n"
        (finding,) = findings_for(src, path=SIM_PATH, rule="DTYPE001")
        assert "dtype" in finding.message

    @pytest.mark.parametrize(
        "alloc",
        [
            "np.zeros(n, dtype=np.float64)",
            "np.arange(n, dtype=np.int64)",
            "np.full(n, -1, dtype=np.int64)",
        ],
    )
    def test_allows_explicit_dtype(self, alloc):
        src = f"import numpy as np\ndef f(n):\n    return {alloc}\n"
        assert not findings_for(src, path=SIM_PATH, rule="DTYPE001")

    def test_scoped_to_simulation_packages(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert not findings_for(src, path=CORE_PATH, rule="DTYPE001")


# -- FLOAT001 ----------------------------------------------------------------


class TestFLOAT001:
    def test_catches_float_equality(self):
        src = "def f(x):\n    return x == 0.3\n"
        (finding,) = findings_for(src, rule="FLOAT001")
        assert "0.3" in finding.message

    def test_catches_float_inequality(self):
        src = "def f(x):\n    return x != 1.0\n"
        assert findings_for(src, rule="FLOAT001")

    def test_catches_negative_literal(self):
        src = "def f(x):\n    return x == -1.0\n"
        assert findings_for(src, rule="FLOAT001")

    def test_allows_isclose(self):
        src = (
            "import math\n"
            "def f(x):\n"
            "    return math.isclose(x, 0.3, rel_tol=1e-9)\n"
        )
        assert not findings_for(src, rule="FLOAT001")

    def test_allows_integer_comparisons(self):
        src = "def f(x):\n    return x == 0\n"
        assert not findings_for(src, rule="FLOAT001")

    def test_allows_float_ordering(self):
        src = "def f(x):\n    return x >= 0.5\n"
        assert not findings_for(src, rule="FLOAT001")


# -- ERR001 ------------------------------------------------------------------


class TestERR001:
    def test_catches_bare_except(self):
        src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        (finding,) = findings_for(src, rule="ERR001")
        assert "bare" in finding.message

    def test_catches_swallowing_except_exception(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        (finding,) = findings_for(src, rule="ERR001")
        assert "swallows" in finding.message

    def test_catches_builtin_raise(self):
        src = "def f(x):\n    raise ValueError(f'bad {x}')\n"
        (finding,) = findings_for(src, rule="ERR001")
        assert "ValueError" in finding.message

    def test_allows_typed_repro_error(self):
        src = (
            "from repro.errors import ConfigError\n"
            "def f(x):\n"
            "    raise ConfigError(f'bad {x}')\n"
        )
        assert not findings_for(src, rule="ERR001")

    def test_allows_reraise_and_recorded_handler(self):
        src = (
            "def f(log):\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        log.warning('retrying: %s', exc)\n"
        )
        assert not findings_for(src, rule="ERR001")

    def test_allows_programming_error_raises(self):
        # repro.errors documents TypeError etc. as deliberate pass-through.
        src = "def f(x):\n    raise TypeError('not serialisable')\n"
        assert not findings_for(src, rule="ERR001")


# -- OBS001 ------------------------------------------------------------------


class TestOBS001:
    def test_catches_perf_counter(self):
        src = "import time\nstart = time.perf_counter()\n"
        (finding,) = findings_for(src, path=ENGINE_PATH, rule="OBS001")
        assert "time.perf_counter" in finding.message
        assert "telemetry" in finding.message

    def test_catches_monotonic_via_alias(self):
        src = "import time as t\nstart = t.monotonic_ns()\n"
        assert findings_for(src, path=SIM_PATH, rule="OBS001")

    def test_catches_from_import(self):
        src = "from time import perf_counter\nstart = perf_counter()\n"
        assert findings_for(src, path=CORE_PATH, rule="OBS001")

    def test_catches_adhoc_counter(self):
        src = "import collections\nhits = collections.Counter()\n"
        (finding,) = findings_for(src, path=ENGINE_PATH, rule="OBS001")
        assert "span attributes" in finding.message
        assert "counter_sample" in finding.message

    def test_allows_telemetry_usage(self):
        src = (
            "from repro.telemetry import get_tracer\n"
            "def step():\n"
            "    with get_tracer().span('engine.step'):\n"
            "        pass\n"
        )
        assert not findings_for(src, path=ENGINE_PATH, rule="OBS001")

    def test_scoped_to_instrumented_packages(self):
        src = "import time\nstart = time.perf_counter()\n"
        assert not findings_for(
            src, path="src/repro/graph/example.py", rule="OBS001"
        )

    def test_clock_module_is_sanctioned(self):
        src = "import time\norigin = time.perf_counter()\n"
        assert not findings_for(
            src, path="src/repro/telemetry/clock.py", rule="OBS001"
        )


# -- SPAN001 -----------------------------------------------------------------


class TestSPAN001:
    def test_catches_span_bound_but_never_entered(self):
        src = (
            "def work(tracer):\n"
            "    span = tracer.span('work')\n"
            "    do_work()\n"
        )
        (finding,) = findings_for(src, rule="SPAN001")
        assert "never entered" in finding.message
        assert finding.line == 2

    def test_catches_returned_span(self):
        src = "def start(tracer):\n    return tracer.span('work')\n"
        (finding,) = findings_for(src, rule="SPAN001")
        assert "leaked across a return" in finding.message

    def test_catches_bare_expression_span(self):
        src = "def work(tracer):\n    tracer.span('work')\n"
        (finding,) = findings_for(src, rule="SPAN001")
        assert "never entered" in finding.message

    def test_allows_with_block(self):
        src = (
            "def work(tracer):\n"
            "    with tracer.span('work'):\n"
            "        do_work()\n"
            "    span = tracer.span('second')\n"
            "    with span:\n"
            "        more_work()\n"
        )
        assert not findings_for(src, rule="SPAN001")

    def test_allows_enter_context(self):
        src = (
            "from contextlib import ExitStack\n"
            "def work(tracer):\n"
            "    with ExitStack() as stack:\n"
            "        span = tracer.span('work')\n"
            "        stack.enter_context(span)\n"
            "        do_work()\n"
        )
        assert not findings_for(src, rule="SPAN001")

    def test_tracer_module_is_exempt(self):
        src = "def start(tracer):\n    return tracer.span('work')\n"
        assert not findings_for(
            src, path="src/repro/telemetry/tracer.py", rule="SPAN001"
        )

    def test_catches_unentered_evaluate_workload_span(self):
        # The evaluate.workload span in core/suite.py, bound instead of
        # entered: no tier-1 test notices the span going missing.
        path = SRC / "repro" / "core" / "suite.py"
        header = '    with get_tracer().span("evaluate.workload", **cell):\n'
        source = path.read_text(encoding="utf-8")
        assert source.count(header) == 1
        assert not findings_for(source, path=path.as_posix(), rule="SPAN001")
        seeded = source.replace(
            header,
            '    span = get_tracer().span("evaluate.workload", **cell)\n'
            "    if True:\n",
        )
        (finding,) = findings_for(seeded, path=path.as_posix(), rule="SPAN001")
        assert "'span'" in finding.message


# -- suppressions ------------------------------------------------------------


class TestSuppressions:
    def test_inline_disable_suppresses_on_that_line(self):
        src = (
            "def f(x):\n"
            "    return x == 0.5  # simlint: disable=FLOAT001 (sentinel)\n"
        )
        result = lint_source(src, path=CORE_PATH)
        assert not result.unsuppressed
        (finding,) = result.suppressed
        assert finding.rule == "FLOAT001"
        assert result.exit_code == 0

    def test_disable_only_covers_named_rule(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.zeros(n) == 0.5  # simlint: disable=FLOAT001\n"
        )
        result = lint_source(src, path=SIM_PATH)
        assert [f.rule for f in result.unsuppressed] == ["DTYPE001"]

    def test_disable_all_and_comma_lists(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.zeros(n) == 0.5  # simlint: disable=FLOAT001,DTYPE001\n"
        )
        assert not lint_source(src, path=SIM_PATH).unsuppressed
        src_all = src.replace("disable=FLOAT001,DTYPE001", "disable=all")
        assert not lint_source(src_all, path=SIM_PATH).unsuppressed

    def test_file_wide_disable(self):
        src = (
            "# simlint: disable-file=FLOAT001 (fixture data below)\n"
            "def f(x):\n"
            "    return x == 0.5\n"
            "def g(x):\n"
            "    return x != 1.5\n"
        )
        result = lint_source(src, path=CORE_PATH)
        assert not result.unsuppressed
        assert len(result.suppressed) == 2

    def test_directive_inside_string_is_inert(self):
        src = (
            "TEXT = 'simlint: disable=FLOAT001'\n"
            "def f(x):\n"
            "    return x == 0.5\n"
        )
        assert lint_source(src, path=CORE_PATH).unsuppressed


# -- reporters ---------------------------------------------------------------


GOLDEN_SRC = (
    "def f(x):\n"
    "    return x == 0.5\n"
    "def g(x):\n"
    "    return x != 1.5  # simlint: disable=FLOAT001 (sentinel)\n"
)


class TestReporters:
    @pytest.fixture()
    def result(self):
        return lint_source(GOLDEN_SRC, path="pkg/mod.py")

    def test_text_report(self, result):
        text = render_text(result)
        assert "pkg/mod.py:2:11: FLOAT001" in text
        assert text.endswith("1 finding (1 suppressed) in 1 file")
        assert "(suppressed)" not in text
        assert "(suppressed)" in render_text(result, show_suppressed=True)

    def test_json_golden(self, result):
        payload = json.loads(render_json(result))
        assert payload["tool"] == "simlint"
        assert payload["files_scanned"] == 1
        assert payload["summary"] == {"findings": 1, "suppressed": 1}
        active, suppressed = payload["findings"]
        assert active == {
            "rule": "FLOAT001",
            "message": active["message"],  # wording is free to evolve
            "path": "pkg/mod.py",
            "line": 2,
            "col": 11,
            "suppressed": False,
        }
        assert suppressed["line"] == 4 and suppressed["suppressed"] is True


# -- framework ---------------------------------------------------------------


class TestFramework:
    def test_registry_has_every_rule(self):
        assert {rule.id for rule in all_rules()} == {
            "DTYPE001", "ERR001", "FLOAT001", "OBS001", "SPAN001", "UNIT001",
        }
        for rule in all_rules():
            assert rule.title and rule.rationale

    def test_get_rule_rejects_unknown_id(self):
        from repro.analysis.core import AnalysisError

        with pytest.raises(AnalysisError):
            get_rule("NOPE999")

    def test_syntax_error_becomes_parse_finding(self):
        result = lint_source("def f(:\n", path=CORE_PATH)
        (finding,) = result.unsuppressed
        assert finding.rule == "PARSE"
        assert result.exit_code == 1

    def test_global_exclude_skips_test_code(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert not findings_for(src, path="tests/test_example.py")

    def test_rules_documented_in_analysis_md(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "ANALYSIS.md"
        text = doc.read_text(encoding="utf-8")
        for rule in all_rules():
            assert rule.id in text, f"{rule.id} missing from docs/ANALYSIS.md"
