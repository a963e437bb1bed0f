"""Run the repository benchmark.

Usage, from the root of the repository::

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload engine --seed 3 --seconds 20 --trace 0

With ``--workload`` the named workload runs in this process: it sets up
its inputs from ``--seed``, runs timed iterations for ``--seconds``, and
checks every iteration's output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics, writing the traced spans under
``.perfbench/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs in a fresh child process, one
after the other, and a table of all their metrics is printed.

The benchmark imports ``repro`` from ``src/`` next to this directory and
exits with status 2 when it is missing.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
NAMES = ("evaluate", "engine", "figures")
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "err.xlfdd_geomean": "ratio",
    "err.bam_geomean": "ratio",
    "err.cxl_flat": "ratio",
    "err.fluid_vs_des": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", ".raf")):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_digest(workload: str, seed: int) -> str | None:
    """The output digest recorded for ``(workload, seed)``, if any."""
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


class Checker:
    """Counts attempted and failed operations of one run.

    An operation fails when it raises or when its output is wrong: a
    structural problem, or a digest other than the pinned one.  Without a
    pinned digest every iteration must reproduce the first one's.
    """

    def __init__(self, workload: Any, expected_digest: str | None) -> None:
        self.workload = workload
        self.expected = expected_digest
        self.pinned = expected_digest is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def verify(self, out: Any) -> None:
        """Check one iteration's output."""
        problems = self.workload.check(out)
        digest = self.workload.digest(out)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"output digest {digest} != expected {self.expected}")
        self.record(problems)

    def check_once(self, fn: Any) -> None:
        """Run one cross-check returning a list of problems, as one operation."""
        try:
            problems = fn()
        except Exception:  # the run reports the failure and goes on
            problems = [traceback.format_exc(limit=3)]
        self.record(problems)

    def attempt(self, fn: Any) -> Any:
        """Call ``fn``; an exception counts as a failed operation."""
        try:
            return fn()
        except Exception:  # the run reports the failure and goes on
            self.record([traceback.format_exc(limit=3)])
            return None


def timed(fn: Any) -> tuple[Any, float]:
    """``fn()`` and its duration, from a freshly collected heap."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run_untraced(workload_cls: Any, args: argparse.Namespace, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous inputs before building again
        workload = workload_cls(args.seed)
        _, seconds = timed(workload.setup)
        setups.append(seconds)
    checker = Checker(workload, pinned_digest(workload.name, args.seed))
    samples: list[float] = []
    last = None
    deadline = time.perf_counter() + args.seconds
    while True:
        result = checker.attempt(lambda: timed(workload.iterate))
        if result is not None:
            out, seconds = result
            samples.append(seconds)
            checker.verify(out)
            last = out
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if last is None:
        raise SystemExit("every iteration failed:\n" + "\n".join(checker.problems))
    checker.check_once(lambda: workload.reference_check(last))
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "run_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb,
        **workload.fidelity(last),
    }
    print(
        f"workload={workload.name} seed={args.seed} "
        f"digest={'pinned' if checker.pinned else 'first-iteration'}\n"
        f"  iterations ({len(samples)}): {' '.join(f'{s:.3f}' for s in samples)} s\n"
        f"  setups ({len(setups)}): {' '.join(f'{s:.3f}' for s in setups)} s"
        f" after {import_s:.3f} s of imports"
    )
    return finish(checker, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def run_traced(workload_cls: Any, args: argparse.Namespace) -> dict:
    import tracing

    workload = workload_cls(args.seed)
    workload.setup()
    checker = Checker(workload, pinned_digest(workload.name, args.seed))
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict[str, float]] = []
    spans: list[list[dict]] = []
    last = None
    deadline = time.perf_counter() + args.seconds
    while True:
        result = checker.attempt(lambda: timed(workload.iterate))
        if result is not None:
            checker.verify(result[0])
            untraced.append(result[1])
        gc.collect()
        result = checker.attempt(lambda: tracing.traced_call(workload.iterate))
        if result is not None:
            out, rec = result
            checker.verify(out)
            root = rec.spans[0]
            traced.append(root[3] - root[2])
            summaries.append(tracing.summarize(rec))
            spans.append(rec.as_records())
            last = out
        if time.perf_counter() >= deadline:
            break
    if last is None or not untraced:
        raise SystemExit("every iteration failed:\n" + "\n".join(checker.problems))
    checker.check_once(lambda: workload.reference_check(last))
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "iterations": spans})
    )
    metrics = tracing.median_metrics(summaries)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    print(
        f"workload={workload.name} seed={args.seed} traced={len(traced)} "
        f"untraced={len(untraced)} spans={spans_file.relative_to(ROOT)}"
    )
    return finish(checker, {k: (v, layer_unit(k)) for k, v in metrics.items()})


def finish(checker: Checker, metrics: dict[str, tuple[float, str]]) -> dict:
    """Print the metric table and return the result object."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    print(f"  attempted={checker.attempted} failed={checker.failed}")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process; returns the exit status."""
    results = {}
    status = 0
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            print(f"{name}: exited with status {child.returncode}", file=sys.stderr)
            status = child.returncode
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload_cls, args)
    else:
        result = run_untraced(workload_cls, args, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
