"""Pin the output digest of every workload for a range of seeds.

Usage, from the root of the repository::

    python3 perfbench/record_digests.py FIRST LAST   # seeds FIRST..LAST

Runs one iteration of each workload per seed, refuses to record an
output that fails its structural or reference checks, and merges the
digests into ``perfbench/digests.json``.  Record only on a commit whose
outputs are known to be right: the benchmark counts every iteration whose
digest differs from the pinned one as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name, cls in WORKLOADS.items():
        for seed in range(first, last + 1):
            workload = cls(seed)
            workload.setup()
            out = workload.iterate()
            problems = workload.check(out) + workload.reference_check(out)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = workload.digest(out)
            print(f"{name} seed {seed}: {digests[name][str(seed)]}", flush=True)
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
