"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record_references.py

Runs every workload once per reference seed at every size (``full`` for the
benchmark, ``small`` for its tests) with the package in ``src/`` and rewrites
``perfbench/references.json`` with the pass summaries. Re-record only when a
change to the program is meant to change its seeded outputs, and say so
where the change is described.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCES = HERE / "references.json"


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in sorted(workloads.WORKLOADS):
            for size in sorted(workloads.SIZES):
                workload = workloads.WORKLOADS[name](workloads.SIZES[size][name], Path(scratch))
                by_seed = recorded.setdefault(name, {}).setdefault(size, {})
                for seed in workloads.REFERENCE_SEEDS:
                    summary = workload.summary(workload.run(seed))
                    problems = workload.check(summary)
                    if problems:
                        print(f"{name} size {size} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    by_seed[str(seed)] = summary
                    print(f"recorded {name} size {size} seed {seed}")
    REFERENCES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
