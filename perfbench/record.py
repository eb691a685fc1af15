"""Record the output digests that ``reference.json`` holds.

Run from the repository root, at a commit whose outputs are trusted::

    python3 perfbench/record.py --seeds 0-19 [--workload paper-full ...]

For each workload with digestible outputs and each seed, one untimed
pass runs and its output digests are stored under
``reference.json[workload][seed]``; :mod:`run` then counts every
operation whose digest differs as failed.  A pass whose own checks
fail is not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def parse_seeds(text: str):
    first, _sep, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0"))
    parser.add_argument(
        "--workload", action="append", help="default: every workload with outputs"
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    reference = {}
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for name in args.workload or ["paper-fast", "graph-200k", "sweep-frontier"]:
        for seed in args.seeds:
            workload = WORKLOADS[name](ROOT, seed)
            workload.prepare()
            result = workload.run_pass(None)
            if result.failures:
                print(f"{name} seed {seed}: not recorded, {result.failures}")
                return 1
            reference.setdefault(name, {})[str(seed)] = result.outputs
            print(f"{name} seed {seed}: recorded {len(result.outputs)} digest(s)")
            REFERENCE.write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
