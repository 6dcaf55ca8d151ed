"""Record the golden outputs the output check compares against.

    python3 perfbench/record_goldens.py --seeds 0-15

Runs one untraced pass per workload and seed, each in a fresh
interpreter, and writes their outputs to ``goldens.json``.  Re-record
only when a change is meant to alter the simulated outputs, and say so
in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from child import GOLDENS, load_goldens
from run import HARD_LIMIT_S, WORKLOADS, run_pass


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range, e.g. 0-15")
    args = parser.parse_args(argv)
    goldens = load_goldens() if os.path.exists(GOLDENS) else {}
    failed = 0
    for name in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            record = run_pass(name, seed, False, 0, HARD_LIMIT_S)
            # a golden must come from a pass that holds the invariants;
            # drop a stale golden's complaint by comparing afresh
            problems = [e for e in record.get("errors", []) if not e.startswith("golden ")]
            if problems or "outputs" not in record:
                print(f"{name} seed {seed}: FAILED {problems}", file=sys.stderr)
                failed += 1
                continue
            goldens.setdefault(name, {})[str(seed)] = record["outputs"]
            print(f"{name} seed {seed}: {record['digest'][:16]}")
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
