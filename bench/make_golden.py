"""Regenerate bench/golden.json: the SHA-256 of every trace that one pass of
each workload writes at the default seed.

    python3 bench/make_golden.py

Traces are byte-stable for a fixed seed, so the golden hashes change only
when the library's behaviour does; a change that means to keep behaviour
must leave this file as it is.
"""
import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    gp = run.import_library()
    golden = {}
    for name in ("solve", "evade", "capture"):
        res = workloads.run_pass(workloads.setup(gp, name, run.GOLDEN_SEED))
        if res.failures:
            print("\n".join(res.failures), file=sys.stderr)
            return 1
        golden[name] = res.hashes
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
