"""One workload in a fresh interpreter; prints one JSON object.

Started by ``run.py`` only.  ``--spawned-at`` is the parent's wall clock
at spawn, so ``setup_s`` includes interpreter start and ``import repro``.
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import workloads  # imports the adapter, and through it ``repro``

    startup_s = time.time() - args.spawned_at
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           bool(args.smoke), bool(args.setup_only), startup_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
