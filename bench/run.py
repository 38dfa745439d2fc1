#!/usr/bin/env python3
"""The repository benchmark.  See ``bench/README.md``.

    python3 bench/run.py                          # all workloads, untraced then traced
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke                  # plumbing check, a few seconds
    python3 bench/run.py --agree A.json B.json    # do two result files agree?
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# The program under test is the checkout's own ``src/repro``.
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

if __name__ == "__main__":
    if importlib.util.find_spec("repro") is None:
        print(
            f"bench/run.py: no program to measure: {BENCH_DIR.parent / 'src' / 'repro'} "
            "is missing and `repro` is not installed",
            file=sys.stderr,
        )
        sys.exit(2)
    from padllbench.cli import main

    sys.exit(main())
