"""Make the benchmark's modules and the program importable from its tests.

Run with ``python3 -m pytest epbench/tests`` from the checkout root.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
