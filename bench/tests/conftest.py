"""Make the benchmark's modules and the ``repro`` package importable."""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
