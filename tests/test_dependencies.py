"""The package has no runtime dependency outside the standard library.

A subprocess blocks ``numpy`` at the import system, then imports every
module under ``repro`` and runs the CLI's ``--help``.  The block is a
``sys.meta_path`` finder rather than ``sys.modules["numpy"] = None``,
because test plugins such as hypothesis look that entry up and would
trip over the ``None``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import importlib
import pkgutil
import runpy
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())

import repro


def fail(name):
    raise ImportError(f"cannot import {name}")


for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    importlib.import_module(info.name)
sys.argv = ["repro", "--help"]
runpy.run_module("repro", run_name="__main__")
"""


def test_package_and_cli_import_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "usage:" in result.stdout
