"""Start-up cost of the CLI module."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fogpart


def test_import_leaves_numpy_out():
    # every command of a chain shares one process, so numpy loaded at import
    # would add its import time to every start-up and its memory to every peak
    src = Path(fogpart.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, fogpart.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
