"""Run the tests against the package in ``src/`` without installing it.

``src/`` goes first on ``sys.path`` for the tests themselves, and first on
``PYTHONPATH`` for the ``python -m mstream`` subprocesses the CLI tests start.
``MSTREAM_STATE_CAP`` is removed, so the CLI tests run under the default
cap whatever the shell exports; a test that needs it sets it itself.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])
os.environ.pop("MSTREAM_STATE_CAP", None)
