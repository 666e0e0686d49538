"""Child processes that the tests start import tjl from this checkout too:
``pythonpath`` in pyproject.toml only reaches the pytest process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
