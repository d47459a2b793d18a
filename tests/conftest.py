"""Put this checkout's src on PYTHONPATH for the subprocesses some tests
start (python -m sbl.cli): pytest's pythonpath setting in pyproject.toml
reaches only the pytest process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
