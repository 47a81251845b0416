"""The serving path imports no analysis libraries.

Every Bifrost process (engine, proxy, metrics server, case-study services)
imports these packages.  numpy and networkx cost ~26 MiB of resident
memory and a quarter second of start-up each time, yet only the offline
helpers ``forecast_rollout`` and ``strategy_graph`` use them, and they
import them on call.
"""

import os
import subprocess
import sys
from pathlib import Path

SERVING_PACKAGES = (
    "repro.core",
    "repro.proxy",
    "repro.metrics",
    "repro.cluster",
    "repro.casestudy",
    "repro.httpcore",
)
ANALYSIS_LIBRARIES = ("numpy", "networkx")

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serving_packages_do_not_import_analysis_libraries():
    # A fresh interpreter: this test process may already hold numpy from
    # other tests.
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in SERVING_PACKAGES)
        + f"print(sorted(set({ANALYSIS_LIBRARIES!r}) & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"
