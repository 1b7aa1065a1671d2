"""The runtime needs nothing outside the standard library.

networkx is a test-only oracle. A fresh interpreter that imports the
package, the CLI and the scenario layer, and unpickles the paper's two
main scenario configs, must never load it — nor the claims table,
which only the tests and the golden-renderings benchmark read.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import repro
from repro.experiments.base import internet100_config, mesh100_config

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

GUARDED = """
import pickle, sys
configs = pickle.loads(sys.stdin.buffer.read())
assert [c.topology.node_count for c in configs] == [100, 100]
import repro, repro.cli, repro.workload.scenarios
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"
             or m == "repro.experiments.claims"))
"""


def test_runtime_imports_and_unpickling_leave_networkx_out():
    blob = pickle.dumps((mesh100_config(), internet100_config()))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", GUARDED],
        input=blob,
        capture_output=True,
        env=env,
        check=True,
    )
    assert completed.stdout.decode().strip() == "[]"
