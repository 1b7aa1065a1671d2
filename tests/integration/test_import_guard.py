"""The runtime needs nothing outside the standard library.

networkx is a test-only oracle. A fresh interpreter that imports the
package, the CLI and the scenario layer, and unpickles the paper's two
main scenario configs, must never load it — nor the claims table,
which only the tests and the golden-renderings benchmark read.

The other way round, the independent references under
``tests/reference/`` never import ``repro``.
"""

from __future__ import annotations

import ast
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


def test_references_import_nothing_from_repro():
    """A reference that shared arithmetic with the code it checks would
    only ever agree with it."""
    references = pathlib.Path(__file__).resolve().parents[1] / "reference"
    files = sorted(references.rglob("*.py"))
    assert files
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] == "repro"
            ]
    assert not offenders, offenders
