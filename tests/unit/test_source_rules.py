"""Source rules that no run-time check covers.

Every other hazard the retired static-analysis rules named is caught
when the simulator runs (docs/STATIC_ANALYSIS.md, "Retired rules"). These
three are not: a ``random.Random(0)`` fallback gives the same numbers on
every run, so no digest moves when two call sites start sharing it; an
ad-hoc process pool outside the sweep executor changes no result until
the day it collects in completion order; and a per-entry record that
grows a ``__dict__`` changes no result, only the memory a run needs.

The two determinism checks are functions of one parsed module, so
``tests/unit/test_lint_rules.py`` can hold them to small fixtures;
:func:`documented_rules` reads the rule tables of
docs/STATIC_ANALYSIS.md for the tests that keep those tables whole.
"""

from __future__ import annotations

import ast
import pathlib
import random
from typing import Dict, Iterator, List, Tuple

import repro
from repro.bgp.rib import RibInEntry

SRC = pathlib.Path(repro.__file__).parent
DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"

#: ``random``'s module-level functions: bound methods of its one hidden
#: global instance.
GLOBAL_STREAM = frozenset(
    name
    for name, value in vars(random).items()
    if isinstance(getattr(value, "__self__", None), random.Random)
)

#: The one module allowed to start processes.
EXECUTOR = "repro.experiments.parallel"
SPAWNERS = ("multiprocessing", "concurrent", "os.fork", "os.forkpty")


def modules(src: pathlib.Path = SRC) -> Iterator[Tuple[str, ast.Module]]:
    """Every module of the package at ``src``, named from the package
    directory down, so the name does not depend on where it is checked out."""
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def global_stream_calls(module: str, tree: ast.Module) -> List[str]:
    """DET002 offenders in one module: calls of a module-level ``random``
    function and ``random.Random()`` / ``random.Random(<literal>)``."""
    names = {}  # local name -> what it is in ``random``; "" for the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, "") for a in node.names if a.name == "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            names.update((a.asname or a.name, a.name) for a in node.names)
    offenders = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute) and names.get(getattr(func.value, "id", None)) == "":
            name = func.attr
        elif isinstance(func, ast.Name) and names.get(func.id):
            name = names[func.id]
        else:
            continue
        literal = not call.keywords and len(call.args) <= 1 and all(
            isinstance(arg, ast.Constant) for arg in call.args
        )
        if name in GLOBAL_STREAM or (name == "Random" and literal):
            offenders.append(f"{module}:{call.lineno}: random.{name}()")
    return offenders


def process_spawns(module: str, tree: ast.Module) -> List[str]:
    """DET010 offenders in one module: outside the sweep executor, an
    import of ``multiprocessing`` or ``concurrent``, or ``os.fork``."""
    if module == EXECUTOR:
        return []
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
            names = [f"os.{node.attr}"]
        else:
            continue
        offenders += [
            f"{module}:{node.lineno}: {name}"
            for name in names
            if any(name == s or name.startswith(s + ".") for s in SPAWNERS)
        ]
    return offenders


#: The sections of docs/STATIC_ANALYSIS.md that hold a rule table.
RULE_TABLES = ("The source rules", "Retired rules")


def documented_rules() -> Dict[str, Tuple[str, List[str]]]:
    """Rule id -> (section, the row's other cells) for every row of the
    two rule tables in docs/STATIC_ANALYSIS.md ("The source rules" and
    "Retired rules"). A repeated id raises."""
    rules: Dict[str, Tuple[str, List[str]]] = {}
    section = ""
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
        elif section in RULE_TABLES and line.startswith("| ") and not line.startswith("| Rule "):
            rule_id, *cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            assert rule_id not in rules, f"{rule_id} has two rows"
            rules[rule_id] = (section, cells)
    return rules


def test_randomness_comes_from_named_streams():
    """DET002: no call of a module-level ``random`` function (one hidden
    global stream) and no ``random.Random()`` or ``random.Random(<literal>)``
    (one stream every such call site shares). Streams come from
    ``RngRegistry`` or a seed the caller passes."""
    offenders = [o for module, tree in modules() for o in global_stream_calls(module, tree)]
    assert not offenders, offenders


def test_processes_start_only_in_the_sweep_executor():
    """DET010: outside ``repro.experiments.parallel`` nothing imports
    ``multiprocessing`` or ``concurrent`` or names ``os.fork``. The
    executor forks from a single-threaded process only and joins in
    submission order, which keeps ``--jobs N`` digest-identical to
    ``--jobs 1``; an ad-hoc pool keeps neither promise."""
    offenders = [o for module, tree in modules() for o in process_spawns(module, tree)]
    assert not offenders, offenders


def test_rib_in_entries_carry_no_instance_dict():
    """PERF006: one ``RibInEntry`` lives per (peer, prefix) for the whole
    run, so a per-instance ``__dict__`` is the largest part of its
    footprint; taking the slots away raises the peak RSS of the
    ``powerlaw1k_coalesced`` benchmark workload (CHANGES.md)."""
    assert not hasattr(RibInEntry(), "__dict__")
