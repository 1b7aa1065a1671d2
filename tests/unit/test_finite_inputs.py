"""The finite-input contract, held by reflection.

Every comparison with ``nan`` is false, so a bare ``x <= 0`` guard lets
it through, and ``inf`` passes any lower bound. A config number that is
not finite therefore turns into a run that goes wrong without a word:
no reuse timer fires, every holding time becomes the floor, a generated
graph comes out star-shaped. ``repro.errors.check_number`` is the one
construction-time check; this module enumerates every dataclass in
``repro`` with a float-annotated field and holds each input class to
it, field by field. A new dataclass with a float field
fails :func:`test_every_float_dataclass_is_classified` until it is given
valid arguments below or a reason it is not an input.

Function parameters are out of the reflection's reach; the ones that
take config numbers are listed in :data:`FUNCTION_INPUTS`.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pathlib
import pkgutil
import random
import re
from functools import partial

import pytest

import repro
from repro.core.intended import IntendedBehaviorModel, regular_pulse_train
from repro.core.params import CISCO_DEFAULTS
from repro.errors import ConfigurationError, ReproError
from repro.experiments.claims import Band
from repro.experiments.parallel import execute_sweep
from repro.metrics.series import bin_counts
from repro.net.link import Link, LinkConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.mesh import mesh_topology
from repro.topology.scale import powerlaw_topology
from repro.workload.patterns import burst_pattern, jittered_pattern, poisson_pattern
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig

#: Valid keyword arguments for each input dataclass; every float field of
#: these classes must reject nan, +inf and -inf with its ``Class.field``.
VALID_KWARGS = {
    "DampingParams": {},
    "MraiConfig": {},
    "GracefulRestartConfig": {},
    "LinkConfig": {},
    "LinkFault": {"a": "x", "b": "y", "down_at": 1.0, "up_at": 2.0},
    "RouterCrash": {"router": "x", "at": 1.0, "down_for": 2.0},
    "SessionReset": {"a": "x", "b": "y", "at": 1.0},
    "LinkImpairment": {"a": "x", "b": "y", "start": 1.0, "duration": 2.0, "loss": 0.1},
    "FlapStorm": {
        "name": "storm",
        "links": (("x", "y"),),
        "start": 1.0,
        "flaps": 1,
        "min_interval": 1.0,
        "max_interval": 2.0,
        "down_time": 1.0,
    },
    "ScenarioConfig": {},  # the topology is filled in by _valid_kwargs
    "PulseSchedule": {"events": ((0.0, "down"), (60.0, "up"))},
    "Band": {},
}

#: Input classes where ±inf has a meaning, so only nan is refused.
INF_ALLOWED = {"Band": "±inf is a band's open end (`above`, `below`)"}

#: Fields whose float sits inside a container: how to plant a bad number.
NESTED = {"PulseSchedule.events": lambda bad: ((0.0, "down"), (bad, "up"))}

#: Dataclasses with a float-annotated field that are not inputs.
NOT_AN_INPUT = {
    "DistanceBucket": "result record: per-hop settle times of a finished run",
    "SensitivityPoint": "result record: reuse delays computed from checked params",
    "ReuseEvent": "result record: a reuse timer's firing time",
    "SuppressionRecord": "result record: one suppression's start, penalty and end",
    "UpdateOutcome": "result record: what one charge did to the penalty",
    "IntendedPrediction": "result record: the Section 3 model's output",
    "PhaseInterval": "result record: a damping phase's span in a finished run",
    "PointOutcome": "result record: one sweep point (convergence_time is nan when absent)",
    "_SweepSpec": "private: execute_sweep checks flap_interval before it builds one",
    "Series": "registry constant: execute_sweep checks flap_interval before it builds one",
    "SweepSeries": "result record: a swept series, built from a checked Series",
    "ScaleEpisodeResult": "result record: wall times and counts of one scale episode",
    "DropRecord": "result record: when a message was dropped",
    "ConvergenceSummary": "result record: convergence time of a finished episode",
    "TimerAuditViolation": "result record: the instant of a timer-audit violation",
    "StallDiagnostics": "result record: the clock when the watchdog fired",
    "TraceRecord": "result record: one causal trace record's time stamp",
    "FlapRunResult": "result record: the times of one finished episode",
    "Claim": "a claims-table row; `measure` is a callable that returns a float",
}

_PLAIN_FLOAT = {"float", "Optional[float]"}


def _float_dataclasses():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and any("float" in str(spec.type) for spec in dataclasses.fields(obj))
            ):
                found[obj.__name__] = obj
    return found


FLOAT_DATACLASSES = _float_dataclasses()


def _float_fields(cls):
    return [
        spec.name
        for spec in dataclasses.fields(cls)
        if str(spec.type) in _PLAIN_FLOAT or f"{cls.__name__}.{spec.name}" in NESTED
    ]


def _valid_kwargs(name):
    kwargs = dict(VALID_KWARGS[name])
    if name == "ScenarioConfig":
        kwargs["topology"] = mesh_topology(2, 2)
    return kwargs


def _cases():
    for name in sorted(VALID_KWARGS):
        cls = FLOAT_DATACLASSES[name]
        bads = [math.nan] if name in INF_ALLOWED else [math.nan, math.inf, -math.inf]
        for field in _float_fields(cls):
            for bad in bads:
                yield pytest.param(cls, field, bad, id=f"{name}.{field}={bad}")


def test_every_float_dataclass_is_classified():
    assert not set(VALID_KWARGS) & set(NOT_AN_INPUT)
    assert set(FLOAT_DATACLASSES) == set(VALID_KWARGS) | set(NOT_AN_INPUT)
    assert all(_float_fields(FLOAT_DATACLASSES[name]) for name in VALID_KWARGS)


@pytest.mark.parametrize("name", sorted(VALID_KWARGS))
def test_valid_arguments_construct(name):
    FLOAT_DATACLASSES[name](**_valid_kwargs(name))


@pytest.mark.parametrize("cls, field, bad", list(_cases()))
def test_float_field_rejects_non_finite_by_name(cls, field, bad):
    value = NESTED.get(f"{cls.__name__}.{field}", lambda number: number)(bad)
    kwargs = {**_valid_kwargs(cls.__name__), field: value}
    with pytest.raises(ConfigurationError, match=re.escape(f"{cls.__name__}.{field}")):
        cls(**kwargs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["low", "high"])
def test_band_keeps_infinite_open_ends(field, bad):
    Band(**{field: bad})


#: Config numbers passed as function parameters, each with a non-finite
#: value and the parameter name the error must carry.
FUNCTION_INPUTS = {
    "from_events-nan-offset": (
        partial(PulseSchedule.from_events, [(0.0, "down"), (math.nan, "up")]),
        "PulseSchedule.events",
    ),
    "from_events-inf-offset": (
        partial(PulseSchedule.from_events, [(0.0, "down"), (math.inf, "up")]),
        "PulseSchedule.events",
    ),
    "poisson-nan-means": (
        partial(poisson_pattern, 2, math.nan, math.nan, random.Random(1)),
        "mean_down_time",
    ),
    "poisson-inf-down": (
        partial(poisson_pattern, 2, math.inf, 1.0, random.Random(1)),
        "mean_down_time",
    ),
    "poisson-inf-up": (
        partial(poisson_pattern, 2, 1.0, math.inf, random.Random(1)),
        "mean_up_time",
    ),
    "burst-nan-interval": (partial(burst_pattern, 2, 1, math.nan, 10.0), "intra_burst_interval"),
    "burst-inf-gap": (partial(burst_pattern, 2, 1, 1.0, math.inf), "inter_burst_gap"),
    "jittered-nan-fraction": (
        partial(jittered_pattern, 2, 60.0, math.nan, random.Random(1)),
        "jitter_fraction",
    ),
    "sweep-nan-interval": (
        partial(
            execute_sweep,
            ScenarioConfig(topology=mesh_topology(2, 2)),
            [],
            flap_interval=math.nan,
        ),
        "flap_interval",
    ),
    "regular-inf-interval": (partial(regular_pulse_train, 2, math.inf), "flap_interval"),
    "model-nan-tup": (
        partial(IntendedBehaviorModel, CISCO_DEFAULTS, tup=math.nan),
        "IntendedBehaviorModel.tup",
    ),
    "powerlaw-nan-exponent": (partial(powerlaw_topology, 50, exponent=math.nan), "exponent"),
    "bin-counts-nan-width": (partial(bin_counts, [1.0], math.nan), "bin_width"),
}


@pytest.mark.parametrize("case", sorted(FUNCTION_INPUTS))
def test_function_parameter_rejects_non_finite_by_name(case):
    call, name = FUNCTION_INPUTS[case]
    with pytest.raises(ReproError, match=re.escape(name)):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["loss", "duplicate", "extra_jitter"])
def test_set_impairment_rejects_non_finite_by_name(field, bad):
    link = Link(None, "x", "y", LinkConfig(), Engine(), RngRegistry(1))
    with pytest.raises(ConfigurationError, match=f"set_impairment.{field}"):
        link.set_impairment(**{field: bad})


def test_the_helper_is_the_one_finiteness_check():
    """Outside ``repro.errors`` no module tests finiteness itself; the
    one ``isnan`` is ``Band``'s, whose open ends are ``±inf``."""
    root = pathlib.Path(repro.__file__).parent
    callers = {
        str(path.relative_to(root)): token
        for path in root.rglob("*.py")
        for token in ("isfinite", "isnan")
        if f"math.{token}(" in path.read_text(encoding="utf-8")
    }
    assert callers == {"errors.py": "isfinite", "experiments/claims.py": "isnan"}
