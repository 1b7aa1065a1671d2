"""Compiling a :class:`~repro.faults.plan.FaultPlan` onto the engine.

:meth:`FaultInjector.install` expands the plan into concrete engine
events (``actor="faults"``, ``tag="fault"``) rebased on the current
clock. Storm schedules are drawn *at install time* from the storm's
named RNG stream, so the expansion itself is deterministic and the
resulting event sequence is identical however many worker processes the
sweep uses.

Every fired action emits a ``fault`` trace record and makes it the
ambient causal context, so the withdrawals, charges, and
graceful-restart expiries a fault provokes are attributed to it in the
trace DAG (:mod:`repro.analysis.causality` classifies charges rooted
there as ``fault-induced``).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FlapStorm

if TYPE_CHECKING:
    from repro.net.network import Network
    from repro.sim.rng import RngRegistry
    from repro.trace.tracer import Tracer

#: Actor name fault events are scheduled under (tie detection / audits).
FAULT_ACTOR = "faults"


class FaultInjector:
    """Installs one plan's actions onto a built network's engine."""

    def __init__(
        self,
        plan: FaultPlan,
        network: "Network",
        rng: "RngRegistry",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.plan = plan
        self.network = network
        self.engine = network.engine
        self._rng = rng
        self._tracer = tracer
        self.actions_scheduled = 0
        self.actions_fired = 0
        #: ``(time, action, detail)`` for every fired action, in order.
        self.fired: List[Tuple[float, str, str]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every referenced router and link exists (fail at install
        time with a configuration error, not mid-episode)."""
        for router in sorted(self.plan.routers()):
            if not self.network.has_node(router):
                raise ConfigurationError(
                    f"fault plan {self.plan.name!r} references unknown "
                    f"router {router!r}"
                )
        for a, b in sorted(self.plan.links()):
            if not self.network.has_link(a, b):
                raise ConfigurationError(
                    f"fault plan {self.plan.name!r} references unknown "
                    f"link {a}-{b}"
                )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, start: Optional[float] = None) -> int:
        """Schedule every action, rebased on ``start`` (default: now).

        Returns the number of engine events scheduled. Storms are
        expanded here using their named streams.
        """
        if self._installed:
            raise ConfigurationError(
                f"fault plan {self.plan.name!r} is already installed"
            )
        self._installed = True
        self.validate()
        base = self.engine.now if start is None else start
        for fault in self.plan.link_faults:
            self._schedule(
                base + fault.down_at,
                "link-down",
                f"{fault.a}-{fault.b}",
                functools.partial(self.network.set_link_state, fault.a, fault.b, False),
            )
            if fault.up_at is not None:
                self._schedule(
                    base + fault.up_at,
                    "link-up",
                    f"{fault.a}-{fault.b}",
                    functools.partial(
                        self.network.set_link_state, fault.a, fault.b, True
                    ),
                )
        for crash in self.plan.crashes:
            self._schedule(
                base + crash.at,
                "crash",
                crash.router,
                functools.partial(self.network.crash_router, crash.router),
            )
            if crash.down_for is not None:
                self._schedule(
                    base + crash.at + crash.down_for,
                    "restart",
                    crash.router,
                    functools.partial(self.network.restart_router, crash.router),
                )
        for reset in self.plan.session_resets:
            self._schedule(
                base + reset.at,
                "session-reset",
                f"{reset.a}-{reset.b}",
                functools.partial(self.network.reset_session, reset.a, reset.b),
            )
        for impairment in self.plan.impairments:
            link = self.network.link(impairment.a, impairment.b)
            self._schedule(
                base + impairment.start,
                "impair",
                (
                    f"{impairment.a}-{impairment.b} loss={impairment.loss} "
                    f"dup={impairment.duplicate} jitter={impairment.extra_jitter}"
                ),
                functools.partial(
                    link.set_impairment,
                    loss=impairment.loss,
                    duplicate=impairment.duplicate,
                    extra_jitter=impairment.extra_jitter,
                ),
            )
            if impairment.duration is not None:
                self._schedule(
                    base + impairment.start + impairment.duration,
                    "clear-impair",
                    f"{impairment.a}-{impairment.b}",
                    link.clear_impairment,
                )
        for storm in self.plan.storms:
            self._install_storm(base, storm)
        return self.actions_scheduled

    def _install_storm(self, base: float, storm: FlapStorm) -> None:
        """Expand one storm into concrete down/up pairs using its stream."""
        draw = self._rng.stream(storm.stream_name)
        at = base + storm.start
        for index in range(storm.flaps):
            at += draw.uniform(storm.min_interval, storm.max_interval)
            a, b = storm.links[draw.randrange(len(storm.links))]
            detail = f"{storm.name}#{index} {a}-{b}"
            self._schedule(
                at,
                "storm-down",
                detail,
                functools.partial(self.network.set_link_state, a, b, False),
            )
            self._schedule(
                at + storm.down_time,
                "storm-up",
                detail,
                functools.partial(self.network.set_link_state, a, b, True),
            )

    def _schedule(
        self, when: float, action: str, detail: str, thunk: Callable[[], None]
    ) -> None:
        self.actions_scheduled += 1
        self.engine.schedule_at(
            when,
            functools.partial(self._fire, action, detail, thunk),
            actor=FAULT_ACTOR,
            tag="fault",
        )

    def _fire(self, action: str, detail: str, thunk: Callable[[], None]) -> None:
        now = self.engine.now
        self.actions_fired += 1
        self.fired.append((now, action, detail))
        if self._tracer is not None:
            # Faults are DAG roots, like flaps: everything the network
            # does in response descends from this record.
            record_id = self._tracer.emit(
                "fault", now, action=action, detail=detail
            )
            self._tracer.set_context(record_id)
        thunk()


__all__ = ["FAULT_ACTOR", "FaultInjector"]
