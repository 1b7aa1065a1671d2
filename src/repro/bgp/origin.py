"""The flapping origin AS.

:class:`OriginRouter` is a stub AS that originates exactly one prefix and
exposes the flap API the paper's workload drives: :meth:`flap_down`
(withdraw) and :meth:`flap_up` (re-announce). Each flap event is stamped
with a fresh :class:`~repro.core.rcn.RootCause` on the
``[originAS, ispAS]`` link, with a monotonically increasing sequence
number — exactly the paper's Section 6.1 example.

The origin runs the normal BGP machinery (it *is* a router), but with
MRAI disabled so flap timing is controlled purely by the workload, and
with damping off — the paper damps updates *received from* the origin at
the ISP, never at the origin itself.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bgp.mrai import MraiConfig
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.rcn import RootCause, RootCauseGenerator
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

ORIGIN_NAME = "originAS"


class OriginRouter(BgpRouter):
    """The unstable customer AS of the paper's Figure 1."""

    def __init__(
        self,
        name: str,
        engine: Engine,
        rng: RngRegistry,
        prefix: str,
        isp: str,
    ) -> None:
        config = RouterConfig(
            damping=None,
            rcn_enabled=False,
            mrai=MraiConfig(base=0.0),
        )
        super().__init__(name, engine, rng, config=config)
        if not prefix:
            raise ConfigurationError("origin prefix must be non-empty")
        self.prefix = prefix
        self.isp = isp
        self._cause_generator = RootCauseGenerator((name, isp))
        self.is_up = False
        #: (time, status) history of flap events, for metrics and the
        #: intended-behaviour comparison.
        self.flap_log: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # flap API
    # ------------------------------------------------------------------

    def bring_up(self, stamp_cause: bool = True) -> Optional[RootCause]:
        """Announce the prefix (initial announcement or re-announcement)."""
        cause = self._cause_generator.next_cause("up") if stamp_cause else None
        self.is_up = True
        self.flap_log.append((self.engine.now, "up"))
        self.originate(self.prefix, cause)
        return cause

    def take_down(self, stamp_cause: bool = True) -> Optional[RootCause]:
        """Withdraw the prefix."""
        cause = self._cause_generator.next_cause("down") if stamp_cause else None
        self.is_up = False
        self.flap_log.append((self.engine.now, "down"))
        self.withdraw_origination(self.prefix, cause)
        return cause

    # Paper-flavoured aliases.
    flap_up = bring_up
    flap_down = take_down

    @property
    def flap_times(self) -> List[float]:
        return [time for time, _ in self.flap_log]
