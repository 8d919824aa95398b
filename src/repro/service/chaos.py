"""Service-level chaos: seeded client-side network misbehaviour.

:class:`~repro.robustness.faults.ChaosConfig` injects faults *inside*
worker processes; this module extends the same idea one layer up, to the
wire.  A :class:`ServiceChaosConfig` decides — with the shared pure
sha256 draw (:class:`~repro.robustness.faults.SeededChaos`), so a run is
exactly replayable from its seed — whether a
given request is delivered normally or arrives as one of four hostile
shapes:

* ``drop`` — the client opens a connection and closes it without
  sending a complete request (tests the daemon's header timeout and
  connection accounting);
* ``slow`` — a slow-loris body: bytes trickle in with long pauses so
  the body timeout must fire (the daemon answers 408, not hang);
* ``disconnect`` — the client sends a full request then closes before
  reading the response mid-stream (the daemon must absorb the broken
  pipe without leaking the admission slot);
* ``malformed`` — a syntactically broken payload (truncated JSON, bogus
  content length, junk request line) that must bounce as a structured
  4xx.

The decisions are keyed by ``(seed, request-index, mode)`` rather than
by function name — the unit of chaos here is a request, not a
promotion attempt.  :class:`~repro.service.client.ChaosTraffic` is the
driver that realizes these plans against a live daemon.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.robustness.faults import SeededChaos


class ServiceChaosConfig(SeededChaos):
    """Seeded request-level fault plans for the service layer — the same
    draw, mode order and spec syntax as
    :class:`~repro.robustness.faults.ChaosConfig`, keyed by request."""

    MODES = ("drop", "slow", "disconnect", "malformed")
    PARAMS = {"seed": ("seed", int), "slow_delay_s": ("slow_delay_s", float)}

    def __init__(
        self,
        drop: float = 0.0,
        slow: float = 0.0,
        disconnect: float = 0.0,
        malformed: float = 0.0,
        seed: int = 0,
        slow_delay_s: float = 0.5,
    ) -> None:
        super().__init__(
            seed, drop=drop, slow=slow, disconnect=disconnect, malformed=malformed
        )
        if slow_delay_s < 0:
            raise ValueError(f"slow_delay_s must be >= 0, got {slow_delay_s}")
        #: Pause between trickled body chunks in ``slow`` mode — point it
        #: past the daemon's body timeout to force a 408.
        self.slow_delay_s = slow_delay_s

    def draw(self, request: int, mode: str) -> float:
        """The deterministic uniform draw in ``[0, 1)`` for one decision."""
        return self.draw_key(f"{self.seed}:req{request}:{mode}")

    def plan(self, request: int) -> Optional[str]:
        """Which mode (if any) fires for request number ``request``."""
        return self.plan_key(f"{self.seed}:req{request}")

    def as_dict(self) -> Dict[str, object]:
        doc = super().as_dict()
        doc["slow_delay_s"] = self.slow_delay_s
        return doc
