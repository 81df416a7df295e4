"""The Stob controller: the stack-side enforcement point.

A :class:`StobController` is installed on a
:class:`~repro.stack.tcp.TcpEndpoint` (``endpoint.segment_controller``)
and consulted for every TSO segment the transport builds.  It wraps an
obfuscation *action* with the safety constraints and congestion-phase
gate, and keeps the departure-time state the delay actions need.

Figure 2 of the paper: the application (or administrator) picks the
policy; the policy lives in the shared registry; the controller applies
it where packet size and departure time are actually decided.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.stob.actions import (
    ComposedAction,
    DelayAction,
    NoOpAction,
    SplitAction,
    StobAction,
    action_from_policy,
)
from repro.stob.constraints import ConstraintReport, PhaseGate
from repro.stob.policy import ObfuscationPolicy


class StobController:
    """Per-flow enforcement of an obfuscation action."""

    def __init__(
        self,
        action: Optional[StobAction] = None,
        gate: Optional[PhaseGate] = None,
    ) -> None:
        self.action = action or NoOpAction()
        self.gate = gate or PhaseGate()
        self.report = ConstraintReport()
        self._last_departure = -1.0
        #: Totals for overhead accounting.
        self.segments_seen = 0
        self.total_gap_added = 0.0
        obs = _obs_runtime.session()
        self._obs = obs
        if obs is not None:
            registry = obs.registry
            self._obs_actions = registry.counter("stob.actions_applied")
            self._obs_gated = registry.counter("stob.gated_segments")
            self._obs_gap = registry.counter("stob.gap_seconds")
            self._obs_violations = registry.counter("stob.constraint_violations")

    # -- hooks called by TcpEndpoint --------------------------------------------

    def packet_sizes(self, endpoint, nbytes: int, mss: int) -> Optional[List[int]]:
        """Packetisation for the next ``nbytes`` (None = stock)."""
        if not self.gate.allows(endpoint.cca.phase):
            return None
        violations_before = self.report.total_violations
        sizes = self.action.packet_sizes(nbytes, mss)
        cleaned = self.report.clamp_packet_sizes(sizes, nbytes, mss)
        if self._obs is not None:
            self._obs_violations.add(
                self.report.total_violations - violations_before
            )
        return cleaned

    def tso_size(self, endpoint, default_segs: int) -> int:
        """TSO sizing (clamped to the CCA/autosize choice)."""
        if not self.gate.allows(endpoint.cca.phase):
            return default_segs
        violations_before = self.report.total_violations
        segs = self.report.clamp_tso(
            self.action.tso_size(default_segs), default_segs
        )
        if self._obs is not None:
            self._obs_violations.add(
                self.report.total_violations - violations_before
            )
        return segs

    def departure_gap(self, endpoint, segment) -> float:
        """Extra departure delay for ``segment``."""
        self.segments_seen += 1
        now = endpoint._sim.now
        if not self.gate.allows(endpoint.cca.phase):
            self.report.gated_segments += 1
            if self._obs is not None:
                self._obs_gated.add(1)
            self._last_departure = now
            return 0.0
        violations_before = self.report.total_violations
        gap = self.report.clamp_gap(
            self.action.departure_gap(now, self._last_departure)
        )
        self._last_departure = now
        self.total_gap_added += gap
        if self._obs is not None:
            self._obs_actions.add(1)
            self._obs_gap.add(gap)
            self._obs_violations.add(
                self.report.total_violations - violations_before
            )
        return gap

    def reset(self) -> None:
        """Clear per-connection state (new connection reuse)."""
        self.action.reset()
        self._last_departure = -1.0


def split_delay_controller(rng: np.random.Generator) -> StobController:
    """The paper's split+delay countermeasure, enforced in the stack:
    payload chunks over 1200 B split in two, and each inter-departure
    gap stretched by U(10 %, 30 %) — the §3 parameters.

    The delay draws from a child stream spawned off ``rng``, which
    leaves ``rng`` itself untouched: a defended visit (or flow) seeded
    with the same generator as a stock one loads the same page over
    the same path, and its delays depend on its own generator alone.
    """
    return StobController(
        action=ComposedAction(
            SplitAction(1200, 2),
            DelayAction(0.10, 0.30, rng=rng.spawn(1)[0]),
        )
    )


def attach_stob(
    endpoint,
    action: Optional[StobAction] = None,
    policy: Optional[ObfuscationPolicy] = None,
    gate: Optional[PhaseGate] = None,
) -> StobController:
    """Install a Stob controller on a TCP endpoint.

    Exactly one of ``action`` or ``policy`` must be given; a policy is
    compiled to its action first.
    """
    if (action is None) == (policy is None):
        raise ValueError("pass exactly one of action= or policy=")
    if policy is not None:
        action = action_from_policy(policy)
        if gate is None and policy.gated_phases:
            gate = PhaseGate(gated=tuple(policy.gated_phases))
    controller = StobController(action=action, gate=gate)
    endpoint.segment_controller = controller
    return controller
