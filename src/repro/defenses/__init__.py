"""Trace-level WF defenses.

Two families live here:

* the paper's §3 kernel-implementable countermeasures — packet
  :class:`~repro.defenses.split.SplitDefense`,
  :class:`~repro.defenses.delay.DelayDefense` and their
  :class:`~repro.defenses.combined.CombinedDefense` — applied as trace
  transforms exactly as the paper emulates them;
* the Table-1 baseline zoo (FRONT, BuFLO, Tamaraw, WTF-PAD, RegulaTor,
  HTTPOS-lite), used for the overhead comparison and the defense
  taxonomy.

All defenses transform :class:`~repro.capture.trace.Trace` objects and
are deterministic given a seed.  The same *mechanisms* exist at stack
level in :mod:`repro.stob` — the paper's argument is precisely that the
trace-level versions here are what authors evaluate, while only the
stack-level versions are enforceable.
"""

from repro.defenses.base import Defense, FirstNPackets, TraceDefense, NoDefense
from repro.defenses.split import SplitDefense
from repro.defenses.delay import DelayDefense
from repro.defenses.combined import CombinedDefense
from repro.defenses.front import FrontDefense
from repro.defenses.buflo import BufloDefense
from repro.defenses.tamaraw import TamarawDefense
from repro.defenses.wtfpad import WtfPadDefense
from repro.defenses.regulator import RegulatorDefense
from repro.defenses.httpos import HttposLiteDefense
from repro.defenses.morphing import MorphingDefense
from repro.defenses.palette import PaletteDefense, fit_palette
from repro.defenses.adaptive_front import AdaptiveFrontDefense
from repro.defenses.overhead import bandwidth_overhead, latency_overhead, overhead_summary
from repro.defenses.registry import (
    DEFENSE_REGISTRY,
    DEFENSE_TAXONOMY,
    DefenseInfo,
    build_defense,
    defense_from_spec,
    implemented_defenses,
)

__all__ = [
    "Defense",
    "TraceDefense",
    "NoDefense",
    "FirstNPackets",
    "SplitDefense",
    "DelayDefense",
    "CombinedDefense",
    "FrontDefense",
    "BufloDefense",
    "TamarawDefense",
    "WtfPadDefense",
    "RegulatorDefense",
    "HttposLiteDefense",
    "MorphingDefense",
    "PaletteDefense",
    "fit_palette",
    "AdaptiveFrontDefense",
    "bandwidth_overhead",
    "latency_overhead",
    "overhead_summary",
    "DEFENSE_REGISTRY",
    "DEFENSE_TAXONOMY",
    "DefenseInfo",
    "build_defense",
    "defense_from_spec",
    "implemented_defenses",
]
