"""The Table-1 defense taxonomy and a defense factory.

Table 1 of the paper classifies WF defenses by target system
(Tor / TLS / QUIC), strategy (regularisation vs obfuscation) and
traffic manipulation (padding, timing modification, packet size
modification).  ``DEFENSE_TAXONOMY`` reproduces that table, with an
``implemented`` flag naming the class in this package when we provide
a runnable version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.defenses.base import NoDefense, TraceDefense
from repro.defenses.buflo import BufloDefense
from repro.defenses.combined import CombinedDefense
from repro.defenses.delay import DelayDefense
from repro.defenses.front import FrontDefense
from repro.defenses.httpos import HttposLiteDefense
from repro.defenses.adaptive_front import AdaptiveFrontDefense
from repro.defenses.morphing import MorphingDefense
from repro.defenses.palette import PaletteDefense
from repro.defenses.regulator import RegulatorDefense
from repro.defenses.split import SplitDefense
from repro.defenses.tamaraw import TamarawDefense
from repro.defenses.wtfpad import WtfPadDefense


@dataclass(frozen=True)
class DefenseInfo:
    """One row of Table 1."""

    system: str
    target: str  # Tor, TLS, QUIC, TLS & QUIC
    strategy: str  # Regularization | Obfuscation
    manipulations: Tuple[str, ...]  # padding / timing / packet size
    implemented_as: Optional[str] = None  # class name in repro.defenses


#: The paper's Table 1, row by row.
DEFENSE_TAXONOMY: Tuple[DefenseInfo, ...] = (
    DefenseInfo("ALPaCA", "Tor", "Regularization", ("padding",)),
    DefenseInfo(
        "BuFLO", "Tor", "Regularization", ("padding", "timing"), "BufloDefense"
    ),
    DefenseInfo("RegulaTor", "Tor", "Regularization", ("padding", "timing"),
                "RegulatorDefense"),
    DefenseInfo("Surakav", "Tor", "Regularization", ("padding", "timing")),
    DefenseInfo("Palette", "Tor", "Regularization", ("padding", "timing"),
                "PaletteDefense"),
    DefenseInfo("WTF-PAD", "Tor", "Obfuscation", ("padding", "timing"),
                "WtfPadDefense"),
    DefenseInfo("FRONT", "Tor", "Obfuscation", ("padding", "timing"),
                "FrontDefense"),
    DefenseInfo("BLANKET", "Tor", "Obfuscation", ("padding", "timing")),
    DefenseInfo("Morphing", "TLS", "Obfuscation", ("timing", "packet size"),
                "MorphingDefense"),
    DefenseInfo("HTTPOS", "TLS", "Obfuscation", ("timing", "packet size"),
                "HttposLiteDefense"),
    DefenseInfo("Burst Defense", "TLS", "Obfuscation", ("timing", "packet size")),
    DefenseInfo("Cactus", "TLS", "Obfuscation", ("timing", "packet size")),
    DefenseInfo("Adaptive FRONT", "TLS", "Obfuscation", ("padding", "timing"),
                "AdaptiveFrontDefense"),
    DefenseInfo("QCSD", "QUIC", "Obfuscation",
                ("padding", "timing", "packet size")),
    DefenseInfo("pad-resources", "QUIC", "Obfuscation",
                ("padding", "timing", "packet size")),
    DefenseInfo("NetShaper", "TLS & QUIC", "Obfuscation",
                ("padding", "timing")),
    # The paper's own §3 countermeasures (stack-implementable).
    DefenseInfo("Stob-Split", "TLS", "Obfuscation", ("packet size",),
                "SplitDefense"),
    DefenseInfo("Stob-Delay", "TLS", "Obfuscation", ("timing",),
                "DelayDefense"),
    DefenseInfo("Stob-Combined", "TLS", "Obfuscation",
                ("timing", "packet size"), "CombinedDefense"),
)

#: The defense registry: short name -> class.  Every entry implements
#: the full Defense contract (``name``, total ``params()``,
#: deterministic ``apply``), so ``build_defense(name, **params)``
#: round-trips for any configured instance.
DEFENSE_REGISTRY: Dict[str, type] = {
    "original": NoDefense,
    "split": SplitDefense,
    "delayed": DelayDefense,
    "combined": CombinedDefense,
    "front": FrontDefense,
    "buflo": BufloDefense,
    "tamaraw": TamarawDefense,
    "wtfpad": WtfPadDefense,
    "regulator": RegulatorDefense,
    "httpos": HttposLiteDefense,
    "morphing": MorphingDefense,
    "adaptive-front": AdaptiveFrontDefense,
    "palette": PaletteDefense,
}

def build_defense(name: str, seed: int = 0, **kwargs) -> TraceDefense:
    """Instantiate a defense by its short name.

    ``kwargs`` are the class's constructor parameters; passing a
    defense's own ``params()`` dict reconstructs it exactly
    (``seed`` may arrive either positionally or inside ``kwargs``).
    """
    try:
        cls = DEFENSE_REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown defense {name!r}; choose from {sorted(DEFENSE_REGISTRY)}"
        ) from None
    kwargs.setdefault("seed", seed)
    return cls(**kwargs)


def defense_from_spec(spec: Dict[str, object]) -> TraceDefense:
    """Rebuild a defense from a ``{"name": ..., "params": {...}}`` spec
    (the cache's canonical defense identity)."""
    return build_defense(str(spec["name"]), **dict(spec["params"]))


def implemented_defenses() -> Tuple[str, ...]:
    """Short names of every defense usable without calibration.

    Palette is excluded: it is dataset-level and must be ``fit()`` on a
    calibration set before use (see
    :func:`repro.defenses.palette.fit_palette`).
    """
    return tuple(sorted(name for name in DEFENSE_REGISTRY if name != "palette"))
