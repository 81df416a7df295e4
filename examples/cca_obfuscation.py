#!/usr/bin/env python
"""Hiding the congestion-control algorithm with Stob (paper §5.2).

Packet sequences leak more than website identity: a passive observer
can tell Reno, CUBIC and BBR apart (CCAnalyzer-style), which in turn
hints at OS and application.  This example trains a passive CCA
identifier on clean bulk flows and shows that Stob's packet-sequence
shaping pushes its accuracy toward chance.

Run:  python examples/cca_obfuscation.py          (~1-2 minutes)
"""

from repro.attacks.cca_id import CCA_NAMES, CcaIdentifier, collect_cca_traces
from repro.stob.controller import split_delay_controller


def main():
    print("training passive CCA identifier on clean bulk flows ...")
    train, y_train = collect_cca_traces(n_per_cca=8, seed=5)
    identifier = CcaIdentifier(random_state=5).fit(train, y_train)

    test_clean, y_test = collect_cca_traces(n_per_cca=4, seed=6)
    clean_acc = identifier.score(test_clean, y_test)

    test_stob, y_stob = collect_cca_traces(
        n_per_cca=4, seed=6, controller_factory=split_delay_controller
    )
    stob_acc = identifier.score(test_stob, y_stob)

    print(f"  CCAs: {', '.join(CCA_NAMES)} (chance = {1 / len(CCA_NAMES):.2f})")
    print(f"  accuracy on stock flows : {clean_acc:.2f}")
    print(f"  accuracy on Stob flows  : {stob_acc:.2f}")
    print(
        "\nStob's split+delay shaping perturbs exactly the burst/timing\n"
        "signatures the identifier keys on — the same mechanism defends\n"
        "against both website fingerprinting and CCA identification."
    )


if __name__ == "__main__":
    main()
