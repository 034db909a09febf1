"""Confirm the four 12-strand counterexamples with the dual canonical construction.

The four rotations of (++--)^3 have basis webs that are not their dual
canonical elements.  The search confirms that from each web's own
expansion (dualcan.web_is_dual_canonical); this script builds each web's
element (dualcan.element), which corrects only where a coefficient has
an exponent >= 0 and expands only the webs it corrects by.  It prints
each web's correction terms and exits 1 if a web needs none.  All four
take about 0.9 s at 58 MB peak RSS (2-core VM, Python 3.11.7); building
each boundary's whole dual canonical basis instead took 32 s for all
four, at 530 MB.

    python scripts/check_counterexamples.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webkup.dualcan import element
from webkup.growth import web_space
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
        _, row = element(web_space(signs), parse_states(text))
        corrections = [f"d({text}, {format_states(K)}) = {c}" for K, c in row.items()]
        verdict = "is not dual canonical" if row else "MATCHES its dual canonical element"
        print(f"{signs} {text}: {verdict}; corrections: {', '.join(corrections) or 'none'}"
              f" ({time.perf_counter() - t0:.1f}s)")
        failed += not row
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
