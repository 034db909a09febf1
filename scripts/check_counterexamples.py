"""Confirm the four 12-strand counterexamples with the full construction.

The four rotations of (++--)^3 have basis webs that are not their dual
canonical elements.  The search confirms that from each web's own
expansion (dualcan.web_is_dual_canonical); this script checks it against
the reference, web_matches_dual_canonical, which builds the boundary's
whole dual canonical basis (513 webs; 15-20 s and about 0.5 GB each).  It
prints each web's correction terms and exits 1 if a web matches.

    python scripts/check_counterexamples.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webkup.dualcan import dual_canonical_basis, web_matches_dual_canonical
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
        J = parse_states(text)
        matches = web_matches_dual_canonical(signs, J)
        corrections = [
            f"d({format_states(a)}, {format_states(b)}) = {d}"
            for (a, b), d in dual_canonical_basis(signs).d_matrix.items()
        ]
        verdict = "MATCHES its dual canonical element" if matches else "is not dual canonical"
        print(f"{signs} {text}: {verdict}; corrections: {', '.join(corrections) or 'none'}"
              f" ({time.perf_counter() - t0:.1f}s)")
        failed += matches
        # one boundary's space at a time: both caches are unbounded
        web_space.cache_clear()
        dual_canonical_basis.cache_clear()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
