"""Standard pairs of the corank-4 sharp family (d = 15, n = 19), end to end.

Too slow for the test suite (about a minute on one core), so pytest does
not collect it; run it as ``python tests/sharp4_walk.py``.  It holds the
walked subdivision (16 cells) equal to the scan over all C(19, 15) = 3,876
bases in ``tests/reference_subdivision.py`` (about 7 s), builds the
refined triangulation and the Groebner basis (72 elements, not generic),
decomposes the initial ideal by the top-down walk, and asserts 3,723 pairs on
1,760 associated sets with a longest chain of 11, the bound 2^4 - 5.  The
top-down walk never looks at a face outside the chains below the maximal
cells, so the script also runs the root search on 2,000 faces of the
triangulation drawn with a fixed seed from those that are not associated,
and asserts that none has a root.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricip.groebner import CostOrder, toric_groebner  # noqa: E402
from toricip.hilbert import sharp_family  # noqa: E402
from toricip.stdpairs import (  # noqa: E402
    _face_pairs,
    associated_report,
    initial_ideal,
    standard_pair_decomposition,
)
from toricip.triangulation import lex_refinement, regular_subdivision  # noqa: E402
from reference_subdivision import reference_subdivision  # noqa: E402

SAMPLE = 2000
SEED = 4


def timed(label, fn, *args):
    start = time.process_time()
    out = fn(*args)
    print(f"{label}: {time.process_time() - start:.1f} CPU s", flush=True)
    return out


def main():
    a, cost = sharp_family(4)
    # the steps of stdpairs.decomposition_for, timed one by one
    delta = timed("regular_subdivision", regular_subdivision, a, cost)
    scan = timed("the scan over all 3,876 bases", reference_subdivision, a, cost)
    assert delta == scan and len(delta.maximal_faces) == 16
    gb = timed("toric_groebner", toric_groebner, a, CostOrder.from_cost(cost))
    assert (len(gb.elements), gb.generic) == (72, False)
    delta = timed("lex_refinement", lex_refinement, delta)
    ideal = initial_ideal(gb)
    decomp = timed("standard_pair_decomposition", standard_pair_decomposition, ideal, delta)
    report = timed("associated_report", associated_report, decomp, delta)
    print(f"pairs {decomp.arithmetic_degree}, associated sets {len(report.associated_sets)}, "
          f"chain length {report.max_chain_length}, bound {report.length_bound}")
    assert decomp.arithmetic_degree == 3723
    assert len(report.associated_sets) == 1760
    assert report.max_chain_length == 11 == report.length_bound

    assoc = set(report.associated_sets)
    skipped = [f for f in delta.faces() if f not in assoc]
    sample = random.Random(SEED).sample(skipped, SAMPLE)
    rooted = timed(f"root search on {SAMPLE} of the {len(skipped)} faces that are not associated",
                   lambda: [f for f in sample if _face_pairs(ideal, f)])
    print(f"faces with a root: {len(rooted)}")
    assert not rooted, rooted[:5]


if __name__ == "__main__":
    main()
