"""Standard pairs of the corank-4 sharp family (d = 15, n = 19), end to end.

Too slow for the test suite (about 10 s on one core, most of it the
reference scan), so pytest does not collect it; run it as
``python tests/sharp4_walk.py``.  It holds the walked subdivision (16 cells)
equal to the scan over all C(19, 15) = 3,876 bases in
``tests/reference_subdivision.py`` (about 6 s), builds the refined
triangulation and the Groebner basis (72 elements, not generic), decomposes
the initial ideal (about 2 s), and asserts 3,723 pairs on 1,760 associated
sets with a longest chain of 11, the bound 2^4 - 5.  It then checks every
pair against the per-face helpers of ``tests/reference_stdpairs.py``: no
generator, projected off the pair's face, divides the root, and the root is
maximal there.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricip.groebner import CostOrder, toric_groebner  # noqa: E402
from toricip.hilbert import sharp_family  # noqa: E402
from toricip.stdpairs import (  # noqa: E402
    associated_report,
    initial_ideal,
    standard_pair_decomposition,
)
from toricip.triangulation import lex_refinement, regular_subdivision  # noqa: E402
from reference_stdpairs import _is_maximal, _minimalize  # noqa: E402
from reference_subdivision import reference_subdivision  # noqa: E402


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

    timed("the per-face check of every pair", check_pairs, ideal, decomp.pairs)


def check_pairs(ideal, pairs):
    """Assert that each pair is admissible and maximal on its face, as the reference tests it."""
    projected = {}
    for p in pairs:
        taubar = [i for i in range(ideal.nvars) if i not in p.face]
        if p.face not in projected:
            projected[p.face] = _minimalize(tuple(g[i] for i in taubar) for g in ideal.generators)
        proj, u = projected[p.face], tuple(p.root[i] for i in taubar)
        assert not any(all(e <= v for e, v in zip(g, u)) for g in proj), p
        assert _is_maximal(u, proj), p
    print(f"pairs checked: {len(pairs)} on {len(projected)} faces")


if __name__ == "__main__":
    main()
