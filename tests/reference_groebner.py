"""Reference toric Groebner basis for tests: saturation from the Hermite basis.

``groebner.toric_groebner`` seeds the saturation with an LLL-reduced kernel
basis.  This reference seeds it with the column-Hermite basis itself, as the
library once did.  Both generate the same lattice ideal after saturation, and
the reduced basis of an order is unique, so the two must agree element for
element.  Hermite columns can be long, so the saturation passes can grow large:
keep the instances small.
"""

from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.groebner import (
    Binomial,
    GroebnerBasis,
    _completion,
    _RevlexSat,
    positive_grading,
)


def hermite_toric_groebner(a: IntMatrix, order) -> GroebnerBasis:
    lattice = kernel_lattice_basis(a)
    basis = [(tuple(max(v, 0) for v in col), tuple(max(-v, 0) for v in col))
             for col in lattice.columns()]
    if not basis:
        return GroebnerBasis((), order, a, lattice, True)
    w = positive_grading(a)
    for i in range(a.n):
        basis = _completion(basis, _RevlexSat(w, a.n, i), False)
        stripped = []
        for head, tail in basis:
            m = min(head[i], tail[i])
            if m:
                head = head[:i] + (head[i] - m,) + head[i + 1 :]
                tail = tail[:i] + (tail[i] - m,) + tail[i + 1 :]
            if head != tail:
                stripped.append((head, tail))
        basis = stripped
    basis = _completion(basis, order, True)
    elems = tuple(Binomial(h, t) for h, t in basis)
    generic = all(not order.ties_through_weights(b.head, b.tail) for b in elems)
    return GroebnerBasis(elems, order, a, lattice, generic)
