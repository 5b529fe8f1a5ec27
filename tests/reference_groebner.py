"""Reference toric Groebner bases for tests: the older completion, two starts.

``groebner.toric_groebner`` seeds the saturation with an LLL-reduced kernel
basis.  ``hermite_toric_groebner`` seeds it with the column-Hermite basis
itself, as the library once did.  Both generate the same lattice ideal after
saturation, and the reduced basis of an order is unique, so the two must
agree element for element.  Hermite columns can be long, so the saturation
passes can grow large: keep its instances small.  ``lll_toric_groebner``
takes the library's start, so it checks the completion alone, on instances
where the Hermite start is slow.

Both run the library's older completion, with its own copy of every step and
no criterion but coprime heads.  Each saturation pass completes without
stripping common factors, then divides every element by the highest power of
its cheapest variable that both terms share; only the final completion
strips each binomial it takes in.  The library now strips in every
completion.  From ``toricip.groebner`` it takes only the containers of its
answer and the positive grading, so a change to the library's completion
cannot change the reference.
"""

import heapq
from operator import le

from reference_linalg import dot

from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.groebner import Binomial, GroebnerBasis, positive_grading
from toricip.linalg import lll_reduce


def _revlex_sat_key(grading, n, cheapest):
    """Sort key of weight-graded reverse lex with x_cheapest cheapest."""
    seq = [cheapest] + [j for j in reversed(range(n)) if j != cheapest]
    return lambda u: (dot(grading, u),) + tuple(-u[j] for j in seq)


def _cost_key(order):
    """Sort key of the order's cost refined by lex."""
    return lambda u: (dot(order.cost, u),) + u


def _divides(u, v):
    return all(map(le, u, v))


def _strip(u, v):
    m = tuple(min(a, b) for a, b in zip(u, v))
    return tuple(a - b for a, b in zip(u, m)), tuple(a - b for a, b in zip(v, m))


def _orient(u, v, key):
    if u == v:
        return None
    return (u, v) if key(u) > key(v) else (v, u)


def _reduce(u, pairs):
    while True:
        for h, t in pairs:
            if _divides(h, u):
                u = tuple(a - b + c for a, b, c in zip(u, h, t))
                break
        else:
            return u


def _reduce_full(head, tail, basis, key):
    changed = True
    while changed:
        changed = False
        for g in basis:
            if _divides(g[0], head):
                head = tuple(a - b + c for a, b, c in zip(head, g[0], g[1]))
                if head == tail:
                    return None
                if key(head) < key(tail):
                    head, tail = tail, head
                changed = True
                break
    return head, _reduce(tail, basis)


def _interreduce(basis, key):
    # a divisor has the lower total degree; with a negative cost entry it
    # can have the larger key
    basis = sorted(set(basis), key=lambda g: (sum(g[0]), key(g[0])))
    kept = []
    for g in basis:
        if not any(_divides(h[0], g[0]) for h in kept):
            kept.append(g)
    out = [(head, _reduce(tail, kept[:idx] + kept[idx + 1 :]))
           for idx, (head, tail) in enumerate(kept)]
    return sorted(out, key=lambda g: key(g[0]))


def _completion(gens, key, strip_common):
    basis = []
    for u, v in gens:
        if strip_common:
            u, v = _strip(u, v)
        ov = _orient(u, v, key)
        if ov and ov not in basis:
            basis.append(ov)
    heap = []
    counter = 0
    for i in range(len(basis)):
        for j in range(i):
            lcm = tuple(max(a, b) for a, b in zip(basis[i][0], basis[j][0]))
            counter += 1
            heapq.heappush(heap, (key(lcm), counter, i, j))
    while heap:
        _, _, i, j = heapq.heappop(heap)
        hi, ti = basis[i]
        hj, tj = basis[j]
        if all(a == 0 or b == 0 for a, b in zip(hi, hj)):
            continue
        lcm = tuple(max(a, b) for a, b in zip(hi, hj))
        u = tuple(l - a + b for l, a, b in zip(lcm, hi, ti))
        v = tuple(l - a + b for l, a, b in zip(lcm, hj, tj))
        if u == v:
            continue
        if strip_common:
            u, v = _strip(u, v)
        ov = _orient(u, v, key)
        red = _reduce_full(ov[0], ov[1], basis, key)
        if red is None:
            continue
        u, v = red
        if strip_common:
            u, v = _strip(u, v)
        ov = _orient(u, v, key)
        if ov in basis:
            continue
        basis.append(ov)
        k = len(basis) - 1
        for i2 in range(k):
            lcm = tuple(max(a, b) for a, b in zip(basis[k][0], basis[i2][0]))
            counter += 1
            heapq.heappush(heap, (key(lcm), counter, k, i2))
    return _interreduce(basis, key)


def hermite_toric_groebner(a: IntMatrix, order) -> GroebnerBasis:
    lattice = kernel_lattice_basis(a)
    return _saturated(a, order, lattice, lattice.columns())


def lll_toric_groebner(a: IntMatrix, order) -> GroebnerBasis:
    lattice = kernel_lattice_basis(a)
    return _saturated(a, order, lattice, lll_reduce(lattice.columns()))


def _saturated(a, order, lattice, start):
    basis = [(tuple(max(v, 0) for v in col), tuple(max(-v, 0) for v in col)) for col in start]
    if not basis:
        return GroebnerBasis((), order, a, lattice, True)
    w = positive_grading(a)
    for i in range(a.n):
        basis = _completion(basis, _revlex_sat_key(w, a.n, i), False)
        stripped = []
        for head, tail in basis:
            m = min(head[i], tail[i])
            if m:
                head = head[:i] + (head[i] - m,) + head[i + 1 :]
                tail = tail[:i] + (tail[i] - m,) + tail[i + 1 :]
            if head != tail:
                stripped.append((head, tail))
        basis = stripped
    basis = _completion(basis, _cost_key(order), True)
    elems = tuple(Binomial(h, t) for h, t in basis)
    generic = all(dot(order.cost, b.head) != dot(order.cost, b.tail) for b in elems)
    return GroebnerBasis(elems, order, a, lattice, generic)
