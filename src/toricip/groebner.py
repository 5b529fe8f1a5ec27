"""Toric Groebner bases and integer programming by normal-form reduction.

The toric ideal of A is the binomial ideal of its kernel relations.  We start
from the binomials of an LLL-reduced basis of the saturated kernel lattice,
run a binomial Buchberger completion, and saturate by each variable in turn
with a graded reverse-lexicographic pass (the lattice-ideal saturation trick:
for positively graded ideals, dividing every reduced-basis element by the
variable made cheapest computes the quotient by that variable's powers).  A
final completion under the cost order yields the reduced basis, the unique
minimal test set of the family.  Any lattice basis gives the same toric ideal
and so the same reduced basis; short vectors keep the intermediate bases
small, where the long vectors of a column-Hermite basis can make them grow.

Every completion, pass or final, strips each binomial it takes in (input or
S-pair remainder) of the monomial its two terms share.  The toric ideal is
prime and holds no monomial, so a binomial of it stays in it once that factor
is gone: no completion leaves the toric ideal, and one pass's division by its
cheapest variable is the next completion's stripping of its inputs (the last
pass's is the final completion's).  Bigatti, La Scala and Robbiano (JSC 1999)
saturate the same way.

The order is the cost refined by lex, encoded as a sort key, so every run is
deterministic even for non-generic costs; genericity is reported, never
assumed.
"""

import heapq
from functools import lru_cache
from itertools import count
from operator import le, sub

from .core import IntMatrix, LatticeBasis, grading, kernel_lattice_basis
from .errors import Infeasible, ParseError, Record, int_vector
from .linalg import clear_denominators, dot, lll_reduce


class CostOrder(Record):
    """Total order on monomials: cost, then lex.  The cost is checked as an int vector."""

    cost: tuple

    def __init__(self, cost):
        cost = tuple(cost)
        object.__setattr__(self, "cost", int_vector(cost, len(cost), "cost of the order"))

    from_cost = classmethod(lambda cls, cost: cls(cost))  # the checking constructor, by name

    def key(self, u):
        return (dot(self.cost, u),) + u


class _RevlexSat:
    """Weight-graded reverse lex with one variable cheapest (saturation pass)."""

    def __init__(self, grading, n, cheapest):
        self.grading = grading
        self.seq = [j for j in range(n) if j != cheapest] + [cheapest]
        self.seq.reverse()

    def key(self, u):
        return (dot(self.grading, u),) + tuple(-u[j] for j in self.seq)


class Binomial(Record):
    """x^head - x^tail with head > tail in the working order and A(head-tail)=0."""

    head: tuple
    tail: tuple

    @property
    def vector(self):
        return tuple(a - b for a, b in zip(self.head, self.tail))


class GroebnerBasis(Record):
    elements: tuple  # Binomials sorted by head key
    order: CostOrder
    matrix: IntMatrix
    lattice: LatticeBasis
    generic: bool


def _divides(u, v):
    return all(map(le, u, v))


def _strip(u, v):
    m = tuple(map(min, u, v))
    if any(m):
        u = tuple(map(sub, u, m))
        v = tuple(map(sub, v, m))
    return u, v


def _orient(u, v, order):
    if u == v:
        return None
    return (u, v) if order.key(u) > order.key(v) else (v, u)


def _reduce_full(head, tail, basis, order):
    """Full normal form of x^head - x^tail; None when it reduces to zero."""
    changed = True
    while changed:
        changed = False
        for g in basis:
            if _divides(g[0], head):
                head = tuple(a - b + c for a, b, c in zip(head, g[0], g[1]))
                if head == tail:
                    return None
                if order.key(head) < order.key(tail):
                    head, tail = tail, head
                changed = True
                break
    return head, _reduce(tail, basis)


def _reduce(u, pairs):
    """x^u reduced by the first (head, tail) whose head divides it, until none does."""
    while True:
        for h, t in pairs:
            if _divides(h, u):
                u = tuple(a - b + c for a, b, c in zip(u, h, t))
                break
        else:
            return u


def _completion(gens, order):
    """Buchberger completion for binomials, each stripped of its common factor; the reduced basis."""
    basis = []
    heap = []
    counter = count()

    def add(u, v):
        """Strip and orient x^u - x^v, and queue its S-pairs with every element before it."""
        ov = _orient(*_strip(u, v), order)
        if ov is None or ov in basis:
            return
        for j, g in enumerate(basis):
            lcm = tuple(map(max, ov[0], g[0]))
            heapq.heappush(heap, (order.key(lcm), next(counter), len(basis), j))
        basis.append(ov)

    for u, v in gens:
        add(u, v)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        hi, ti = basis[i]
        hj, tj = basis[j]
        if all(a == 0 or b == 0 for a, b in zip(hi, hj)):
            continue  # coprime heads: S-pair reduces to zero
        lcm = tuple(max(a, b) for a, b in zip(hi, hj))
        u = tuple(l - a + b for l, a, b in zip(lcm, hi, ti))
        v = tuple(l - a + b for l, a, b in zip(lcm, hj, tj))
        if u == v:
            continue
        red = _reduce_full(*_orient(*_strip(u, v), order), basis, order)
        if red is not None:
            add(*red)
    return _interreduce(basis, order)


def _interreduce(basis, order):
    """Minimalize heads, then put every tail in normal form."""
    basis = sorted(set(basis), key=lambda g: order.key(g[0]))
    kept = []
    for g in basis:
        if not any(_divides(h[0], g[0]) for h in kept):
            kept.append(g)
    out = [(head, _reduce(tail, kept[:idx] + kept[idx + 1 :]))
           for idx, (head, tail) in enumerate(kept)]
    return sorted(out, key=lambda g: order.key(g[0]))


def positive_grading(a: IntMatrix):
    """An integer vector w = yA with all entries positive, y from :func:`core.grading`.

    Exists because the kernel of A misses the orthant (Gordan duality); makes
    every kernel binomial homogeneous, which the saturation passes rely on.
    """
    cols = [a.column(j) for j in range(a.n)]
    y = grading(cols)
    if y is None:
        raise AssertionError("no positive grading; matrix invariants violated")
    return tuple(clear_denominators([dot(y, g) for g in cols])[0])


@lru_cache(maxsize=128)
def toric_groebner(a: IntMatrix, order: CostOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the toric ideal of A under the given order.

    Built once per (A, order) and kept in a bounded cache; an order for
    another number of variables is a parse error, and is never cached.
    """
    _check_order(a, order)
    lattice = kernel_lattice_basis(a)
    basis = [(tuple(max(v, 0) for v in col), tuple(max(-v, 0) for v in col))
             for col in lll_reduce(lattice.columns())]
    if not basis:
        return GroebnerBasis((), order, a, lattice, True)
    w = positive_grading(a)
    for i in range(a.n):
        basis = _completion(basis, _RevlexSat(w, a.n, i))
    basis = _completion(basis, order)
    elems = tuple(Binomial(h, t) for h, t in basis)
    generic = all(dot(order.cost, b.head) != dot(order.cost, b.tail) for b in elems)
    return GroebnerBasis(elems, order, a, lattice, generic)


cached_groebner = toric_groebner  # the cache, for cache_info() and cache_clear()


def _check_order(a: IntMatrix, order: CostOrder):
    int_vector(order.cost, a.n, "cost of the order")


def is_generic(a: IntMatrix, cost):
    """Whether every reduced-basis element has a strict cost gap.

    Returns (flag, witness): on failure the witness is a basis binomial whose
    two monomials tie under the cost (so optima are not unique).
    """
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    for b in gb.elements:
        if dot(gb.order.cost, b.head) == dot(gb.order.cost, b.tail):
            return False, b
    return True, None


def normal_form(gb: GroebnerBasis, u):
    """Reduce x^u to its normal form, always by the lowest-index element."""
    u = int_vector(u, gb.matrix.n, "exponent")
    if min(u, default=0) < 0:
        raise ParseError(f"exponent {list(u)} has a negative entry")
    return _reduce(u, [(b.head, b.tail) for b in gb.elements])


def solve_ip(a: IntMatrix, order: CostOrder, b):
    """Optimal point of min {cost . x : Ax = b, x in N^n} via normal form.

    A feasible point is taken from the fiber sweep (lex-first, cost-blind),
    through the factorization of A its kernel basis carries, and reduced by
    the basis; by the test-set property the result is the unique optimum
    under the order.
    """
    _check_order(a, order)
    u = kernel_lattice_basis(a).fibers.first(b)
    if u is None:
        raise Infeasible(f"no lattice point with A x = {tuple(b)}")
    return normal_form(toric_groebner(a, order), u)
