"""Toric Groebner bases and integer programming by normal-form reduction.

The toric ideal of A is the binomial ideal of its kernel relations.  We start
from the binomials of an LLL-reduced basis of the saturated kernel lattice,
run a binomial Buchberger completion, and saturate by each variable of a set
S in turn with a graded reverse-lexicographic pass (the lattice-ideal
saturation trick: for positively graded ideals, dividing every reduced-basis
element by the variable made cheapest computes the quotient by that
variable's powers).  S need not hold every variable: once the variables of S
are units, each start binomial whose one side is made of units makes its
other side's variables units too, and when that reaches every variable,
saturating by S alone gives the toric ideal (:func:`_saturating_variables`,
as in Hosten and Sturmfels' GRIN, IPCO 1995; planned again after each pass).
A final completion under the cost order yields the reduced basis, the unique
minimal test set of the family.  Any lattice basis gives the same toric ideal
and so the same reduced basis; short vectors keep the intermediate bases
small, where the long vectors of a column-Hermite basis can make them grow.

Every completion, pass or final, strips each binomial it takes in (input or
S-pair remainder) of the monomial its two terms share.  The toric ideal is
prime and holds no monomial, so a binomial of it stays in it once that factor
is gone: no completion leaves the toric ideal, and one pass's division by its
cheapest variable is the next completion's stripping of its inputs (the last
pass's is the final completion's).  Bigatti, La Scala and Robbiano (JSC 1999)
saturate the same way.  Each completion runs the Gebauer-Moeller update (JSC
1988) on every element it adds, so many S-pairs whose reduction would come to
zero are never queued: the chain criterion on the queued pairs, the lcm
criteria on the new ones, and the coprime-heads test.  The passes grade by
the y that ``IntMatrix`` validation found; any positive grading serves.

The order is the cost refined by lex, encoded as a sort key, so every run is
deterministic even for non-generic costs; genericity is reported, never
assumed.
"""

import heapq
from functools import cached_property, lru_cache
from itertools import count
from operator import add, itemgetter, le, neg, sub, truth

from .core import IntMatrix, LatticeBasis, kernel_lattice_basis
from .errors import Infeasible, ParseError, Record, int_vector
from .linalg import dot, lll_reduce


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
        self._revlex = itemgetter(*self.seq)  # n >= 2: a completion needs a kernel

    def key(self, u):
        return (dot(self.grading, u), *map(neg, self._revlex(u)))


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

    @cached_property
    def reducers(self):
        """(head, tail - head) per element, in order: the table :func:`normal_form` reduces by."""
        return tuple((b.head, tuple(map(sub, b.tail, b.head))) for b in self.elements)


def _mask(u):
    """The support of x^u as an int, one byte per variable, so a subset test is one ``&``."""
    return int.from_bytes(bytes(map(truth, u)), "little")


def _divisor(u, basis):
    """The first element of ``basis`` whose head divides x^u, or None."""
    m = _mask(u)
    for g in basis:
        if not g[2] & ~m and all(map(le, g[0], u)):
            return g
    return None


def _strip(u, v):
    m = tuple(map(min, u, v))
    if any(m):
        u = tuple(map(sub, u, m))
        v = tuple(map(sub, v, m))
    return u, v


def _reduce_full(u, v, basis, key):
    """Full normal form of x^u - x^v stripped of its common factor; None when it reduces to zero.

    Each monomial's key is taken once: the tail's is carried while the head reduces.
    """
    head, tail = _strip(u, v)
    if head == tail:
        return None
    kh, kt = key(head), key(tail)
    if kh < kt:
        head, tail, kh, kt = tail, head, kt, kh
    while (g := _divisor(head, basis)) is not None:
        head = tuple(map(add, head, g[1]))
        if head == tail:
            return None
        kh = key(head)
        if kh < kt:
            head, tail, kh, kt = tail, head, kt, kh
    return head, _reduce(tail, basis)


def _reduce(u, basis):
    """x^u reduced by the first (head, tail - head, ...) whose head divides it, until none does."""
    while True:
        for g in basis:
            if all(map(le, g[0], u)):
                u = tuple(map(add, u, g[1]))
                break
        else:
            return u


def _chain(queue, basis, h):
    """The queued pairs that the new head ``h`` leaves (Gebauer-Moeller criterion B).

    A pair (lcm key, counter, i, j, lcm, its support) goes when h divides
    its lcm and the lcm differs from both lcm(h, head_i) and lcm(h, head_j):
    the new element's pairs with i and with j then cover its S-polynomial.
    """
    m = _mask(h)
    kept = [e for e in queue if m & ~e[5] or not all(map(le, h, e[4]))
            or tuple(map(max, h, basis[e[2]][0])) == e[4]
            or tuple(map(max, h, basis[e[3]][0])) == e[4]]
    if len(kept) < len(queue):
        heapq.heapify(kept)
    return kept


def _new_pairs(h, basis, partners):
    """The pairs (lcm, i, its support) of the new head ``h`` with partners i that the criteria keep.

    Gebauer-Moeller criteria M and F: in increasing degree, coprime pairs
    first among equal lcms, a pair goes when the lcm of a pair kept before
    it divides its own (:func:`_minimal_lcms`).  Then every pair with coprime
    heads goes, its S-polynomial reducing to zero (Buchberger's first criterion).
    """
    m = _mask(h)
    degree = sum(h)
    cands = []
    for i in partners:
        g = basis[i]
        lcm = list(h)
        deg = degree
        for j, e in g[4]:  # the lcm is h raised to head_i's exponents, where those are larger
            if e > lcm[j]:
                deg += e - lcm[j]
                lcm[j] = e
        cands.append((2 * deg + bool(m & g[2]), i, tuple(lcm), m | g[2]))
    cands.sort()
    return [(lcm, i, lm) for rank, i, lcm, lm in _minimal_lcms(cands) if rank & 1]


def _minimal_lcms(cands):
    """The candidates (2 degree + shared, i, lcm, support), in order, that no kept lcm divides."""
    kept = []
    lcms = []  # (support, lcm) of the kept ones
    for c in cands:
        _, _, lcm, m = c
        for km, kl in lcms:
            if not km & ~m and all(map(le, kl, lcm)):
                break
        else:
            kept.append(c)
            lcms.append((m, lcm))
    return kept


def _completion(gens, order):
    """Buchberger completion for binomials, each stripped of its common factor; the reduced basis.

    Each element added runs the Gebauer-Moeller update: its head drops the
    queued pairs it chains away (:func:`_chain`), and only its pairs with
    elements whose heads no later head divides pass :func:`_new_pairs`.
    The queue hands out pairs by lcm in the order.  Each element carries
    its head's support and key, so a key is taken once per monomial.
    """
    key = order.key
    basis = []  # (head, tail - head, head support, tail, the head's nonzero (j, e), head key)
    queue = []  # heap of (lcm key, counter, i, j, lcm, support of the lcm)
    partners = []  # the elements whose heads no later head divides
    counter = count()

    def insert(u, v):
        """Strip and orient x^u - x^v, and update the queue with its pairs."""
        u, v = _strip(u, v)
        ku, kv = key(u), key(v)
        if ku < kv:
            u, v, ku = v, u, kv
        k = len(basis)
        if queue:
            queue[:] = _chain(queue, basis, u)
        for lcm, i, support in _new_pairs(u, basis, partners):
            heapq.heappush(queue, (key(lcm), next(counter), k, i, lcm, support))
        m = _mask(u)
        partners[:] = [i for i in partners
                       if m & ~basis[i][2] or not all(map(le, u, basis[i][0]))]
        partners.append(k)
        nonzero = tuple((j, e) for j, e in enumerate(u) if e)
        basis.append((u, tuple(map(sub, v, u)), m, v, nonzero, ku))

    for u, v in gens:
        insert(u, v)
    while queue:
        _, _, i, j, lcm, _ = heapq.heappop(queue)
        red = _reduce_full(tuple(map(add, lcm, basis[i][1])), tuple(map(add, lcm, basis[j][1])),
                           basis, key)
        if red is not None:
            insert(*red)
    return _interreduce(basis)


def _interreduce(basis):
    """Minimalize heads, then put every tail in normal form; sorted by head key.

    Heads are minimalized in (total degree, key) order, where a divisor
    always comes before its multiples: with a negative cost entry a multiple
    can have the smaller key.
    """
    kept = []
    for g in sorted(basis, key=lambda g: (sum(g[0]), g[5])):
        if _divisor(g[0], kept) is None:
            kept.append(g)
    out = [(g[5], g[0], _reduce(g[3], kept[:idx] + kept[idx + 1 :])) for idx, g in enumerate(kept)]
    return [(h, t) for _, h, t in sorted(out)]


def _saturating_variables(gens, n, seed=()):
    """The variables S to saturate by, in pass order: often fewer than all n.

    Lemma: let U be the closure of S under the rule that when one side of a
    generator x^p - x^q has its support inside U, the other side's support
    joins U.  Let J be the ideal of the generators, I_B inside J inside I_A.
    If U holds every variable, then J : (prod_S x_s)^inf = I_A.  In
    k[x][x_S^-1]/J, x^p = x^q, so when x^q is a unit so is x^p and every
    variable dividing it; every variable is then a unit, and saturating J by
    x_S saturates it by x_1...x_n, which gives I_A: I_B already does, and
    I_A is saturated.  Each pass's ideal contains the saturation of the one
    before, so passes over S alone end in I_A.  S is grown greedily from the
    closure of ``seed``, which S leaves out: each step adds the variable that
    grows U most, the lowest index among ties.

    Re-planning after the pass by x_s: the pass's basis spans such a J, and
    J : x_s = J, since no head of that reduced basis is divisible by x_s.
    Under a graded order with x_s cheapest, x_s divides the head of a
    homogeneous binomial only if it divides the tail too, and each element
    is stripped of the monomial its terms share.  So J : (x_s prod_S' x_t)^inf
    = J : (prod_S' x_t)^inf, which is I_A for the S' planned with ``seed`` (s,).
    """
    sides = [(_mask(u), _mask(v)) for u, v in gens]

    def closure(reach):
        before = None
        while reach != before:
            before = reach
            for p, q in sides:
                if not p & ~reach or not q & ~reach:
                    reach |= p | q
        return reach

    chosen, reach, full = [], closure(sum(1 << 8 * s for s in seed)), _mask((1,) * n)
    while reach != full:
        grown = {j: closure(reach | 1 << 8 * j) for j in range(n) if not reach >> 8 * j & 1}
        j = max(grown, key=lambda j: (grown[j].bit_count(), -j))
        chosen.append(j)
        reach = grown[j]
    return chosen


def positive_grading(a: IntMatrix):
    """An integer vector w = yA with all entries positive, y the grading kept on A.

    Some positive grading, not a particular one: ``IntMatrix`` validation
    found y (:func:`core.grading`).  It makes every kernel binomial
    homogeneous, which the saturation passes rely on, and the reduced basis
    they lead to does not depend on which grading it is.
    """
    return tuple(dot(a.grading, a.column(j)) for j in range(a.n))


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
    plan = _saturating_variables(basis, a.n)
    while plan:
        s = plan.pop(0)
        basis = _completion(basis, _RevlexSat(w, a.n, s))
        if plan:  # a strictly shorter plan on the pass's basis replaces the rest
            plan = min(plan, _saturating_variables(basis, a.n, (s,)), key=len)
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
    return _reduce(u, gb.reducers)


def solve_ip(a: IntMatrix, order: CostOrder, b):
    """Optimal point of min {cost . x : Ax = b, x in N^n} via normal form.

    A feasible point is taken from the fiber sweep (lex-first, cost-blind),
    through the factorization A keeps, and reduced by the basis; by the
    test-set property the result is the unique optimum under the order.
    """
    _check_order(a, order)
    u = a.fibers.first(b)
    if u is None:
        raise Infeasible(f"no lattice point with A x = {tuple(b)}")
    return normal_form(toric_groebner(a, order), u)
