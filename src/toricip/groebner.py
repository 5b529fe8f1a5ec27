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

The final completion, under the cost order, also skips every popped pair
whose two tails share a variable; the passes reduce every pair they pop.
Proof: the final completion's input generates I_A, by the saturation lemma
(:func:`_saturating_variables`).  I_A is prime and w-homogeneous for the
positive grading w, and the two monomials of such a pair's S-binomial share
the variable, so the S-binomial is x^m h with m != 0 and h in I_A of lower
w-degree.  By induction on w-degree, h already has a standard representation
by the final basis, and so has x^m h; the Gebauer-Moeller criteria lean only
on pairs of lower or equal degree.  In a pass the ideal is not yet I_A, and
skipping there changes the bases.

Inside a completion a monomial is a pair of ints of fixed-width exponent
fields (:class:`_Fields`): divisibility is one add and mask against guard
bits, an lcm or common factor a fieldwise max or min (SWAR: SIMD within a
register), and a shift u - head + tail one add.  The width holds the inputs'
degrees; a degree that outgrows it restarts the completion at double width.
``normal_form`` reduces exponent tuples, since its caller's exponents are
unbounded.

The order is the cost refined by lex, encoded as a sort key, so every run is
deterministic even for non-generic costs; genericity is reported, never
assumed.
"""

import heapq
from functools import cached_property, lru_cache
from itertools import count
from operator import add, le, sub, truth

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
    """Weight-graded reverse lex with one variable cheapest (saturation pass).

    Ties of the grading go to the smaller exponent of ``seq[0]``, the
    cheapest variable, then of ``seq[1]``, and so on down from x_n.
    """

    def __init__(self, grading, n, cheapest):
        self.grading = grading
        self.seq = [cheapest, *(j for j in reversed(range(n)) if j != cheapest)]


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


def _reduce(u, basis):
    """x^u reduced by the first (head, tail - head, ...) whose head divides it, until none does."""
    while True:
        for g in basis:
            if all(map(le, g[0], u)):
                u = tuple(map(add, u, g[1]))
                break
        else:
            return u


_WIDTH = 8  # the least field width in bits; the degrees of a completion's input may ask for more


class _Wider(Exception):
    """A degree reached a quarter of its field: the completion starts again at double width."""


class _Fields:
    """One completion's monomials as ints of ``width``-bit exponent fields.

    The field of variable seq[k] lies k fields below the top one, so the
    fields compare as an int the way the order breaks ties.  A monomial x^u is
    a pair (k, p) of ints, both linear in u, with B = 2^width and f(u) its
    fields: the key k = weight(u) B^n + sign f(u) (sign -1 for reverse lex),
    which compares as the order does since 0 <= f(u) < B^n, and
    p = deg(u) B^n + f(u).  Every p kept or reduced has deg(u) < 2^(width-2)
    (else :class:`_Wider`), so each field stays below 2^(width-2) too, a
    shift u - head + tail stays below the guard bit 2^(width-1) in every field,
    and no field ever borrows from or carries into its neighbour.
    """

    def __init__(self, order, n, width):
        if isinstance(order, CostOrder):
            self.weights, seq, self.sign = order.cost, range(n), 1
        else:
            self.weights, seq, self.sign = order.grading, order.seq, -1
        self.shifts = [0] * n
        for k, j in enumerate(seq):
            self.shifts[j] = width * (n - 1 - k)
        self.base = 1 << width * n  # B^n: deg and weight sit above every field
        self.low = self.base - 1
        self.field = (1 << width) - 1
        self.ones = self.low // self.field  # 1 in every field
        self.guard = self.ones << width - 1
        self.nonzero = self.guard - self.ones  # x + nonzero & guard: the fields where x > 0
        self.top = width * (n - 1)  # x * ones >> top & field: the sum of x's fields
        self.shift = width - 1
        self.limit = self.base << width - 2

    def pack(self, u):
        x = sum(e << s for e, s in zip(u, self.shifts))
        return dot(self.weights, u) * self.base + self.sign * x, sum(u) * self.base + x

    def unpack(self, x):
        field = self.field
        return [x >> s & field for s in self.shifts]

    def key(self, x):
        """The key of the fields ``x``."""
        return dot(self.weights, self.unpack(x)) * self.base + self.sign * x


def _lcm(x, y, f):
    """The fieldwise maximum of the fields ``x`` and ``y``: where x - y keeps its guard bit, x."""
    t = x + f.guard - y & f.guard
    return y ^ (x ^ y) & t - (t >> f.shift)


def _divisor(p, basis, guard):
    """The first element of ``basis`` whose head divides x^p, or None: one add and mask each."""
    for g in basis:
        if p + g[0] & guard == guard:
            return g
    return None


def _strip(u, v, f):
    """x^u and x^v, (k, p) pairs, without the monomial they share; _Wider if either is too large."""
    x, y = u[1] & f.low, v[1] & f.low
    t = x + f.guard - y & f.guard
    c = x ^ (x ^ y) & t - (t >> f.shift)  # the fieldwise minimum
    if c:
        k = f.key(c)
        p = (c * f.ones >> f.top & f.field) * f.base + c
        u, v = (u[0] - k, u[1] - p), (v[0] - k, v[1] - p)
    if u[1] >= f.limit or v[1] >= f.limit:
        raise _Wider
    return u, v


def _reduce_full(u, v, basis, f):
    """Full normal form of x^u - x^v stripped of its common factor; None when it reduces to zero.

    The head is reduced until no head divides it, swapping with the tail
    whenever it falls below it; then the tail is reduced.
    """
    (kh, ph), (kt, pt) = _strip(u, v, f)
    if ph == pt:
        return None
    if kh < kt:
        kh, ph, kt, pt = kt, pt, kh, ph
    while (g := _divisor(ph, basis, f.guard)) is not None:
        kh += g[1]
        ph += g[2]
        if ph >= f.limit:
            raise _Wider
        if ph == pt:
            return None
        if kh < kt:
            kh, ph, kt, pt = kt, pt, kh, ph
    return (kh, ph), _reduce_packed(kt, pt, basis, f)


def _reduce_packed(k, p, basis, f):
    """x^p with key k reduced by the first element whose head divides it, until none does."""
    guard, limit = f.guard, f.limit
    while True:
        for g in basis:
            if p + g[0] & guard == guard:
                k += g[1]
                p += g[2]
                if p >= limit:
                    raise _Wider
                break
        else:
            return k, p


def _chain(queue, basis, x, f):
    """The queued pairs that the new head's fields ``x`` leave (Gebauer-Moeller criterion B).

    A pair (lcm key, counter, i, j, lcm) goes when x divides its lcm and the
    lcm differs from both lcm(x, head_i) and lcm(x, head_j): the new
    element's pairs with i and with j then cover its S-polynomial.
    """
    guard, gx, low = f.guard, f.guard - x, f.low
    kept = [e for e in queue if e[4] + gx & guard != guard
            or _lcm(x, basis[e[2]][3], f) == e[4] & low
            or _lcm(x, basis[e[3]][3], f) == e[4] & low]
    if len(kept) < len(queue):
        heapq.heapify(kept)
    return kept


def _new_pairs(x, degree, basis, partners, f):
    """The pairs (2 deg + 1, i, lcm) of the new head's fields ``x`` that the criteria keep.

    Gebauer-Moeller criteria M and F: in increasing degree, coprime pairs
    first among equal lcms, a pair goes when the lcm of a pair kept before
    it divides its own (:func:`_minimal_lcms`).  Then every pair with coprime
    heads goes, its S-polynomial reducing to zero (Buchberger's first
    criterion).  Two heads are coprime when the degree of their lcm is the
    sum of theirs.
    """
    guard, shift, ones, top, field = f.guard, f.shift, f.ones, f.top, f.field
    xg = x + guard
    cands = []
    for i in partners:
        g = basis[i]
        y = g[3]
        t = xg - y & guard
        lcm = y ^ (x ^ y) & t - (t >> shift)  # as in _lcm
        deg = lcm * ones >> top & field
        cands.append((2 * deg + (deg < degree + g[4]), i, lcm))
    cands.sort()
    return [c for c in _minimal_lcms(cands, f.guard) if c[0] & 1]


def _minimal_lcms(cands, guard):
    """The candidates (2 degree + shared, i, lcm), in order, that no kept lcm divides."""
    kept = []
    lcms = []  # guard - lcm of the kept ones
    for c in cands:
        lcm = c[2]
        for gl in lcms:
            if lcm + gl & guard == guard:
                break
        else:
            kept.append(c)
            lcms.append(guard - lcm)
    return kept


def _completion(gens, order):
    """Buchberger completion for binomials, each stripped of its common factor; the reduced basis.

    The monomials are packed (:class:`_Fields`) at the least width that
    holds the inputs' degrees, at least ``_WIDTH`` bits; a degree that grows
    past a quarter of its field restarts the completion at double width, so
    every width processes the same pairs in the same order.
    """
    width = max(_WIDTH, max(sum(u) for pair in gens for u in pair).bit_length() + 2)
    while True:
        try:
            return _complete(gens, order, _Fields(order, len(gens[0][0]), width))
        except _Wider:
            width *= 2


def _complete(gens, order, f):
    """The completion at one width (:func:`_completion`).

    Each element added runs the Gebauer-Moeller update: its head drops the
    queued pairs it chains away (:func:`_chain`), and only its pairs with
    elements whose heads no later head divides pass :func:`_new_pairs`.
    The queue hands out pairs by lcm in the order.  Under the cost order
    a popped pair whose tails share a variable goes unreduced (the module
    docstring proves it); the saturation passes reduce every popped pair.
    """
    skip_shared_tails = isinstance(order, CostOrder)
    guard, low, base = f.guard, f.low, f.base
    # per element: guard - head fields, tail - head as k and as p, head fields,
    # head degree, head (k, p), tail (k, p), the tail's support as guard bits
    basis = []
    queue = []  # heap of (lcm key, counter, i, j, lcm as p)
    partners = []  # the elements whose heads no later head divides
    counter = count()

    def insert(u, v):
        """Strip and orient x^u - x^v, and update the queue with its pairs."""
        u, v = _strip(u, v, f)
        if u[0] < v[0]:
            u, v = v, u
        x, degree = u[1] & low, u[1] // base
        k = len(basis)
        if queue:
            queue[:] = _chain(queue, basis, x, f)
        for rank, i, lcm in _new_pairs(x, degree, basis, partners, f):
            heapq.heappush(queue, (f.key(lcm), next(counter), k, i, (rank >> 1) * base + lcm))
        partners[:] = [i for i in partners if basis[i][3] + guard - x & guard != guard]
        partners.append(k)
        basis.append((guard - x, v[0] - u[0], v[1] - u[1], x, degree, u, v,
                      (v[1] & low) + f.nonzero & guard))

    for u, v in gens:
        insert(f.pack(u), f.pack(v))
    while queue:
        k, _, i, j, p = heapq.heappop(queue)
        gi, gj = basis[i], basis[j]
        if skip_shared_tails and gi[7] & gj[7]:
            continue
        red = _reduce_full((k + gi[1], p + gi[2]), (k + gj[1], p + gj[2]), basis, f)
        if red is not None:
            insert(*red)
    return _interreduce(basis, f)


def _interreduce(basis, f):
    """Minimalize heads, then put every tail in normal form; (head, tail) tuples sorted by head key.

    Heads are minimalized in (total degree, key) order, where a divisor
    always comes before its multiples: with a negative cost entry a multiple
    can have the smaller key.
    """
    kept = []
    for g in sorted(basis, key=lambda g: (g[4], g[5])):
        if _divisor(g[5][1], kept, f.guard) is None:
            kept.append(g)
    out = [(g[5], _reduce_packed(*g[6], kept[:idx] + kept[idx + 1 :], f))
           for idx, g in enumerate(kept)]
    return [(tuple(f.unpack(h[1])), tuple(f.unpack(t[1]))) for h, t in sorted(out)]


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
