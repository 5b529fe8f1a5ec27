"""Standard-pair decompositions of the optimal-point order ideal.

The optimal solutions of the whole family form a down set whose complement is
generated by the initial-ideal exponents.  A pair (root u, face tau) is
admissible when the shifted coordinate semigroup u + N^tau avoids the ideal,
and standard when no admissible pair properly contains it; the decomposition
by standard pairs is unique.  It belongs to the monomial ideal alone, and one
recursion finds it: split on a variable x, take the pairs with x in the face
from (J : x^inf) and the others from the slices (J : x^j) below the largest
x-exponent (:func:`_standard_pairs`).

Faces of standard pairs are the associated sets of the family; they carry the
multiplicities, the arithmetic degree and the chain structure audited by
:func:`associated_report`.  Every maximal cell of the triangulation is one.
"""

from functools import cached_property
from operator import le

from .core import IntMatrix
from .errors import ChainViolation, LengthViolation, NotOptimal, ParseError, Record, int_vector
from .groebner import CostOrder, GroebnerBasis, toric_groebner
from .linalg import dot, mat_vec
from .triangulation import RegularSubdivision, lex_refinement, regular_subdivision, subset_closure


class MonomialIdeal(Record):
    """Minimal generating exponents of a monomial ideal (an antichain)."""

    generators: tuple
    nvars: int
    from_generic_order: bool = True

    def contains(self, u):
        u = int_vector(u, self.nvars, "exponent")
        if min(u, default=0) < 0:
            raise ParseError(f"exponent {list(u)} has a negative entry")
        return any(all(map(le, g, u)) for g in self.generators)

    def max_exponents(self):
        if not self.generators:
            return (0,) * self.nvars
        return tuple(max(g[i] for g in self.generators) for i in range(self.nvars))


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """in_c(I_A): minimal elements among the basis heads.

    When the order was not generic the result is only the monomial part and is
    flagged via ``from_generic_order``.
    """
    heads = _minimalize(b.head for b in gb.elements)
    return MonomialIdeal(tuple(heads), gb.matrix.n, gb.generic)


class StandardPair(Record):
    root: tuple
    face: tuple


class Decomposition(Record):
    pairs: tuple
    delta: RegularSubdivision

    @classmethod
    def from_pairs(cls, pairs, delta):
        ordered = tuple(sorted(pairs, key=lambda p: (len(p.face), p.face, p.root)))
        return cls(ordered, delta)

    @property
    def arithmetic_degree(self):
        return len(self.pairs)

    @property
    def multiplicities(self):
        out = {}
        for p in self.pairs:
            out[p.face] = out.get(p.face, 0) + 1
        return out

    @property
    def associated_sets(self):
        return sorted(self.multiplicities, key=lambda f: (len(f), f))

    @cached_property
    def pair_scan(self):
        """The scan of :func:`~toricip.relax.solve_via_standard_pairs`, built on first use.

        Per pair, maximal faces first, then by decreasing face size: (pair, k,
        sigma, rows, the shifts rows . (A u), the denominators), where (sigma,
        rows) is the k-th of the subdivision's ``simplex_inverses``, the first
        that holds the face (a face in none raises ChainViolation), and the
        denominator at t is rows_t . a_{sigma_t} > 0 on the face and 0 off it.
        """
        a, maximal = self.delta.matrix, set(self.delta.maximal_faces)
        inverses, home = self.delta.simplex_inverses, {}
        masks = [sum(1 << j for j in sigma) for sigma, _ in inverses]
        for face in self.multiplicities:
            m = sum(1 << j for j in face)
            k = next((k for k, s in enumerate(masks) if m & s == m), None)
            if k is None:
                raise ChainViolation(f"face {face} lies in no simplex of the subdivision")
            sigma, rows = inverses[k]
            dens = tuple(dot(r, a.column(j)) if j in face else 0 for r, j in zip(rows, sigma))
            home[face] = k, sigma, rows, dens
        pairs = []
        for p in sorted(self.pairs, key=lambda p: (p.face not in maximal, -len(p.face), p.face, p.root)):
            k, sigma, rows, dens = home[p.face]
            pairs.append((p, k, sigma, rows, mat_vec(rows, a.apply(p.root)), dens))
        return tuple(pairs)


def _standard_pairs(gens, free, n, memo):
    """The standard pairs (root, face) of the ideal of ``gens`` in the variables ``free``.

    ``gens`` is a sorted antichain of n-vectors supported on ``free``, and
    ``memo`` maps each (gens, free) already split to its pairs.  The split is
    on the first variable x a generator uses.  The pairs with x in the face
    are those of (J : x^inf), which sets x to 0, with x added to the face.
    Every other pair has x^j in its root for some j below the largest
    x-exponent, and the rest of it is a pair of (J : x^j) without x, which
    keeps the generators with g_x <= j (:func:`_slices`); it is standard iff
    it meets (J : x^inf), for otherwise the pair with x added to its face
    covers it.  A pair (u, f) meets it iff some generator of (J : x^inf)
    divides u lifted to ``top`` on f: those generators are 0 off ``rest``
    and no entry of theirs exceeds ``top``, so the lift drops exactly the
    face's coordinates from the test.  (J : x^j) changes only at the
    x-exponents, so each one is split once.
    """
    key = (gens, free)
    if key in memo:
        return memo[key]
    used = list(map(any, zip(*gens)))
    if True not in used:  # the zero ideal has every monomial standard, the unit ideal none
        out = [] if gens else [((0,) * n, free)]
    else:
        x = used.index(True)
        rest = tuple(i for i in free if i != x)
        levels, slices = _slices(gens, x)
        colon = slices[-1]
        out = [(u, tuple(sorted(f + (x,)))) for u, f in _standard_pairs(colon, rest, n, memo)]
        top = 1 + max(map(max, gens))
        for lo, hi, below in zip(levels, levels[1:], slices):
            for u, f in _standard_pairs(below, rest, n, memo):
                lifted = list(u)
                for i in f:
                    lifted[i] = top
                if any(all(map(le, g, lifted)) for g in colon):
                    out += [(u[:x] + (j,) + u[x + 1:], f) for j in range(lo, hi)]
    memo[key] = out
    return out


def _slices(gens, x):
    """The x-exponents of the antichain ``gens``, with 0, and the slice (J : x^j) at each.

    A slice is the sorted antichain of the generators with g_x <= j, x set to
    0; the last one is (J : x^inf).  With x set to 0, a generator can divide
    another only if its x-exponent is strictly larger, for otherwise it
    divided the other already.  So walking the x-exponents upward, each
    level's generators are never dominated and only drop the earlier ones
    they divide.
    """
    by_level = {0: []}
    for g in gens:
        by_level.setdefault(g[x], []).append(g[:x] + (0,) + g[x + 1:])
    levels = sorted(by_level)
    slices, kept = [], []
    for e in levels:
        new = by_level[e]
        kept = [h for h in kept if not any(all(map(le, g, h)) for g in new)] + new
        slices.append(tuple(sorted(kept)))
    return levels, slices


def standard_pair_decomposition(ideal: MonomialIdeal, delta: RegularSubdivision) -> Decomposition:
    """The unique standard-pair decomposition of the standard monomials.

    ``delta`` is the triangulation of the order that gave the ideal, so every
    maximal cell is a pair face (an associated set); one that is not means
    the ideal and delta do not belong together and raises ChainViolation.
    """
    n = ideal.nvars
    if n != delta.matrix.n:
        raise ParseError(f"the ideal has {n} variables, the subdivision {delta.matrix.n}")
    pairs = _standard_pairs(_minimalize(ideal.generators), tuple(range(n)), n, {})
    faces = {f for _, f in pairs}
    for tau in delta.maximal_faces:
        if tau not in faces:
            raise ChainViolation(f"maximal face {tau} is not associated")
    return Decomposition.from_pairs([StandardPair(u, f) for u, f in pairs], delta)


def _minimalize(gens):
    """The minimal elements of a set of exponent vectors, in ascending order."""
    gens = sorted(set(gens))
    out = []
    for g in gens:
        if not any(all(map(le, h, g)) for h in out):
            out.append(g)
    return tuple(out)


class AssociatedReport(Record):
    associated_sets: tuple
    multiplicities: tuple  # (face, count) pairs
    arithmetic_degree: int
    max_chain: tuple
    max_chain_length: int
    length_bound: int


def associated_report(decomp: Decomposition, delta: RegularSubdivision) -> AssociatedReport:
    """Associated sets with multiplicities, plus the chain audit.

    Verifies that every maximal cell is associated, that every associated set
    below full rank is covered by an associated set one larger, and that the
    longest chain respects min(d, 2^(n-d) - (n-d+1)).  Violations raise: the
    theorems guarantee they cannot fire on a valid decomposition.
    """
    a = delta.matrix
    assoc = decomp.associated_sets
    sets = {t: set(t) for t in assoc}
    for sigma in delta.maximal_faces:
        if sigma not in sets:
            raise ChainViolation(f"maximal face {sigma} is not associated")
    d = a.d
    for tau, s in sets.items():
        if len(tau) < d and not any(len(t2) == len(tau) + 1 and s < s2 for t2, s2 in sets.items()):
            raise ChainViolation(f"no one-step extension for associated set {tau}")
    # longest chain in the inclusion poset: the first longest one below each set, in size order
    chains = {}
    for t, s in sets.items():
        below = [c for t2, c in chains.items() if len(t2) < len(t) and sets[t2] < s]
        chains[t] = max(below, key=len, default=()) + (t,)
    chain = max(chains.values(), key=len)
    corank = a.n - a.d
    bound = min(d, 2**corank - (corank + 1)) if corank > 0 else 0
    length = len(chain) - 1
    if length > bound:
        raise LengthViolation(f"chain of length {length} exceeds bound {bound}")
    mults = tuple(sorted(decomp.multiplicities.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return AssociatedReport(
        tuple(assoc), mults, decomp.arithmetic_degree, tuple(chain), length, bound
    )


def is_gomory_family(decomp: Decomposition, delta: RegularSubdivision) -> bool:
    """True iff every standard pair sits on a maximal cell.

    Equivalently, every program in the family is solved by one of its Gomory
    relaxations.
    """
    maximal = set(delta.maximal_faces)
    return all(p.face in maximal for p in decomp.pairs)


def decomposition_for(a: IntMatrix, cost):
    """One-stop pipeline: (triangulation, basis, decomposition) for a cost.

    When the cost is degenerate (ties in the basis or a non-simplicial cell)
    the subdivision is refined by the deterministic lex tie-break, reported in
    the returned flag, never silently.  Returns (delta, gb, decomp, refined).
    """
    delta = regular_subdivision(a, cost)
    gb = toric_groebner(a, CostOrder.from_cost(delta.cost))
    refined = not gb.generic or not delta.is_triangulation
    if refined:
        delta = lex_refinement(delta)
    decomp = standard_pair_decomposition(initial_ideal(gb), delta)
    return delta, gb, decomp, refined


def relaxations_solving(v, decomp: Decomposition):
    """All faces tau such that the tau-relaxation solves the program of A v.

    These are the subsets of faces of pairs whose semigroup contains v; raises
    NotOptimal when v is not an optimal point (it is covered by no pair).
    """
    v = int_vector(v, decomp.delta.matrix.n, "point")
    covering = [p.face for p in decomp.pairs if min(v) >= 0
                and all(v[i] == p.root[i] for i in range(len(v)) if i not in p.face)]
    if not covering:
        raise NotOptimal(f"{v} is not covered by any standard pair")
    return subset_closure(covering)
