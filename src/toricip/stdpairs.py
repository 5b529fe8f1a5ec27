"""Standard-pair decompositions of the optimal-point order ideal.

The optimal solutions of the whole family form a down set whose complement is
generated by the initial-ideal exponents.  A pair (root u, face tau) is
admissible when the shifted coordinate semigroup u + N^tau avoids the ideal,
and standard when no admissible pair properly contains it; the decomposition
by standard pairs is unique.  Roots of standard pairs are bounded coordinate-
wise by the generator exponents (a consequence of admissibility plus the
single-step maximality test), which makes the root search finite.

Faces of standard pairs are the associated sets of the family; they carry the
multiplicities, the arithmetic degree and the chain structure audited by
:func:`associated_report`.  They are faces of the triangulation and form
saturated chains down from its maximal cells (Hosten-Thomas 1999), so the
decomposition runs the root search only on the faces of a top-down walk.
"""

from functools import cached_property
from itertools import combinations

from .core import IntMatrix
from .errors import ChainViolation, LengthViolation, NotOptimal, ParseError, Record, int_vector
from .fibers import factor
from .groebner import CostOrder, GroebnerBasis, toric_groebner
from .triangulation import RegularSubdivision, lex_refinement, regular_subdivision


class MonomialIdeal(Record):
    """Minimal generating exponents of a monomial ideal (an antichain)."""

    generators: tuple
    nvars: int
    from_generic_order: bool = True

    def contains(self, u):
        return any(all(e <= x for e, x in zip(g, u)) for g in self.generators)

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
    def face_fibers(self):
        """The pair scan, built on first use: (pair, A u, factorization of A_tau) per pair.

        Pairs on maximal faces come first, then by decreasing face size; the
        pairs of a face share its factorization.
        """
        a, maximal = self.delta.matrix, set(self.delta.maximal_faces)
        fibers = {face: factor(a.columns(face)) for face in self.multiplicities}
        ordered = sorted(self.pairs, key=lambda p: (p.face not in maximal, -len(p.face), p.face, p.root))
        return tuple((p, a.apply(p.root), fibers[p.face]) for p in ordered)


def _standard_roots(proj_gens, k):
    """Roots u over the k taubar coordinates for which (u, tau) is a standard pair.

    proj_gens are the minimal generators projected to taubar.  The search
    fixes u_1, u_2, ... in turn, and each generator g keeps where it exceeds
    u so far: nowhere (-1), at the one coordinate t (t), or at two or more
    (-2).  The pair is admissible iff every g exceeds u somewhere; g
    vanishes past its last nonzero coordinate, so that is settled at that
    depth (at once for a g that projects to zero).  It is maximal iff every
    coordinate t is the lone excess of some g (such a g keeps t out of the
    face).  Excess sets only grow, so a coordinate left without such a g
    prunes the subtree, and since a lone excess needs g_t > u_t, the
    generators' box bounds the search.
    """
    bounds = [max((g[t] for g in proj_gens), default=0) for t in range(k)]
    due = [[] for _ in range(k + 1)]
    for i, g in enumerate(proj_gens):
        due[max((t for t in range(k) if g[t] != 0), default=-1) + 1].append(i)
    out = []

    def rec(depth, u, over):
        if any(over[i] == -1 for i in due[depth]):
            return  # g divides x^u
        if len({t for t in over if t >= 0}) < depth:
            return  # a coordinate fixed so far could join the face
        if depth == k:
            out.append(tuple(u))
            return
        for v in range(bounds[depth]):
            u.append(v)
            rec(depth + 1, u, [t if g[depth] <= v else depth if t == -1 else -2
                               for g, t in zip(proj_gens, over)])
            u.pop()

    rec(0, [], [-1] * len(proj_gens))
    return out


def _face_pairs(ideal: MonomialIdeal, tau):
    """The standard pairs of the ideal on the face tau."""
    taubar = [i for i in range(ideal.nvars) if i not in tau]
    proj = _minimalize(tuple(g[i] for i in taubar) for g in ideal.generators)
    pairs = []
    for u in _standard_roots(proj, len(taubar)):
        root = dict(zip(taubar, u))
        pairs.append(StandardPair(tuple(root.get(i, 0) for i in range(ideal.nvars)), tau))
    return pairs


def standard_pair_decomposition(ideal: MonomialIdeal, delta: RegularSubdivision) -> Decomposition:
    """The unique standard-pair decomposition of the standard monomials.

    ``delta`` is the triangulation of the order that gave the ideal.  The
    pair faces (the associated sets) include every maximal cell, and each
    one below full size lies in one a size larger (Hosten-Thomas, The
    associated primes of initial ideals of lattice ideals, Math. Res. Lett.
    1999).  So a walk by size from the top finds them all: the candidates of
    a size are the maximal cells and the subsets of the associated sets one
    size larger, and a candidate is associated iff it has a root.  A
    maximal cell without one means the ideal and delta do not belong
    together and raises ChainViolation.
    """
    n = ideal.nvars
    if n != delta.matrix.n:
        raise ParseError(f"the ideal has {n} variables, the subdivision {delta.matrix.n}")
    maximal = set(delta.maximal_faces)
    pairs = []
    level = set()
    for size in range(n, -1, -1):
        below = set()
        for tau in sorted(level | {f for f in maximal if len(f) == size}):
            found = _face_pairs(ideal, tau)
            if found:
                pairs += found
                below.update(tau[:i] + tau[i + 1:] for i in range(size))
            elif tau in maximal:
                raise ChainViolation(f"maximal face {tau} is not associated")
        level = below
    return Decomposition.from_pairs(pairs, delta)


def _minimalize(gens):
    """The minimal elements of a set of exponent vectors, in ascending order."""
    gens = sorted(set(gens))
    out = []
    for g in gens:
        if not any(all(e <= x for e, x in zip(h, g)) for h in out):
            out.append(g)
    return out


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
    assoc_set = set(assoc)
    for sigma in delta.maximal_faces:
        if sigma not in assoc_set:
            raise ChainViolation(f"maximal face {sigma} is not associated")
    d = a.d
    for tau in assoc:
        if len(tau) < d:
            stau = set(tau)
            if not any(
                len(t2) == len(tau) + 1 and stau < set(t2) for t2 in assoc_set
            ):
                raise ChainViolation(f"no one-step extension for associated set {tau}")
    # longest chain in the inclusion poset
    order = sorted(assoc, key=len)
    best_len = {}
    best_pred = {}
    for t in order:
        st = set(t)
        best = 0
        pred = None
        for t2 in order:
            if len(t2) >= len(t):
                break
            if set(t2) < st and best_len[t2] + 1 > best:
                best = best_len[t2] + 1
                pred = t2
        best_len[t] = best
        best_pred[t] = pred
    top = max(order, key=lambda t: best_len[t])
    chain = [top]
    while best_pred[chain[-1]] is not None:
        chain.append(best_pred[chain[-1]])
    chain.reverse()
    corank = a.n - a.d
    bound = min(d, 2**corank - (corank + 1)) if corank > 0 else 0
    length = best_len[top]
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
    covering = []
    for p in decomp.pairs:
        face = set(p.face)
        if all(v[i] == p.root[i] for i in range(len(v)) if i not in face) and all(
            v[i] >= 0 for i in range(len(v))
        ):
            covering.append(p.face)
    if not covering:
        raise NotOptimal(f"{v} is not covered by any standard pair")
    out = set()
    for face in covering:
        for k in range(len(face) + 1):
            out.update(combinations(face, k))
    return sorted(out, key=lambda f: (len(f), f))
