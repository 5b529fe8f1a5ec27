"""Reference standard-pair enumeration: admissible roots first, maximality after.

It shares no step with the recursion of ``stdpairs._standard_pairs``: for
every one of the 2^n faces it lists each admissible root in the box of the
ideal's largest exponents (re-testing, at every depth, each generator whose
support is assigned), and then tests each root for maximality coordinate by
coordinate.  Tests hold the library's pairs equal to it.
"""

from itertools import combinations

from toricip.stdpairs import StandardPair


def reference_standard_pairs(ideal):
    """The standard pairs of the ideal's standard monomials, as a sorted list."""
    n = ideal.nvars
    gens = ideal.generators
    maxexp = ideal.max_exponents()
    pairs = []
    for size in range(n + 1):
        for tau in combinations(range(n), size):
            taubar = [i for i in range(n) if i not in tau]
            if not gens:
                if not taubar:
                    pairs.append(StandardPair((0,) * n, tau))
                continue
            proj = [tuple(g[i] for i in taubar) for g in gens]
            if any(not any(p) for p in proj):
                continue
            proj = _minimalize(proj)
            bounds = [maxexp[i] for i in taubar]
            for u in _admissible_roots(taubar, proj, bounds):
                if _is_maximal(u, proj):
                    root = [0] * n
                    for t, i in enumerate(taubar):
                        root[i] = u[t]
                    pairs.append(StandardPair(tuple(root), tau))
    return sorted(pairs, key=lambda p: (len(p.face), p.face, p.root))


def _admissible_roots(taubar, proj_gens, bounds):
    k = len(taubar)
    lastnz = [max((t for t in range(k) if g[t] != 0), default=-1) for g in proj_gens]
    out = []

    def rec(depth, u):
        for gi, g in enumerate(proj_gens):
            if lastnz[gi] < depth and all(g[t] <= u[t] for t in range(depth)):
                return
        if depth == k:
            out.append(tuple(u))
            return
        for v in range(bounds[depth]):
            u.append(v)
            rec(depth + 1, u)
            u.pop()

    rec(0, [])
    return out


def _minimalize(gens):
    gens = sorted(set(gens))
    out = []
    for g in gens:
        if not any(all(e <= x for e, x in zip(h, g)) for h in out):
            out.append(g)
    return out


def _is_maximal(u, proj_gens):
    k = len(u)
    for skip in range(k):
        ok = False
        for g in proj_gens:
            if all(t == skip or g[t] <= u[t] for t in range(k)):
                ok = True
                break
        if not ok:
            return False
    return True
