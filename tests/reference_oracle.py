"""Reference root search of the brute-force standard-pair oracle.

This is the search ``oracle.brute_force_standard_pairs`` ran before each
node carried the thresholds its prefix still dominates.  Every node re-tests
every threshold against the whole prefix, and every dropped row re-slices
the root and scans its thresholds with nested generators.  Tests hold the
oracle's per-face roots equal to it.  It takes its lattice points and
boundedness test from ``fibers``, never from ``oracle``.
"""

from reference_linalg import dot

from toricip.fibers import Elimination, lattice_points_boxed


def reference_face_roots(brows, caps, crow, ndim):
    """Roots w <= caps of one face: thresholds, drop thresholds, then the search."""
    thresholds = reference_thresholds(brows, caps, crow, ndim)
    drops = []
    for k in range(len(brows)):
        kept = [t for t in range(len(brows)) if t != k]
        normals = [brows[t] for t in kept] + [crow[0]]
        if not Elimination(normals, ndim).bounded:
            drops.append(None)  # unbounded: admits a point for free
        else:
            drops.append(reference_thresholds(
                [brows[t] for t in kept], [caps[t] for t in kept], crow, ndim))
    return reference_roots(thresholds, caps, drops)


def reference_thresholds(brows, caps, crow, ndim):
    """Minimal clipped B-images of the nonzero points reachable within caps."""
    rows = [(brows[t], caps[t]) for t in range(len(brows))] + [crow]
    zero = (0,) * ndim
    thresh = set()
    for z in lattice_points_boxed(rows, ndim):
        if z == zero:
            continue
        thresh.add(tuple(max(dot(b, z), 0) for b in brows))
    out = []
    for t in sorted(thresh):
        if not any(all(e <= x for e, x in zip(s, t)) for s in out):
            out.append(t)
    return out


def reference_roots(thresholds, caps, drops):
    """The undominated w that every bounded drop (not None) lets go."""

    def drops_ok(w):
        for k, th in enumerate(drops):
            if th is None:
                continue
            rest = w[:k] + w[k + 1 :]
            if not any(all(e <= x for e, x in zip(t, rest)) for t in th):
                return False
        return True

    return [w for w in reference_undominated(thresholds, caps) if drops_ok(w)]


def reference_undominated(thresholds, caps):
    """All w in the cap box dominating no threshold vector, lex order."""
    k = len(caps)
    lastnz = [max((t for t in range(k) if th[t] != 0), default=-1) for th in thresholds]
    out = []

    def rec(depth, w):
        for ti, th in enumerate(thresholds):
            if lastnz[ti] < depth and all(th[t] <= w[t] for t in range(depth)):
                return False
        if depth == k:
            out.append(tuple(w))
            return True
        for v in range(caps[depth] + 1):
            w.append(v)
            alive = rec(depth + 1, w)
            w.pop()
            if not alive:
                break  # domination only deepens as the coordinate grows
        return True

    rec(0, [])
    return out
