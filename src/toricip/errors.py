"""Domain errors raised by the library, and its one check each of a caller's vector and face.

Every error carries a machine-readable ``kind`` string that the CLI maps to
exit code 1 and a JSON ``error.kind`` field.  Parse failures use ``ParseError``
(exit code 2).  :func:`int_vector` and :func:`_face` live here, beside the
error they raise, so every module can import them without importing another.
"""


class DomainError(Exception):
    """Base class for errors in the mathematical domain (exit code 1)."""

    kind = "domain"

    def __init__(self, message=""):
        super().__init__(message or self.kind)


class RankDeficient(DomainError):
    kind = "rank_deficient"


class UnboundedFamily(DomainError):
    """The kernel of A meets the nonnegative orthant nontrivially."""

    kind = "unbounded_family"


class BadIndex(DomainError):
    kind = "bad_index"


class OutsideCone(DomainError):
    kind = "outside_cone"


class Infeasible(DomainError):
    kind = "infeasible"


class NotAFace(DomainError):
    kind = "not_a_face"


class NotOptimal(DomainError):
    kind = "not_optimal"


class ChainViolation(DomainError):
    kind = "chain_violation"


class LengthViolation(DomainError):
    kind = "length_violation"


class NotPointed(DomainError):
    kind = "not_pointed"


class NotDeltaNormal(DomainError):
    kind = "not_delta_normal"


class NotRegular(DomainError):
    kind = "not_regular"


class Unbounded(DomainError):
    kind = "unbounded"


class Degenerate(DomainError):
    kind = "degenerate"


class BoundUnavailable(DomainError):
    kind = "bound_unavailable"


class ParseError(Exception):
    """Malformed input file or CLI argument (exit code 2)."""

    kind = "parse"


def _integer(x, name="matrix"):
    """``x`` as an int; bools and non-integers are malformed entries."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{name} entry {x!r} is not an integer")
    return int(x)


def int_vector(values, length, name):
    """``values`` as a tuple of ``length`` ints, or ParseError.

    The library's one check of a caller's vector: a bool, a non-integer or a
    wrong length is malformed input, never truncated.
    """
    vec = tuple(values)
    for v in vec:
        if type(v) is not int:  # _integer rejects it, or converts an int subclass
            vec = tuple(_integer(x, name) for x in vec)
            break
    if len(vec) != length:
        raise ParseError(f"{name} has {len(vec)} entries, expected {length}")
    return vec


def _face(indices, n, base=0):
    """``indices`` as a sorted 0-based face: distinct ints in base..n-1+base, or ParseError.

    Faces are 0-based in the library and 1-based (``base=1``) in every file and flag.
    """
    face = tuple(indices)
    bad = any(type(i) is not int or not base <= i < n + base for i in face)
    if bad or len(set(face)) < len(face):
        raise ParseError(f"face {list(face)} needs distinct int indices in {base}..{n - 1 + base}")
    return tuple(sorted(i - base for i in face))
