"""Domain errors, the library's one check each of a caller's vector and face,
and :class:`Record`, the frozen base of its value types.

Every error carries a machine-readable ``kind`` string that the CLI maps to
exit code 1 and a JSON ``error.kind`` field.  Parse failures use ``ParseError``
(exit code 2).  Nothing here imports the package, so every module can import it.
"""

from operator import attrgetter


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


class Record:
    """A frozen value type whose class annotations name its fields, in order.

    Built positionally; trailing fields may default to a class attribute.  Equality
    and hash are a frozen dataclass's, over the fields not in ``_uncompared``, which
    the repr leaves out too.  Assignment and deletion raise AttributeError, but
    ``functools.cached_property`` writes to ``__dict__``, so it still memoizes.
    """

    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._required = sum(not hasattr(cls, f) for f in cls._fields)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        get = attrgetter(*cls._compared)
        if len(cls._compared) > 1:
            cls.__hash__ = lambda r: hash(get(r))
        else:  # attrgetter of one name returns the value; a dataclass hashes its 1-tuple
            cls.__hash__ = lambda r: hash((get(r),))
        cls.__eq__ = lambda r, o: get(r) == get(o) if o.__class__ is r.__class__ else NotImplemented

    def __init__(self, *args):
        if not self._required <= len(args) <= len(self._fields):
            raise TypeError(f"{type(self).__name__} got {len(args)} of {len(self._fields)} fields")
        for f, v in zip(self._fields, args):  # kept inline: reading __dict__ would build a dict
            object.__setattr__(self, f, v)

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"
