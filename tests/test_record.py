"""``errors.Record``, the frozen base of the library's value types.

A record compares and hashes as the frozen dataclass with the same fields
would, so set and dict orders, and with them every output, do not depend on
which of the two builds the class.  Each record of one pipeline run on EX1 is
checked against a dataclass twin made with ``dataclasses.make_dataclass``.
The pipeline runs on first use, not at collection, so a library change that
breaks every IntMatrix fails those tests instead of this module's collection.
"""

from dataclasses import field, make_dataclass
from functools import cache

import pytest
from conftest import EX1, EX1_COST

from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.groebner import Binomial, CostOrder, toric_groebner
from toricip.linprog import LPResult
from toricip.stdpairs import (
    MonomialIdeal,
    StandardPair,
    associated_report,
    initial_ideal,
    standard_pair_decomposition,
)
from toricip.triangulation import regular_subdivision, unimodularity_report


RECORDS = ["IntMatrix", "LatticeBasis", "Factorization", "RegularSubdivision", "GroebnerBasis",
           "CostOrder", "Binomial", "MonomialIdeal", "Decomposition", "StandardPair",
           "AssociatedReport", "UnimodularityReport", "LPResult"]


@cache
def _records():
    """Class name -> one record of that class, from one pipeline run on EX1."""
    a = IntMatrix(EX1)
    delta = regular_subdivision(a, EX1_COST)
    gb = toric_groebner(a, CostOrder.from_cost(EX1_COST))
    ideal = initial_ideal(gb)
    decomp = standard_pair_decomposition(ideal, delta)
    records = [a, kernel_lattice_basis(a), a.fibers, delta, gb, gb.order, gb.elements[0], ideal,
               decomp, decomp.pairs[0], associated_report(decomp, delta),
               unimodularity_report(a, delta), LPResult("infeasible")]
    return {type(r).__name__: r for r in records}


def _twin(record):
    cls = type(record)
    fields = [(f, object, field(compare=f not in cls._uncompared, repr=f not in cls._uncompared))
              for f in cls._fields]
    return make_dataclass(cls.__name__, fields, frozen=True)(*(getattr(record, f) for f in cls._fields))


@pytest.mark.parametrize("name", RECORDS)
def test_hash_equality_and_repr_are_the_frozen_dataclass_s(name):
    assert list(_records()) == RECORDS
    record = _records()[name]
    twin = _twin(record)
    compared = tuple(getattr(record, f) for f in record._compared)
    assert hash(record) == hash(twin) == hash(compared)
    assert repr(record) == repr(twin)
    copy = type(record).__new__(type(record))
    copy.__dict__.update(vars(record))
    assert copy == record and not copy != record


def test_equality_is_false_across_classes():
    head, tail = (1, 0), (0, 1)
    assert Binomial(head, tail) != StandardPair(head, tail)
    assert not Binomial(head, tail) == StandardPair(head, tail)
    assert Binomial(head, tail) != (head, tail)
    assert len({Binomial(head, tail), StandardPair(head, tail)}) == 2


def test_assignment_and_deletion_raise_attribute_error():
    pair = StandardPair((0, 1), (2,))
    with pytest.raises(AttributeError, match="root"):
        pair.root = (1, 1)
    with pytest.raises(AttributeError, match="face"):
        del pair.face
    with pytest.raises(AttributeError, match="extra"):
        pair.extra = 1
    assert (pair.root, pair.face) == ((0, 1), (2,)) and "extra" not in vars(pair)


def test_uncompared_fields_stay_out_of_equality_hash_and_repr():
    fac = IntMatrix(EX1).fibers
    compared = (fac.rows, fac.h, fac.u, fac.pivots, fac.basis)
    bare = type(fac)(*compared, None)
    assert bare == fac and hash(bare) == hash(fac) == hash(compared)
    assert repr(bare) == repr(fac) and "elimination" not in repr(fac)
    assert bare != type(fac)(fac.rows[:-1], *compared[1:], fac.elimination)


def test_trailing_defaults_fill_in():
    assert LPResult("infeasible") == LPResult("infeasible", None, None)
    assert (LPResult("optimal", (1,)).x, LPResult("optimal", (1,)).value) == ((1,), None)
    ideal = MonomialIdeal(((1, 0),), 2)
    assert ideal.from_generic_order is True and ideal == MonomialIdeal(((1, 0),), 2, True)
    assert ideal != MonomialIdeal(((1, 0),), 2, False)


@pytest.mark.parametrize("cls, args", [
    (Binomial, ()), (Binomial, ((1,),)), (Binomial, ((1,), (0,), (2,))),
    (LPResult, ()), (LPResult, ("optimal", (), 0, 1)),  # its status is required, three at most
])
def test_a_wrong_number_of_fields_raises_type_error(cls, args):
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*args)


def test_cached_property_still_memoizes():
    cached = regular_subdivision(IntMatrix(EX1), EX1_COST)
    delta = type(cached)(*(getattr(cached, f) for f in cached._fields))  # a fresh instance
    assert "cost_coordinates" not in vars(delta)
    first = delta.cost_coordinates
    assert vars(delta)["cost_coordinates"] is first and delta.cost_coordinates is first
