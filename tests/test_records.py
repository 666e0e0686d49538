"""The plain records of tjl: class-strict equality, the hash and the order of
their field tuples, their repr, their immutability and their validation."""

from __future__ import annotations

import copy
import pickle

import pytest

from tjl.adelic import default_places, witness_set
from tjl.funcfield import gf
from tjl.metacyclic import GroupParams, IrrepLabel
from tjl.quaternion import AlgebraParams, LocalReduction
from tjl.spectral import EigensystemBlock, SpectralReport
from tjl.tame import GlobalTameParam, TameParam


def _hashed_records():
    """(record, its field tuple, its repr) for every hashed record type."""
    alg = AlgebraParams(3)
    pi = default_places(alg, 1)[0]
    w = witness_set(alg, pi).witnesses[0]
    red = LocalReduction("zero", 1, 7, 5)
    return [
        (GroupParams(3, 2), (3, 2, 1), "GroupParams(q=3, n=2, level=1)"),
        (IrrepLabel((1, 3), 0), ((1, 3), 0), "IrrepLabel(orbit=(1, 3), s=0)"),
        (alg, (3, 1, 2), "AlgebraParams(q=3, level=1, eps=2)"),
        (red, ("zero", 1, 7, 5),
         "LocalReduction(place='zero', k=1, residue=7, exponent=5)"),
        (TameParam((1, 3), 1, 0), ((1, 3), 1, 0),
         "TameParam(orbit=(1, 3), d=1, s=0)"),
        (GlobalTameParam((1, 3), 0), ((1, 3), 0),
         "GlobalTameParam(orbit=(1, 3), s=0)"),
        (w, (w.element, w.depth, w.right_label, w.left_label, w.reduction),
         f"Witness(element={w.element!r}, depth={w.depth!r}, "
         f"right_label={w.right_label!r}, left_label={w.left_label!r}, "
         f"reduction={w.reduction!r})"),
    ]


def test_hashed_records_hash_compare_and_print_as_field_tuples():
    for rec, fields, text in _hashed_records():
        assert hash(rec) == hash(fields)
        assert repr(rec) == text
        # AlgebraParams derives eps from q: it is built from (q, level)
        args = fields[:2] if isinstance(rec, AlgebraParams) else fields
        twin = type(rec)(*args)
        assert twin == rec and not twin != rec and hash(twin) == hash(rec)
        assert rec != fields
        assert copy.copy(rec) == rec
        name = type(rec).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_records_of_plain_values_survive_pickle():
    # records that hold Polys do not: a Poly compares its field by identity
    for rec in (GroupParams(4, 2, 2), AlgebraParams(5),
                IrrepLabel((1, 3), 1), TameParam((1, 3), 1, 0)):
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_equality_holds_only_within_one_class():
    orbit, s = (1, 3), 0
    assert IrrepLabel(orbit, s) != GlobalTameParam(orbit, s)
    assert GlobalTameParam(orbit, s) != IrrepLabel(orbit, s)
    assert len({IrrepLabel(orbit, s), GlobalTameParam(orbit, s)}) == 2
    assert GroupParams(3, 2, 1) != AlgebraParams(3, 1)
    with pytest.raises(TypeError):
        IrrepLabel(orbit, s) < GlobalTameParam(orbit, 1)
    # the records without order=True compare for equality only
    with pytest.raises(TypeError):
        GroupParams(3, 2) < GroupParams(5, 2)


@pytest.mark.parametrize("cls, values", [
    (IrrepLabel, [((2, 6), 1), ((0,), 1), ((1, 3), 0), ((0,), 0),
                  ((2, 6), 0)]),
    (GlobalTameParam, [((5, 7), 0), ((1, 3), 1), ((1, 3), 0)]),
    (TameParam, [((4,), 2, 0), ((1, 3), 1, 1), ((0,), 2, 1), ((1, 3), 1, 0)]),
])
def test_sorted_records_follow_the_field_tuples(cls, values):
    recs = sorted(cls(*v) for v in values)
    assert recs == [cls(*v) for v in sorted(values)]
    lo, hi = recs[:2]
    assert lo < hi and lo <= hi and hi > lo and hi >= lo
    assert lo <= copy.copy(lo) >= lo


def test_spectral_records_are_mutable_and_unhashable():
    label = IrrepLabel((0,), 0)
    block = EigensystemBlock([], [(0, 0)], label)
    report = SpectralReport(label, block, True)
    assert repr(block) == ("EigensystemBlock(hecke_eigenvalues=[], "
                           "lines=[(0, 0)], infinity_label="
                           "IrrepLabel(orbit=(0,), s=0))")
    assert block.dim == 1
    assert report == SpectralReport(label, block, True)
    assert report != SpectralReport(label, block, False)
    for rec in (block, report):
        with pytest.raises(TypeError):
            hash(rec)
    report.claim_ok = False
    assert report == SpectralReport(label, block, False)


def test_params_validation_still_fires():
    with pytest.raises(ValueError, match="prime power"):
        GroupParams(6, 2)
    with pytest.raises(ValueError, match="positive"):
        GroupParams(3, 0)
    with pytest.raises(ValueError, match="positive"):
        GroupParams(3, 2, 0)
    with pytest.raises(ValueError, match="odd characteristic"):
        AlgebraParams(4)
    with pytest.raises(ValueError, match="positive"):
        AlgebraParams(5, level=0)
    # eps is the canonical non-square, and copy and pickle keep it, with
    # the level, through the rebuild from (q, level)
    for q in (3, 5, 7, 9):
        alg = AlgebraParams(q, 2)
        assert alg.eps == gf(q).smallest_nonsquare
        for twin in (copy.copy(alg), copy.deepcopy(alg),
                     pickle.loads(pickle.dumps(alg))):
            assert twin == alg
            assert (twin.eps, twin.level) == (alg.eps, 2)
