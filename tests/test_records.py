"""The frozen value classes made by `exact.record`: construction, the
`__post_init__` checks, equality, hashing, order, repr and immutability,
over every record class of the package; and the CLI start-up that they
keep free of `dataclasses`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import tropnc
from tropnc import ncfan, planar, troplin
from tropnc.combinat import (
    DecoratedOSP,
    KSubset,
    NoncrossingTableau,
    all_ksubsets,
    dosp,
    ksubset,
    tableau,
)
from tropnc.ladder import LadderPoint, PathFamily
from tropnc.exact import record
from tropnc.ncfan import TPoint
from tropnc.planar import CrossRatioExponent
from tropnc.pluecker import PositivityCertificate
from tropnc.troplin import BoundedComplexReport, CentralRoof, Matroid
from tropnc.weight import WeightReport

from conftest import random_positive_vector, rng_for
from oracles import TTildePoint, uniform_matroid


def _examples():
    J = ksubset(6, (1, 3, 5))
    half = Fraction(1, 2)
    return [
        J,
        dosp(J),
        tableau(3, 6, [(J, 2), (ksubset(6, (1, 3, 4)), half)]),
        LadderPoint.of(3, 6, [[1, 2, 3], [0, half, 4]]),
        PathFamily(((1, (1, 2)), (2, (3,)))),
        TPoint.of(3, 6, [[1, 2, 3], [0, half, 4]]),
        TTildePoint(3, 6, ((Fraction(1),) * 3,) * 3),
        ncfan._walk_tables(3, 6),
        planar.cubical_array(J),
        PositivityCertificate(False, ((1,), (2, 3, 4, 5), Fraction(1), Fraction(0))),
        uniform_matroid(2, 4),
        troplin.central_roof(J),
        troplin.diameter_check(random_positive_vector(rng_for("records"), 3, 6)),
        WeightReport(Fraction(2), Fraction(2), Fraction(2), True),
    ]


EXAMPLES = _examples()
RECORD_CLASSES = (KSubset, DecoratedOSP, NoncrossingTableau, LadderPoint, PathFamily, TPoint,
                  TTildePoint, ncfan._WalkTables, CrossRatioExponent,
                  PositivityCertificate, Matroid, CentralRoof, BoundedComplexReport,
                  WeightReport)


def _fields(x) -> dict:
    return {name: getattr(x, name) for name in type(x).__annotations__}


def test_every_record_class_has_an_example():
    assert tuple(type(x) for x in EXAMPLES) == RECORD_CLASSES


@pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__name__)
def test_construction_by_position_and_by_keyword_agree(x):
    cls, fields = type(x), _fields(x)
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == x and by_position == x and not by_keyword != x
    assert _fields(by_keyword) == fields
    if cls is not CrossRatioExponent:  # a dict field is unhashable
        assert hash(by_keyword) == hash(by_position) == hash(x)


@pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__name__)
def test_repr_names_every_field(x):
    inner = ", ".join(f"{name}={value!r}" for name, value in _fields(x).items())
    assert repr(x) == f"{type(x).__qualname__}({inner})"


@pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(x):
    for name, value in _fields(x).items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        assert getattr(x, name) is value
    with pytest.raises(AttributeError):
        x.extra = 1


def test_no_equality_across_classes():
    # equal field values in two classes (the grid and the fan point share
    # a shape) are still unequal records
    t = TPoint.of(3, 6, [[1, 2, 3], [0, 1, 4]])
    y = LadderPoint(t.k, t.n, t.rows)
    assert _fields(t) == _fields(y) and t != y and y != t
    for i, x in enumerate(EXAMPLES):
        assert x.__eq__(object()) is NotImplemented
        assert x != (tuple(_fields(x).values()))
        for y in EXAMPLES[i + 1:]:
            assert x != y and y != x


def test_equal_records_hash_equal_and_key_a_dict():
    a = ksubset(7, (2, 4, 6))
    b = KSubset(n=7, elems=(2, 4, 6))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert len({WeightReport(Fraction(1), Fraction(1), Fraction(1), True),
                WeightReport(pk_weight=Fraction(1), nc_weight=Fraction(1),
                             bridge_value=Fraction(1), agree=True)}) == 1
    assert KSubset(7, (2, 4, 6)) != KSubset(7, (2, 4, 7))
    # the hash reads every field, so the caches keyed by subsets stay flat
    assert len({hash(J) for J in all_ksubsets(3, 8)}) == 56


def test_ksubset_order_is_the_order_of_n_then_elems():
    subsets = all_ksubsets(2, 5) + all_ksubsets(3, 6) + all_ksubsets(2, 4)
    shuffled = subsets[::-1]
    assert sorted(shuffled) == sorted(shuffled, key=lambda J: (J.n, J.elems))
    for I in subsets[::7]:
        for J in subsets[::5]:
            key_i, key_j = (I.n, I.elems), (J.n, J.elems)
            assert (I < J, I <= J, I > J, I >= J) == (
                key_i < key_j, key_i <= key_j, key_i > key_j, key_i >= key_j)
    with pytest.raises(TypeError):
        ksubset(5, (1, 2)) < (5, (1, 3))
    with pytest.raises(TypeError):
        TPoint.zero(3, 6) < TPoint.zero(3, 6)


def test_default_and_keyword_construction():
    assert PositivityCertificate(True).violation is None
    assert PositivityCertificate(ok=True) == PositivityCertificate(True, None)
    assert PositivityCertificate(violation=None, ok=True) == PositivityCertificate(True)
    assert vars(PositivityCertificate(True)) == {"ok": True, "violation": None}
    with pytest.raises(TypeError, match="missing required argument 'ok'"):
        PositivityCertificate()
    with pytest.raises(TypeError, match="unexpected keyword argument 'okay'"):
        PositivityCertificate(okay=True)
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        KSubset(6, n=6)
    with pytest.raises(TypeError, match="takes 2 arguments, got 3"):
        KSubset(6, (1, 2), None)
    with pytest.raises(TypeError, match="missing required argument 'elems'"):
        KSubset(6)


@pytest.mark.parametrize("build", [
    lambda: KSubset(3, (1, 2)),
    lambda: KSubset(n=6, elems=(3, 1)),
    lambda: KSubset(elems=(1, 7), n=6),
    lambda: DecoratedOSP(4, ((1, 2), (3, 4)), (1,)),
    lambda: NoncrossingTableau(3, 6, ((ksubset(6, (1, 2, 3)), Fraction(1)),)),
    lambda: NoncrossingTableau(k=3, n=6, entries=((ksubset(6, (1, 3, 5)), Fraction(0)),)),
    lambda: LadderPoint(3, 6, ((Fraction(0),) * 3,)),
    lambda: TPoint(k=3, n=6, rows=((Fraction(0),) * 2,) * 2),
    lambda: TPoint(3, 6, ((1, 1, 2), (0, 0, 0))),  # a row whose minimum is not 0
    lambda: TTildePoint(3, 6, ((Fraction(0),) * 3,) * 2),
    lambda: Matroid(2, 4, frozenset()),
    lambda: Matroid(k=2, n=4, bases=frozenset({(1, 5)})),
], ids=lambda build: "")
def test_post_init_refusals_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_cached_property_works_on_a_record():
    @record
    class Cones:
        cones: tuple

        @cached_property
        def sizes(self) -> list[int]:
            return [len(c) for c in self.cones]

    cones = ((1, 3), (2, 4, 6))
    fresh = Cones(cones)
    assert "sizes" not in vars(fresh)
    first = fresh.sizes
    assert fresh.sizes is first and vars(fresh)["sizes"] is first
    assert first == [2, 3]
    assert fresh == Cones(cones)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import tropnc.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tropnc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "tropnc.cli" in added and "tropnc.exact" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_cli_import_loads_no_typing():
    # annotations come from collections.abc and `int | Fraction`; -S keeps
    # site's own imports out of the count
    env = dict(os.environ, PYTHONPATH=str(Path(tropnc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, tropnc.cli; print('typing' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
