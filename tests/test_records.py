"""The package's value types behave as the frozen dataclasses they were.

Every result type is a ``records.record`` class, and ``Graph`` and
``MonoidElement`` write the same methods out by hand.  Each is checked
against a frozen dataclass twin with the same name and fields: the same
repr and hash, equality only within one type, no assignment or
deletion, keyword construction and defaults, and ``TypeError`` for a
wrong call.  ``dataclasses`` is imported here only as that oracle; the
package itself never imports it.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import graphmonoid as gm
from graphmonoid import records

from conftest import make_abcd

ABCD = make_abcd()


def el(text):
    return gm.parse_element(ABCD, text)


def _samples():
    eq = gm.decide_eq(el("b"), el("a + c"))
    distinct = gm.decide_eq(el("d"), el("c"))
    lattice = gm.lattice_report(ABCD)
    series = gm.composition_series(ABCD)
    level = gm.matricial_filtration(ABCD, 2)
    return [
        ABCD,
        el("2*a + d"),
        gm.Path(ABCD, (0, 1)),
        ABCD.components[0],
        distinct.certificate,
        gm.relation_matrix(ABCD),
        gm.grothendieck_group(ABCD),
        level.blocks[0],
        level,
        lattice.sets[1],
        lattice,
        series.steps[0].classification,
        series.steps[0],
        series,
        gm.leq(el("d"), el("c")),
        gm.leq(el("c"), el("d")),
        gm.LeqUnknown(7),
        gm.check_separativity(ABCD),
        eq.lhs_trace,
        eq,
        distinct,
        gm.Unknown(7),
        gm.refine(el("b"), el("d"), el("a"), el("c + d")),
    ]


SAMPLES = _samples()
IDS = [type(r).__name__ for r in SAMPLES]


def fields(r):
    return tuple(type(r).__annotations__)


def values(r):
    return tuple(getattr(r, n) for n in fields(r))


def twin(r):
    """A frozen dataclass with ``r``'s name and fields, holding its values."""
    cls = type(r)
    made = dataclasses.make_dataclass(
        cls.__name__, [(n, object) for n in fields(r)], frozen=True
    )
    made.__qualname__ = cls.__qualname__
    return made(*values(r))


def test_samples_cover_every_value_type():
    found = {
        name
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("graphmonoid.")
        for name, obj in vars(mod).items()
        if isinstance(obj, type)
        and obj.__module__ == mod.__name__
        and obj.__dict__.get("__setattr__") is records.frozen_setattr
    }
    assert len(found) == 23
    assert found == set(IDS)


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_repr_and_hash_match_a_frozen_dataclass(r):
    t = twin(r)
    assert repr(r) == repr(t)
    try:
        expected = hash(values(r))
    except TypeError:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected == hash(t)


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_equality_holds_only_within_a_type(r):
    cls = type(r)
    same = cls(*values(r))
    assert same == r and not same != r
    assert r != twin(r)
    assert r.__eq__(values(r)) is NotImplemented
    assert r != object()


def test_records_with_equal_fields_of_different_types_differ():
    assert gm.Unknown(3) != gm.LeqUnknown(3)
    assert gm.Unknown(3) == gm.Unknown(3)
    assert len({gm.Unknown(3), gm.LeqUnknown(3), gm.Unknown(3)}) == 2


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(r):
    for name in fields(r) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert values(r) == values(type(r)(*values(r)))


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_keyword_construction_and_pickling(r):
    cls = type(r)
    assert cls(**dict(zip(fields(r), values(r)))) == r
    assert pickle.loads(pickle.dumps(r)) == r


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_wrong_calls_raise_type_error(r):
    cls, vals, names = type(r), values(r), fields(r)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*vals, None)
    with pytest.raises(TypeError):
        cls(*vals, bogus=1)
    with pytest.raises(TypeError):
        cls(vals[0], **{names[0]: vals[0]})


def test_defaults_fill_in():
    g = gm.Graph(("a", "b"))
    assert g.edges == () and g == gm.Graph(vertices=("a", "b"), edges=())
    report = gm.PropertyReport("refinement", "unknown", {"size_bound": 3})
    assert report.counterexample is None and report.details == ""
    assert report == gm.PropertyReport(
        verdict="unknown", bounds={"size_bound": 3}, property="refinement"
    )
    trace = gm.RewriteTrace(el("a"))
    assert trace.steps == () and trace == gm.RewriteTrace(start=el("a"), steps=())
    with pytest.raises(TypeError):
        gm.PropertyReport("refinement", bounds={})


def test_verdict_is_a_class_label_not_a_field():
    for cls, label in (
        (gm.Equal, "equal"),
        (gm.Distinct, "distinct"),
        (gm.Unknown, "unknown"),
        (gm.LeqTrue, "true"),
        (gm.LeqFalse, "false"),
        (gm.LeqUnknown, "unknown"),
    ):
        assert cls.verdict == label
        assert "verdict" not in cls.__annotations__
        assert "verdict" not in cls.__match_args__
    assert gm.Unknown(2).verdict == "unknown"
    assert repr(gm.Unknown(2)) == "Unknown(depth=2)"
    with pytest.raises(TypeError):
        gm.Unknown(2, "unknown")
    with pytest.raises(TypeError):
        gm.Unknown(depth=2, verdict="unknown")


def test_construction_still_validates():
    with pytest.raises(ValueError):
        gm.Path(ABCD, ())
    with pytest.raises(ValueError):
        gm.Path(ABCD, (0, 6))
    with pytest.raises(ValueError):
        gm.HSatSet(ABCD, {"b"})
    with pytest.raises(ValueError):
        gm.Graph(("a", "a"))
    with pytest.raises(ValueError):
        gm.Graph(("a",), (("a", "b"),))
    with pytest.raises(ValueError):
        gm.MonoidElement(ABCD, (1, 0, 0))
    with pytest.raises(ValueError):
        gm.MonoidElement(ABCD, (1, 0, -1, 0))
    # validation normalises the stored fields
    assert gm.Path(ABCD, [0, 1]).edge_indices == (0, 1)
    assert gm.HSatSet(ABCD, {"d"}).members == frozenset({"d"})
    assert gm.Graph(["a"], [["a", "a"]]).edges == (("a", "a"),)
    assert gm.MonoidElement(ABCD, [1, 0, True, 0]).counts == (1, 0, 1, 0)


def test_cached_properties_survive_freezing():
    x = el("2*a + d")
    assert x.size == 3 and x.__dict__["size"] == 3
    assert ABCD.vertex_index["d"] == 3
    assert pickle.loads(pickle.dumps(x)).size == 3


def test_record_rejects_a_class_without_fields():
    with pytest.raises(TypeError):

        @records.record
        class Empty:
            label = "no annotation, so no field"


def test_importing_the_package_never_imports_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gm.__file__)))
    code = (
        "import sys; assert 'dataclasses' not in sys.modules; "
        "import graphmonoid, graphmonoid.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    # -S keeps site packages from importing anything first
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
