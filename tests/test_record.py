"""The library's value types behave as the frozen dataclasses they replace.

Each Record class is checked against a dataclass twin with the same
annotations and defaults: on sample instances repr, == and hash agree with
the twin's, fields cannot be assigned or deleted, identity-equality classes
compare by identity, and calls bind arguments as the twin's __init__ would.
"""

import copy
import dataclasses
import inspect
import math
from fractions import Fraction as F

import pytest

from twoorigins import cosets, dline, germs, join
from twoorigins._record import Record

import groups


def _cubic(x):
    return x + x ** 3


def _chain():
    g = join.NumericDiffeo.from_function(lambda x: x + 0.2 * (x - 1.0) * (2.0 - x), (1.0, 2.0), n=32)
    return join.ChainAtlas((join.IntervalChart("u", (0.0, 2.0)),
                            join.IntervalChart("v", (1.0, 3.0))), (g,))


def _samples():
    """Two or more instances of every Record class, built through the library."""
    d3 = groups.dihedral(3)
    c = cosets.Subgroup.from_names(d3, ["e", "s"])
    w2, w3 = germs.make_wa(2), germs.make_wa(F(1, 3))
    poly = germs.poly_germ({1: 1, 3: 2})
    atlas2, atlas3 = dline.SpecialMinimalAtlas(w2), dline.SpecialMinimalAtlas(w3)
    affine = join.AffineMap(2, 1, (0.0, 1.0))
    ident = join.IdentityMap((0.0, 1.0))
    diffeo = join.NumericDiffeo.from_function(lambda x: x + 0.1 * x * (1.0 - x), (0.0, 1.0), n=16)
    chain = _chain()
    glued = join.glue_auto(chain.transitions[0])
    joined = join.join_charts(*chain.charts, chain.transitions[0], k=1)
    collapsed = join.collapse_chain(chain, k=1)
    return {
        cosets.FiniteGroup: [d3, groups.cyclic(3)],
        cosets.Subgroup: [c, cosets.Subgroup(d3, (0,))],
        cosets.CosetPartition: [cosets.double_cosets(d3, c, c), cosets.pm_double_cosets(d3, c)],
        cosets.WreathElement: [cosets.WreathElement(0, 1, -1), cosets.WreathElement(1, 0, 1)],
        cosets.PairClassification: [cosets.classify_wa_pair(2, 2), cosets.classify_wa_pair(2, 3)],
        germs.PowerTerm: [germs.PowerTerm(F(3, 2), 1), germs.PowerTerm(0.5, F(1, 3))],
        germs.SideExpansion: [w2.pos, poly.neg],
        germs.Germ: [w2, w3, poly],
        germs.NumericGerm: [germs.NumericGerm(_cubic, "preserving"),
                            germs.NumericGerm(_cubic, "preserving", "bench")],
        germs.Jet: [germs.jet_of(poly, 3), germs.jet_of(w2, 2)],
        germs.Obstruction: [germs.Obstruction(1, F(-1), F(2)), germs.Obstruction(2, 0.5, germs.NONEXISTENT)],
        germs.SmoothnessReport: [germs.smoothness_at_zero(w2, 2), germs.smoothness_at_zero(poly, 3)],
        dline.PointL: [dline.PointL(F(1, 2)), dline.PointL(0, tilde=True), dline.ORIGIN],
        dline.ChartL: [dline.ChartL("U", w2), dline.ChartL("V", w3, germs.PRESERVING)],
        dline.MinimalAtlas: [atlas2.as_minimal(), atlas3.as_minimal()],
        dline.SpecialMinimalAtlas: [atlas2, atlas3],
        dline.DiffeoL: [dline.psi(2), dline.identity_diffeo(atlas2, k=2)],
        join.IdentityMap: [ident, join.IdentityMap((1.0, 2.0))],
        join.AffineMap: [affine, affine.inverse(), join.AffineMap(-1.0, 0.0)],
        join.ComposedMap: [join.ComposedMap(affine, ident), join.ComposedMap(affine, ident, (0.5,))],
        join.GlueReport: [glued.glue, join.GlueReport(0.1, 0.2, 0.0, 0.0, 0.0, 8)],
        join.NumericDiffeo: [diffeo, glued],
        join.IntervalChart: list(chain.charts),
        join.ChainAtlas: [chain, _chain()],
        join.SmoothCert: [joined.cert_u, joined.cert_v, join.verify_ck_numeric(diffeo, 2)],
        join.JoinResult: [joined, join.join_charts(*chain.charts, chain.transitions[0], k=2)],
        join.CollapseResult: [collapsed, join.collapse_chain(chain, k=2)],
    }


SAMPLES = _samples()
RECORDS = sorted(SAMPLES, key=lambda cls: (cls.__module__, cls.__name__))
IDENTITY_EQ = {join.ComposedMap, join.NumericDiffeo, join.JoinResult, join.CollapseResult}
#: Classes whose own __init__ computes each field once.
OWN_INIT = {cosets.Subgroup, cosets.CosetPartition, germs.PowerTerm, germs.SideExpansion,
            germs.Germ, germs.SmoothnessReport, dline.PointL, dline.ChartL, join.AffineMap,
            join.IntervalChart, join.ChainAtlas}


def fields(obj) -> dict:
    return {name: getattr(obj, name) for name in obj._fields}


def twin(cls):
    """The frozen dataclass cls would have been: same annotations, defaults
    and equality."""
    specs = []
    for name, annotation in cls.__annotations__.items():
        if hasattr(cls, name):
            specs.append((name, annotation, dataclasses.field(default=getattr(cls, name))))
        else:
            specs.append((name, annotation))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      eq=cls not in IDENTITY_EQ)


def test_every_library_record_is_sampled():
    defined = {obj for mod in (cosets, germs, dline, join) for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, Record)
               and obj.__module__ == mod.__name__}
    assert defined == set(SAMPLES)
    assert len(defined) == 27
    assert all(len(SAMPLES[cls]) >= 2 for cls in defined)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_follow_the_annotations(cls):
    assert cls._fields == tuple(cls.__annotations__)
    for obj in SAMPLES[cls]:
        assert type(obj) is cls
        assert set(fields(obj)) == set(cls._fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_eq_and_hash_agree_with_the_dataclass_twin(cls):
    Twin = twin(cls)
    objs = SAMPLES[cls]
    twins = [Twin(**fields(obj)) for obj in objs]
    for obj, tw in zip(objs, twins):
        if "__repr__" not in cls.__dict__:
            assert repr(obj) == repr(tw)
        same = copy.copy(obj)
        assert same is not obj and fields(same) == fields(obj)
        assert (same == obj) == (Twin(**fields(same)) == tw)
        assert (hash(same) == hash(obj)) == (hash(Twin(**fields(same))) == hash(tw))
        assert obj.__eq__(tw) is NotImplemented
        assert obj != tw and obj != 0
        if cls in IDENTITY_EQ:
            assert obj == obj and obj != same
            assert hash(obj) == object.__hash__(obj)
        else:
            assert hash(obj) == hash(tw) == hash(tuple(fields(obj).values()))
    for (a, ta) in zip(objs, twins):
        for (b, tb) in zip(objs, twins):
            assert (a == b) == (ta == tb) == (a is b or cls not in IDENTITY_EQ
                                              and fields(a) == fields(b))


def test_own_repr_wins():
    assert repr(dline.PointL(0, tilde=True)) == "PointL(0~)"
    assert repr(dline.PointL(F(1, 2))) == "PointL(1/2)"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    for obj in SAMPLES[cls]:
        before = fields(obj)
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(obj, name)
        assert fields(obj) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_calls_bind_as_the_twin_init_does(cls):
    obj = SAMPLES[cls][0]
    values = fields(obj)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert fields(by_position) == fields(by_keyword) == values
    if cls not in IDENTITY_EQ:
        assert by_position == by_keyword == obj
    required = [name for name in cls._fields if not hasattr(cls, name)]
    assert required
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in values.items() if name != required[-1]})
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, unexpected=None)
    with pytest.raises(TypeError):
        cls(*values.values(), **{required[0]: values[required[0]]})
    # the defaults fill in when left out
    short = {name: v for name, v in values.items() if name in required}
    defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
    if defaults and cls is not dline.ChartL:  # "" stands for the map's orientation
        assert fields(cls(**short)) == {**values, **defaults}


@pytest.mark.parametrize("cls", sorted(OWN_INIT, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_own_init_takes_the_twin_signature(cls):
    assert "__init__" in cls.__dict__

    def params(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]
    assert params(cls.__init__) == params(twin(cls).__init__)


def test_generic_init_sets_fields_then_runs_post_init():
    seen = []

    class Point(Record):
        x: int
        y: int = 2
        label: str = "p"

        def __post_init__(self):
            seen.append(fields(self))

    assert repr(Point(1)) == f"{Point.__qualname__}(x=1, y=2, label='p')"
    assert Point(1, label="q") == Point(x=1, y=2, label="q")
    assert hash(Point(1, 3)) == hash((1, 3, "p"))
    assert seen[:2] == [{"x": 1, "y": 2, "label": "p"}, {"x": 1, "y": 2, "label": "q"}]
    for args, kwargs, message in [((), {}, "missing argument 'x'"),
                                  ((1, 2, "a", 4), {}, "takes 3 arguments but 4 were given"),
                                  ((1,), {"z": 0}, "unexpected keyword argument 'z'"),
                                  ((1,), {"x": 0}, "multiple values for argument 'x'")]:
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)


def test_identity_equality_keeps_object_hash():
    class Box(Record, eq=False):
        item: object

    a, b = Box(1), Box(1)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert repr(a) == f"{Box.__qualname__}(item=1)"


def test_values_keep_exactness():
    # an explicit __init__ normalizes exactly as the post-init did
    t = germs.PowerTerm("1/3", 2)
    assert t.coeff == F(1, 3) and type(t.coeff) is F and t.exponent == 2
    assert type(germs.PowerTerm(0.5, 1).coeff) is float
    assert join.AffineMap(2, 1).a == 2.0 and type(join.AffineMap(2, 1).b) is float
    assert join.AffineMap(1, 0).domain == (-math.inf, math.inf)
    assert dline.ChartL("U", germs.flip_germ()).orientation == germs.REVERSING
