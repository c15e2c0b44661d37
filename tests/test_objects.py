import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, field, replace

import numpy as np
import pytest

from mucinf.cpinf import KrausMorphism
from mucinf.errors import TypingError
from mucinf.morphisms import Morphism
from mucinf.objects import (BOT, TOP, Base, Dagger, Dual, ObjectExpr, Par,
                            ParUnit, Tensor, TensorUnit, value_type)


def test_structural_equality_and_hash():
    a = Tensor(Base(2), Par(Base(3), BOT))
    b = Tensor(Base(2), Par(Base(3), BOT))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Tensor(Base(2), Par(Base(3), TOP))


def test_operators_build_trees():
    a, b = Base(2), Base(3)
    assert a * b == Tensor(a, b)
    assert a + b == Par(a, b)


def test_no_quotienting_by_coherence():
    a, b, c = Base(1), Base(2), Base(3)
    assert Tensor(Tensor(a, b), c) != Tensor(a, Tensor(b, c))
    assert Dagger(Dagger(a)) != a


# --- the value-type contract ------------------------------------------------

A_TREE = Tensor(Base(2), Par(Dagger(Base(3)), BOT))
A_ARROW = Morphism("cplane", Base(2.0), Par(Base(1.0), Base(2.0)), None)
# one instance of each class the helper decorates, and of KrausMorphism,
# built by keyword
INSTANCES = {
    ObjectExpr: ObjectExpr(),
    Base: Base(label=1),
    Tensor: Tensor(left=Base(1), right=TOP),
    Par: Par(left=BOT, right=Base(2)),
    TensorUnit: TensorUnit(),
    ParUnit: ParUnit(),
    Dagger: Dagger(inner=Base(3)),
    Dual: Dual(inner=Base(3)),
    Morphism: Morphism(model="cplane", dom=Base(2j), cod=Base(2j),
                       payload=None),
    KrausMorphism: KrausMorphism(body=A_ARROW),
}
# the signatures and repr texts of the plain frozen dataclasses these were
# (KrausMorphism's signature is that of its one field)
SIGNATURES = {
    ObjectExpr: "() -> None",
    Base: "(label: 'Any') -> None",
    Tensor: "(left: 'ObjectExpr', right: 'ObjectExpr') -> None",
    Par: "(left: 'ObjectExpr', right: 'ObjectExpr') -> None",
    TensorUnit: "() -> None",
    ParUnit: "() -> None",
    Dagger: "(inner: 'ObjectExpr') -> None",
    Dual: "(inner: 'ObjectExpr') -> None",
    Morphism: "(model: 'str', dom: 'ObjectExpr', cod: 'ObjectExpr', "
              "payload: 'Any') -> None",
    KrausMorphism: "(body: 'Morphism') -> None",
}
REPRS = [
    (ObjectExpr(), "ObjectExpr()"),
    (TOP, "TensorUnit()"),
    (BOT, "ParUnit()"),
    (Base(1), "Base(label=1)"),
    (Base(1.5 + 2j), "Base(label=(1.5+2j))"),
    (Base("x"), "Base(label='x')"),
    (Base((0, 1)), "Base(label=(0, 1))"),
    (Base(True), "Base(label=True)"),
    (A_TREE, "Tensor(left=Base(label=2), right=Par(left=Dagger(inner="
             "Base(label=3)), right=ParUnit()))"),
    (Dual(Dagger(Par(TOP, Base(-1)))),
     "Dual(inner=Dagger(inner=Par(left=TensorUnit(), right=Base(label=-1))))"),
    (Morphism("cplane", Base(2j), Dagger(Base(2j)), None),
     "Morphism(model='cplane', dom=Base(label=2j), cod=Dagger(inner="
     "Base(label=2j)), payload=None)"),
    (Morphism("mat", Base(1), Par(Base(1), Base(1)), np.array([[1 + 0j]])),
     "Morphism(model='mat', dom=Base(label=1), cod=Par(left=Base(label=1), "
     "right=Base(label=1)), payload=array([[1.+0.j]]))"),
]
FROZEN_CLASSES = list(INSTANCES)
# KrausMorphism checks its body in __post_init__, so it is a plain frozen
# dataclass: built and copied as the others are, but without slots
VALUE_CLASSES = [c for c in FROZEN_CLASSES if c is not KrausMorphism]


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_frozen_and_slotted(cls):
    obj = INSTANCES[cls]
    for name in [*cls.__dataclass_fields__, "extra"]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda c: c.__name__)
def test_construction_and_signature(cls):
    obj = INSTANCES[cls]
    names = list(cls.__dataclass_fields__)
    values = [getattr(obj, n) for n in names]
    assert cls(*values) == obj
    assert cls(**dict(zip(names, values))) == obj
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    with pytest.raises(TypeError):
        cls(*values, None)


def test_equality_keeps_the_node_type():
    a, b = Base(1), Base(2)
    assert Tensor(a, b) != Par(a, b)
    assert Dagger(a) != Dual(a)
    assert TOP != BOT and TOP == TensorUnit()
    assert Base(1) == Base(1.0) and hash(Base(1)) == hash(Base(1.0))
    assert hash(A_TREE) == hash(Tensor(Base(2), Par(Dagger(Base(3)), BOT)))


@pytest.mark.parametrize("obj,text", REPRS, ids=lambda x: None)
def test_repr_text_is_unchanged(obj, text):
    assert repr(obj) == text


@pytest.mark.parametrize("cls", FROZEN_CLASSES, ids=lambda c: c.__name__)
def test_copies_round_trip(cls):
    obj = INSTANCES[cls]
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj)), replace(obj)):
        assert type(twin) is cls and twin == obj
        assert hash(twin) == hash(obj)


def test_replace_builds_by_field_name():
    assert replace(A_TREE, left=TOP) == Tensor(TOP, A_TREE.right)
    body = replace(A_ARROW, dom=Base(3.0))
    assert body.dom == Base(3.0) and body.cod == A_ARROW.cod


# --- KrausMorphism: one field, the body, checked when built ---------------

A_KRAUS = INSTANCES[KrausMorphism]


def test_kraus_morphism_reads_its_fields_off_the_body():
    assert list(KrausMorphism.__dataclass_fields__) == ["body"]
    assert repr(A_KRAUS) == (
        "KrausMorphism(body=Morphism(model='cplane', dom=Base(label=2.0), "
        "cod=Par(left=Base(label=1.0), right=Base(label=2.0)), payload=None))")
    for twin in (A_KRAUS, copy.copy(A_KRAUS), copy.deepcopy(A_KRAUS),
                 pickle.loads(pickle.dumps(A_KRAUS)), replace(A_KRAUS)):
        assert twin.model == "cplane" and twin.dom == A_ARROW.dom
        assert twin.cod == A_ARROW.cod.right
        assert twin.ancilla == A_ARROW.cod.left


def test_kraus_morphism_is_frozen():
    for name in ["body", "model", "dom", "cod", "ancilla", "extra"]:
        with pytest.raises(FrozenInstanceError):
            setattr(A_KRAUS, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(A_KRAUS, name)
    assert A_KRAUS.body is A_ARROW


def test_kraus_morphism_replace_checks_the_new_body():
    body = Morphism("cplane", Base(6.0), Par(Base(2.0), Base(3.0)), None)
    k = replace(A_KRAUS, body=body)
    assert (k.dom, k.cod, k.ancilla) == (Base(6.0), Base(3.0), Base(2.0))
    # 6 is not 5 * 3, and a tensor codomain carries no ancilla
    for cod in (Par(Base(5.0), Base(3.0)), Tensor(Base(2.0), Base(3.0))):
        with pytest.raises(TypingError):
            replace(A_KRAUS, body=replace(body, cod=cod))
        with pytest.raises(TypingError):
            KrausMorphism(replace(body, cod=cod))


def test_the_helper_refuses_what_its_init_would_skip():
    with pytest.raises(TypeError, match="__post_init__"):
        @value_type
        class Checked:
            x: int

            def __post_init__(self):
                pass
    with pytest.raises(TypeError, match="default"):
        @value_type
        class Defaulted:
            x: int = 0
    with pytest.raises(TypeError, match="default"):
        @value_type
        class Factory:
            x: list = field(default_factory=list)
    class Validated:
        def __post_init__(self):
            pass

    # an inherited ``__post_init__`` counts too
    with pytest.raises(TypeError, match="__post_init__"):
        @value_type
        class Derived(Validated):
            y: int
