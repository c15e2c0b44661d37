import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf.errors import ModelMismatch, ShapeMismatch
from mucinf.laws import ENTRIES, check_law, run_trials
from mucinf.matc import MatModel
from mucinf.morphisms import (Morphism, compose, dagger, deviation,
                              get_model, identity, par, register_model,
                              tensor, then_par, then_tensor)
from mucinf.objects import Base, Dagger, Par, Tensor
from mucinf.structural import structural
from mutants import registered

MAT = get_model("mat")
RNG = np.random.default_rng(99)


def rand_mat(dom, cod, rng=RNG):
    return MAT.random_morphism(rng, Base(dom), Base(cod))


def test_compose_identity_laws():
    f = rand_mat(2, 3)
    assert deviation(compose(identity(MAT, f.dom), f), f) == 0.0
    assert deviation(compose(f, identity(MAT, f.cod)), f) == 0.0


def test_then_product_types_like_the_composite():
    x, f, g = rand_mat(2, 6), rand_mat(2, 1), rand_mat(3, 2)
    for then, product in ((then_tensor, tensor), (then_par, par)):
        mid = Morphism("mat", x.dom, product(f, g).dom, x.payload)
        out, want = then(mid, f, g), compose(mid, product(f, g))
        assert (out.dom, out.cod) == (want.dom, want.cod)
        assert deviation(out, want) <= 1e-12
        with pytest.raises(ShapeMismatch):
            then(mid, g, f)  # cod (2, 3) vs dom (3, 2)
        with pytest.raises(ShapeMismatch):
            then(x, f, g)  # cod Base(6) is not a product
    h = Morphism("cplane", Base(1 + 0j), Base(1 + 0j), None)
    with pytest.raises(ModelMismatch):
        then_tensor(x, f, h)


def test_scalar_composition():
    two = Morphism("mat", Base(1), Base(1), np.array([[2.0 + 0j]]))
    three = Morphism("mat", Base(1), Base(1), np.array([[3.0 + 0j]]))
    assert np.array_equal(compose(two, three).payload, [[6.0]])


def test_compose_errors():
    f = rand_mat(2, 3)
    g = rand_mat(2, 3)
    with pytest.raises(ShapeMismatch):
        compose(f, g)  # cod Base(3) vs dom Base(2)
    h = Morphism("cplane", Base(1 + 0j), Base(1 + 0j), None)
    with pytest.raises(ModelMismatch):
        compose(f, h)


def test_tensor_of_identities():
    a, b = Base(2), Base(3)
    t = tensor(identity(MAT, a), identity(MAT, b))
    assert deviation(t, identity(MAT, Tensor(a, b))) == 0.0
    p = par(identity(MAT, a), identity(MAT, b))
    assert deviation(p, identity(MAT, Par(a, b))) == 0.0


def test_tensor_unit_factor():
    x = Morphism("mat", Base(2), Base(2),
                 np.array([[0, 1], [1, 0]], dtype=complex))
    one = Morphism("mat", Base(1), Base(1), np.array([[1.0 + 0j]]))
    assert np.array_equal(tensor(x, one).payload, x.payload)


def test_dagger_retypes_and_conjugates():
    f = rand_mat(2, 3)
    fd = dagger(f)
    assert fd.dom == Dagger(f.cod) and fd.cod == Dagger(f.dom)
    assert np.array_equal(fd.payload, f.payload.conj().T)


def test_double_dagger_is_conjugation_by_involutor():
    # f^^ equals iota^-1 ; f ; iota
    f = rand_mat(2, 3)
    ff = dagger(dagger(f))
    routed = (structural(MAT, "iota_inv", [f.dom]) >> f
              >> structural(MAT, "iota", [f.cod]))
    assert deviation(ff, routed) == 0.0


def test_equal_up_to_tolerances():
    one = Morphism("mat", Base(1), Base(1), np.array([[1.0 + 0j]]))
    close = Morphism("mat", Base(1), Base(1), np.array([[1.0 + 2e-10]]))
    far = Morphism("mat", Base(1), Base(1), np.array([[1.1 + 0j]]))
    assert deviation(one, one) <= 1e-9
    assert deviation(one, close) <= 1e-9
    assert deviation(one, far) > 1e-9


def test_deviation_requires_parallel_shapes():
    # a dom or cod that differs in syntax is still interpreted and refused
    f = rand_mat(2, 3)
    for g in (rand_mat(2, 2), rand_mat(3, 3), rand_mat(3, 2)):
        with pytest.raises(ShapeMismatch):
            deviation(f, g)
    with pytest.raises(ShapeMismatch):
        deviation(identity(MAT, Base(6)),
                  identity(MAT, Tensor(Base(2), Base(2))))


class CountingMat(MatModel):
    """The dense model, counting its ``interpret`` calls (one per node) and
    its ``same_object`` calls."""

    def __init__(self):
        super().__init__("mat!counting")
        self.calls = {"interpret": 0, "same_object": 0}

    def interpret(self, expr):
        self.calls["interpret"] += 1
        return super().interpret(expr)

    def same_object(self, first, second):
        self.calls["same_object"] += 1
        return super().same_object(first, second)


def test_syntactically_parallel_sides_are_not_interpreted():
    with registered(CountingMat()) as m:
        a = Tensor(Base(2), Par(Base(3), Dagger(Base(1))))
        f = identity(m, a)
        g = Morphism(m.name, a, a, 2 * f.payload)
        m.calls.update(interpret=0, same_object=0)
        assert deviation(f, g) == 1.0
        assert m.calls == {"interpret": 0, "same_object": 0}


def test_sides_parallel_only_under_interpretation_are_checked():
    with registered(CountingMat()) as m:
        f = identity(m, Base(6))
        g = identity(m, Tensor(Base(2), Base(3)))
        m.calls.update(interpret=0, same_object=0)
        assert deviation(f, g) == 0.0
        assert m.calls == {"interpret": 8, "same_object": 2}


def test_a_nan_object_still_fails_its_law():
    cplane = get_model("cplane")
    nan = Base(complex(math.nan))
    # the same NaN object on both sides: syntactically parallel, so no
    # longer refused as unparallel, and its NaN deviation reads as inf
    one = identity(cplane, nan)
    assert deviation(one, one) == math.inf
    rep = run_trials("NAN-ID", "cplane", lambda rng: (deviation(one, one),
                                                     None), 1, RNG, 1e-9)
    assert not rep.passed and rep.max_abs_deviation == math.inf
    for law, entry in ENTRIES.items():
        if entry.kind == "coherence" and entry.arity and \
                "cplane" in entry.models:
            rep = check_law(law, cplane, [nan] * entry.arity)
            assert not rep.passed and rep.max_abs_deviation == math.inf, law


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_composition_associates(a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    f = MAT.random_morphism(rng, Base(a), Base(b))
    g = MAT.random_morphism(rng, Base(b), Base(c))
    h = MAT.random_morphism(rng, Base(c), Base(d))
    assert deviation(compose(compose(f, g), h),
                     compose(f, compose(g, h))) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1))
def test_dagger_is_contravariant(a, b, c, seed):
    rng = np.random.default_rng(seed)
    f = MAT.random_morphism(rng, Base(a), Base(b))
    g = MAT.random_morphism(rng, Base(b), Base(c))
    assert deviation(dagger(compose(f, g)),
                     compose(dagger(g), dagger(f))) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_tensor_is_bifunctorial(a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    f = MAT.random_morphism(rng, Base(a), Base(b))
    g = MAT.random_morphism(rng, Base(b), Base(c))
    x = MAT.random_morphism(rng, Base(c), Base(d))
    y = MAT.random_morphism(rng, Base(d), Base(a))
    lhs = compose(tensor(f, x), tensor(g, y))
    rhs = tensor(compose(f, g), compose(x, y))
    assert deviation(lhs, rhs) <= 1e-9


def test_a_name_registers_once_and_models_do_not_mix():
    with pytest.raises(ValueError, match="'mat' already registered"):
        register_model(MatModel("mat"))
    assert type(get_model("mat")) is MatModel
    with pytest.raises(ModelMismatch, match="mat vs cplane"):
        deviation(identity("mat", Base(1)), identity("cplane", Base(1)))
