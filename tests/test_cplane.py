import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf.cpinf import KrausMorphism, kraus_new
from mucinf.cplane import CPLANE, CplaneModel, cplane_equiv
from mucinf.errors import DomCodMismatch, TypingError, UnsupportedInModel
from mucinf.morphisms import Morphism, deviation
from mutants import registered
from mucinf.objects import TOP, Base, Dagger, Dual, Par, Tensor
from mucinf.structural import structural

finite_reals = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite_reals, finite_reals)


def tensor(z, w):
    return CPLANE.interpret(Tensor(Base(z), Base(w)))


def par(z, w):
    return CPLANE.interpret(Par(Base(z), Base(w)))


def dagger(z):
    return CPLANE.interpret(Dagger(Base(z)))


def test_tensor_unit():
    assert tensor(1, 3 + 4j) == 3 + 4j
    assert CPLANE.interpret(Tensor(TOP, Base(3 + 4j))) == 3 + 4j


def test_tensor_formula_by_hand():
    # (1+2i)(3+i): real 1*3 - 2*1 = 1, imag 1*1 + 2*3 = 7
    assert tensor(1 + 2j, 3 + 1j) == 1 + 7j
    assert par(1 + 2j, 3 + 1j) == 1 + 7j


@settings(max_examples=50)
@given(complexes, complexes)
def test_tensor_symmetry(z, w):
    assert tensor(z, w) == tensor(w, z)


def test_dagger_values():
    assert dagger(1) == 1
    assert dagger(1j) == -1j


@settings(max_examples=50)
@given(complexes, complexes)
def test_dagger_is_an_antihomomorphism(z, w):
    lhs = CPLANE.interpret(Dagger(Tensor(Base(z), Base(w))))
    rhs = CPLANE.interpret(Tensor(Dagger(Base(w)), Dagger(Base(z))))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# components where a product or a negation could round, overflow, lose a
# sign or meet a NaN differently
SPECIALS = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308,
            math.inf, -math.inf, math.nan, 2.5, -0.1)


def _bits(z: complex) -> tuple:
    """Each component's bits, but a NaN only as NaN: IEEE 754 (6.3) gives
    a NaN's sign no meaning, and CPython's generic and specialized float
    paths give ``0*nan + 0*inf`` NaNs of opposite sign, so which one a
    formula yields depends on whether the interpreter has warmed up, or
    runs under a line tracer."""
    return tuple("nan" if math.isnan(p) else struct.pack("d", p)
                 for p in (z.real, z.imag))


def test_products_are_the_formula_bit_for_bit():
    """The model multiplies with Python's complex ``*``; this holds it to
    (a+ib)(x+iy) = (ax - by) + i(ay + bx) in every bit, so a platform whose
    complex product rounds otherwise fails here, not only in a digest; a
    NaN component must be NaN on both sides, of either sign."""
    rng = np.random.default_rng(22)
    parts = rng.standard_normal((2000, 4)) * 10.0 ** rng.integers(
        -200, 200, (2000, 4))
    randoms = [(complex(a, b), complex(x, y))
               for a, b, x, y in parts.tolist()]
    specials = [complex(a, b) for a in SPECIALS for b in SPECIALS]
    pairs = randoms + [(z, w) for z in specials for w in specials]
    for z, w in pairs:
        a, b, x, y = z.real, z.imag, w.real, w.imag
        want = _bits(complex(a * x - b * y, a * y + b * x))
        assert _bits(tensor(z, w)) == want, (z, w)
        assert _bits(par(z, w)) == want, (z, w)
    for z in specials + [z for z, _ in randoms]:
        assert _bits(dagger(z)) == _bits(complex(z.real, -z.imag)), z


@pytest.mark.parametrize("dom,cod", [(math.nan, 1), (1, math.nan),
                                     (math.nan, math.nan)],
                         ids=["dom", "cod", "both"])
def test_a_nan_end_is_an_infinite_deviation(dom, cod):
    # ``max(0.0, nan)`` is 0.0; a NaN at either end must still fail
    f = Morphism("cplane", Base(complex(dom)), Base(complex(cod)), None)
    assert CPLANE.deviation(f, f) == math.inf
    g = Morphism("cplane", Base(1), Base(1), None)
    assert CPLANE.deviation(g, g) == 0.0


class CountingCplane(CplaneModel):
    """The discrete model, counting its top-level ``interpret`` calls (not
    the calls one makes on its subtrees)."""

    def __init__(self):
        super().__init__("cplane!counting")
        self.top_calls = 0
        self._depth = 0

    def interpret(self, expr):
        self.top_calls += self._depth == 0
        self._depth += 1
        try:
            return super().interpret(expr)
        finally:
            self._depth -= 1


def test_parallel_sides_interpret_each_shared_end_once():
    def tree():
        return Tensor(Base(2j), Par(Base(1.5), Dagger(Base(1 - 1j))))

    with registered(CountingCplane()) as m:
        # equal in syntax, built apart: one interpretation per end
        f = Morphism(m.name, tree(), Dagger(tree()), None)
        g = Morphism(m.name, tree(), Dagger(tree()), None)
        assert m.deviation(f, g) == 0.0 and m.top_calls == 2
        m.top_calls = 0
        assert deviation(f, g) == 0.0 and m.top_calls == 2
        # an end equal only in value is interpreted on both sides
        h = Morphism(m.name, Base(m.interpret(tree())), Dagger(tree()), None)
        m.top_calls = 0
        assert m.deviation(f, h) == 0.0 and m.top_calls == 3


@pytest.mark.parametrize("bad", [complex(math.nan), complex(math.inf),
                                 complex(0, -math.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_a_shared_non_finite_end_is_an_infinite_deviation(bad):
    # z - z is NaN for a NaN or an infinite z, so a shared end still fails
    m = CountingCplane()
    for end in (Base(bad), Tensor(Base(bad), Base(1.0))):
        for f in (Morphism(m.name, end, end, None),
                  Morphism(m.name, end, Base(1.0), None)):
            m.top_calls = 0
            assert m.deviation(f, f) == math.inf and m.top_calls == 2


def cp_body(c, r, cp):
    return Morphism("cplane", Base(complex(c)),
                    Par(Base(complex(r)), Base(complex(cp))), None)


def cp_kraus(c, r, cp):
    return kraus_new(cp_body(c, r, cp), Base(complex(r)))


def kraus_valid(c, r, cp):
    """Whether ``kraus_new`` admits (=, r): c -> c' as a representative."""
    try:
        cp_kraus(c, r, cp)
    except TypingError:
        return False
    return True


class TestKrausValid:
    def test_examples(self):
        assert kraus_valid(6, 2, 3)
        assert not kraus_valid(6, 3, 3)
        assert kraus_valid(0, 5, 0)

    # each body below evaluates dom = ancilla * cod, so only the Kraus
    # condition refuses it, and kraus_new does so before any use
    def test_zero_ratio_is_not_an_ancilla(self):
        # 1e-13 is 0 to same_object, and so no unitary object, as for phi
        for c, r, cp in ((0, 0, 3), (0, 0, 0), (1e-13, 1e-13, 1)):
            with pytest.raises(TypingError, match="not a Kraus map"):
                cp_kraus(c, r, cp)

    def test_complex_ratio_rejected(self):
        for c, r, cp in ((2j, 2j, 1), (2, 2j, -1j), (0, 1 + 1j, 0)):
            with pytest.raises(TypingError, match="not a Kraus map"):
                cp_kraus(c, r, cp)


class TestCplaneEquiv:
    def test_equal_ratios(self):
        k = cp_kraus(6, 2.0, 3)
        assert cplane_equiv(k, cp_kraus(6, 2.0, 3))

    def test_everything_into_zero_is_identified(self):
        assert cplane_equiv(cp_kraus(0, 2.0, 0), cp_kraus(0, 5.0, 0))

    def test_invalid_representative_is_refused(self):
        # built without kraus_new, the Kraus condition is still checked, so
        # no representative reaches cplane_equiv with a failing body
        with pytest.raises(TypingError):
            KrausMorphism(cp_body(6, 2.0001, 3))
        # the ancilla is read off the body, so kraus_new refuses a caller's
        # ancilla that the body does not carry
        assert KrausMorphism(cp_body(6, 2.0, 3)).ancilla == Base(2.0 + 0j)
        with pytest.raises(TypingError):
            kraus_new(cp_body(6, 2.0, 3), Base(5 + 0j))

    def test_dom_cod_mismatch(self):
        with pytest.raises(DomCodMismatch):
            cplane_equiv(cp_kraus(6, 2.0, 3), cp_kraus(4, 2.0, 2))

    def test_constructor_rejects_invalid(self):
        with pytest.raises(TypingError):
            cp_kraus(6, 3.0, 3)


def projective_oracle(c, r, c_prime):
    """Independent reading: a representative exists iff r is a nonzero real
    and (c, c') sit on the same real line through the origin with ratio r."""
    if not isinstance(r, (int, float)):
        return False
    if r == 0:
        return False
    return abs(c - r * c_prime) <= 1e-12 * max(1.0, abs(c))


def test_grid_against_projective_oracle():
    cs = [0, 1, -1, 2, 1j, -2j, 1 + 1j, 3, -1.5, 0.5 - 0.5j]
    rs = [0, 1, -1, 2, 0.5, -0.5, 3, -3, 1.5, 0.25]
    for c in cs:
        for r in rs:
            for cp in cs:
                assert kraus_valid(c, r, cp) == projective_oracle(c, r, cp), \
                    (c, r, cp)


def test_phi_reads_a_real_relative_to_its_magnitude():
    # an imaginary part of 1e-7 at 1e6 is rounding; 1e-13 is 0
    assert structural(CPLANE, "phi", [Base(1e6 + 1e-7j)]).payload is None
    with pytest.raises(UnsupportedInModel, match="nonzero real"):
        structural(CPLANE, "phi", [Base(1e-13)])


def test_zero_has_no_dual():
    assert CPLANE.interpret(Dual(Base(2))) == 0.5
    with pytest.raises(UnsupportedInModel, match="0 has no linear dual"):
        CPLANE.interpret(Dual(Base(0)))
