import numpy as np
import pytest

from mucinf.errors import ArityError, ShapeMismatch, UnsupportedInModel
from mucinf.objects import BOT, TOP, Base, Dagger, Dual, Par, Tensor
from mucinf.structural import STRUCTURAL_NAMES, signature, structural


def test_signatures():
    a, b, c = Base(2), Base(3), Base(1)
    assert signature("mx", [a, b]) == (Tensor(a, b), Par(a, b))
    assert signature("lam_tensor", [a, b]) == (Tensor(Dagger(a), Dagger(b)),
                                               Dagger(Par(a, b)))
    assert signature("dl", [a, b, c]) == (Tensor(a, Par(b, c)),
                                          Par(Tensor(a, b), c))
    assert signature("m", []) == (BOT, TOP)
    assert signature("eta", [a]) == (TOP, Par(a, Dual(a)))


def test_arity_errors():
    with pytest.raises(ArityError):
        signature("mx", [Base(2)])
    with pytest.raises(ArityError):
        structural("mat", "no_such_map", [])


def test_mix_is_scalar_one_in_mat():
    m = structural("mat", "m", [])
    assert np.array_equal(m.payload, [[1.0]])


def test_commutation_in_mat_is_the_permutation():
    # sigma(i*3 + j) = j*2 + i on dims (2, 3)
    c = structural("mat", "c_tensor", [Base(2), Base(3)])
    expected = np.zeros((6, 6))
    for i in range(2):
        for j in range(3):
            expected[j * 2 + i, i * 3 + j] = 1
    assert np.array_equal(c.payload, expected)


def test_most_mat_structurals_are_identities():
    for name in ("a_tensor", "dl", "dr", "mx", "lam_tensor", "iota", "phi",
                 "rho"):
        arity = {"a_tensor": 3, "dl": 3, "dr": 3}.get(name, 2)
        args = [Base(2), Base(3), Base(2)][:arity] if arity != 2 \
            else [Base(2), Base(3)]
        if name in ("iota", "phi", "rho"):
            args = [Base(2)]
        mor = structural("mat", name, args)
        n = mor.payload.shape[0]
        assert np.array_equal(mor.payload, np.eye(n))


def test_cplane_unit_laxor_is_identity_at_one():
    lam = structural("cplane", "lam_top", [])
    from mucinf.morphisms import get_model
    cp = get_model("cplane")
    assert cp.interpret(lam.dom) == 1 and cp.interpret(lam.cod) == 1


def test_cplane_rejects_phi_off_the_real_line():
    with pytest.raises(UnsupportedInModel):
        structural("cplane", "phi", [Base(1j)])
    with pytest.raises(UnsupportedInModel):
        structural("cplane", "phi", [Base(0j)])


def test_cplane_morphisms_are_parallel_only_when_objects_match():
    # hand-built arrows between unequal evaluations are not comparable
    from mucinf.morphisms import Morphism, deviation
    f = Morphism("cplane", Base(2 + 0j), Base(2 + 0j), None)
    g = Morphism("cplane", Base(2 + 0j), Base(3 + 0j), None)
    with pytest.raises(ShapeMismatch):
        deviation(f, g)


def test_catalog_of_names_is_closed():
    assert "mx" in STRUCTURAL_NAMES and "lam_par_inv" in STRUCTURAL_NAMES
    assert len(STRUCTURAL_NAMES) >= 38


INVERTIBLE = ("a_tensor", "a_par", "u_tensor_l", "u_tensor_r", "u_par_l",
              "u_par_r", "m", "mx", "lam_tensor", "lam_par", "lam_top",
              "lam_bot", "iota", "phi", "rho", "m_top", "n_bot", "m_tensor",
              "n_par")


def test_inverse_signatures_swap_the_forward_ones():
    objects = [Base(2), Tensor(Base(3), Dagger(Base(1))),
               Par(TOP, Dual(Base(2)))]
    inverses = {name for name in STRUCTURAL_NAMES if name.endswith("_inv")}
    assert inverses == {f"{name}_inv" for name in INVERTIBLE}
    assert len(STRUCTURAL_NAMES) == 44
    for name in INVERTIBLE:
        for count in range(len(objects) + 1):
            try:
                dom, cod = signature(name, objects[:count])
            except ArityError:
                continue
            assert signature(f"{name}_inv", objects[:count]) == (cod, dom)
            break
        else:
            raise AssertionError(f"no arity fits {name}")
