import ast
from pathlib import Path

import numpy as np
import pytest

from mucinf import cpinf, laws, suite
from mucinf.cpinf import (EnvStructure, canonical_env, channel,
                          channel_action, channel_deviation, env_check,
                          env_discard, env_factor, equiv_decide,
                          equiv_testmap_oracle, equivalent_variant,
                          functor_N, functor_Q, initiality_probe,
                          kraus_compose, kraus_dagger, kraus_identity,
                          kraus_new, kraus_par, kraus_tensor,
                          pure_decomposition, purify, random_channel,
                          random_density, to_choi)
from mucinf.cplane import CplaneChannel
from mucinf.errors import (DomCodMismatch, NotPSD, TypingError,
                           UnsupportedInModel)
from mucinf.fmat import to_dense
from mucinf.matc import mat_identity, random_unitary
from mucinf.morphisms import (Model, Morphism, get_model, register_model,
                              unregister_model)
from mucinf.objects import BOT, Base, Par, Tensor

MAT = get_model("mat")
RNG = np.random.default_rng(31415)


def make_kraus(body, a, b, u, model="mat"):
    return kraus_new(Morphism(model, Base(a), Par(Base(u), Base(b)),
                              np.asarray(body, dtype=complex)), Base(u))


def cp_kraus(c, r, cp):
    body = Morphism("cplane", Base(complex(c)),
                    Par(Base(complex(r)), Base(complex(cp))), None)
    return kraus_new(body, Base(complex(r)))


class TestConstruction:
    def test_identity_representative(self):
        k = kraus_identity("mat", Base(3))
        assert MAT.interpret(k.ancilla) == 1
        assert np.array_equal(k.body.payload, mat_identity(3))

    def test_identity_dim_one(self):
        k = kraus_identity("mat", Base(1))
        assert np.array_equal(k.body.payload, [[1.0]])

    def test_random_body_accepted(self):
        body = RNG.random((6, 2)) + 1j * RNG.random((6, 2))
        k = make_kraus(body, 2, 3, 2)
        assert MAT.interpret(k.cod) == 3

    def test_wrong_shape_rejected(self):
        with pytest.raises(TypingError):
            make_kraus(np.zeros((5, 2)), 2, 3, 2)

    def test_wrong_codomain_shape_rejected(self):
        f = Morphism("mat", Base(2), Base(2), mat_identity(2))
        with pytest.raises(TypingError):
            kraus_new(f, Base(1))

    def test_cplane_identity_has_unit_ratio(self):
        k = kraus_identity("cplane", Base(5 + 0j))
        cp = get_model("cplane")
        assert cp.interpret(k.ancilla) == 1


class TestComposition:
    def test_identity_laws_up_to_equivalence(self):
        k = random_channel(MAT, RNG)
        assert equiv_decide(kraus_compose(kraus_identity("mat", k.dom), k), k)
        assert equiv_decide(kraus_compose(k, kraus_identity("mat", k.cod)), k)

    def test_cplane_ancillas_multiply(self):
        first = cp_kraus(6, 2, 3)
        second = cp_kraus(3, 3, 1)
        out = kraus_compose(first, second)
        cp = get_model("cplane")
        assert cp.interpret(out.ancilla) == 6
        assert cp.interpret(out.dom) == 6 and cp.interpret(out.cod) == 1

    def test_action_composes(self):
        k1 = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        k2 = random_channel(MAT, RNG, Base(3), Base(2), Base(2))
        rho = random_density(RNG, 2)
        direct = channel_action(kraus_compose(k1, k2), rho)
        staged = channel_action(k2, channel_action(k1, rho))
        assert np.max(np.abs(direct - staged)) <= 1e-9

    def test_associative_up_to_equivalence(self):
        for _ in range(10):
            k1 = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
            k2 = random_channel(MAT, RNG, Base(2), Base(3), Base(1))
            k3 = random_channel(MAT, RNG, Base(3), Base(1), Base(2))
            lhs = kraus_compose(kraus_compose(k1, k2), k3)
            rhs = kraus_compose(k1, kraus_compose(k2, k3))
            assert equiv_decide(lhs, rhs)


class TestTensors:
    def test_tensor_of_identities(self):
        k = kraus_tensor(kraus_identity("mat", Base(2)),
                         kraus_identity("mat", Base(3)))
        assert equiv_decide(k, kraus_identity("mat", Tensor(Base(2),
                                                            Base(3))))

    def test_product_action(self):
        k1 = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        k2 = random_channel(MAT, RNG, Base(3), Base(2), Base(1))
        r1, r2 = random_density(RNG, 2), random_density(RNG, 3)
        joint = channel_action(kraus_tensor(k1, k2), np.kron(r1, r2))
        split = np.kron(channel_action(k1, r1), channel_action(k2, r2))
        assert np.max(np.abs(joint - split)) <= 1e-9

    def test_both_tensors_agree(self):
        k1 = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        k2 = random_channel(MAT, RNG, Base(2), Base(3), Base(1))
        assert channel_deviation(kraus_tensor(k1, k2),
                                 kraus_par(k1, k2)) <= 1e-9

    def test_tensor_body_is_the_middle_swap_of_the_kron(self):
        # the rewiring chain must reduce to (1 x swap x 1)(f1 x f2)
        from mucinf.matc import commutation_perm
        for _ in range(10):
            a1, b1, u1 = (int(RNG.integers(1, 4)) for _ in range(3))
            a2, b2, u2 = (int(RNG.integers(1, 4)) for _ in range(3))
            k1 = random_channel(MAT, RNG, Base(a1), Base(b1), Base(u1))
            k2 = random_channel(MAT, RNG, Base(a2), Base(b2), Base(u2))
            joint = kraus_tensor(k1, k2).body.payload
            swap = np.kron(np.eye(u1),
                           np.kron(commutation_perm(b1, u2), np.eye(b2)))
            direct = swap @ np.kron(k1.body.payload, k2.body.payload)
            assert np.max(np.abs(joint - direct)) <= 1e-12


class TestChoi:
    def test_identity_choi_frozen(self):
        c = to_choi(kraus_identity("mat", Base(2)))
        expected = np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                             [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
        assert np.array_equal(c.matrix, expected)

    def test_discard_choi_is_identity(self):
        c = to_choi(env_discard("mat", Base(2)))
        assert np.array_equal(c.matrix, np.eye(2))

    def test_composite_choi_matches_tomographic_oracle(self):
        # reconstruct the Choi matrix from the action on matrix units,
        # assembled from a Hermitian operator basis
        k1 = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        k2 = random_channel(MAT, RNG, Base(3), Base(2), Base(2))
        k = kraus_compose(k1, k2)
        a, b = 2, 2

        def act(mat):  # action on a not-necessarily-Hermitian operator
            sym = (mat + mat.conj().T) / 2
            asym = (mat - mat.conj().T) / (2j)
            return (channel_action(k, sym).astype(complex)
                    + 1j * channel_action(k, asym))

        oracle = np.zeros((a * b, a * b), dtype=complex)
        for i in range(a):
            for j in range(a):
                unit = np.zeros((a, a), dtype=complex)
                unit[i, j] = 1
                block = act(unit)
                for p in range(b):
                    for q in range(b):
                        oracle[p * a + i, q * a + j] = block[p, q]
        assert np.max(np.abs(oracle - to_choi(k).matrix)) <= 1e-9

    def test_needs_dense_model(self):
        with pytest.raises(UnsupportedInModel):
            to_choi(cp_kraus(6, 2, 3))


class TestEquivalence:
    def test_unitary_mixing(self):
        for _ in range(10):
            k = random_channel(MAT, RNG)
            assert equiv_decide(k, equivalent_variant(RNG, k))

    def test_identity_vs_discard_then_prepare(self):
        kid = kraus_identity("mat", Base(2))
        prep = np.zeros((2, 1), dtype=complex)
        prep[0, 0] = 1
        prepare = kraus_new(Morphism("mat", BOT, Par(Base(1), Base(2)), prep),
                            Base(1))
        disc = env_discard("mat", Base(2))
        disc = kraus_new(Morphism("mat", Base(2), Par(Base(2), BOT),
                                  disc.body.payload), Base(2))
        dp = kraus_compose(disc, prepare)
        assert not equiv_decide(kid, dp)

    def test_dom_cod_mismatch(self):
        with pytest.raises(DomCodMismatch):
            equiv_decide(random_channel(MAT, RNG, Base(2), Base(2)),
                         random_channel(MAT, RNG, Base(2), Base(3)))

    def test_oracle_consistent_on_equal_pairs(self):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        v = equivalent_variant(RNG, k)
        out = equiv_testmap_oracle(k, v, trials=200, rng=RNG)
        assert out["consistent"] and out["witness"] is None

    def test_oracle_separates_distinct_pairs(self):
        k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
        out = equiv_testmap_oracle(k1, k2, trials=200, rng=RNG)
        assert not out["consistent"]
        assert out["witness"]["deviation"] > 1e-9

    def test_oracle_zero_trials_vacuous(self):
        k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
        assert equiv_testmap_oracle(k1, k2, trials=0, rng=RNG)["consistent"]

    def test_testmap_chain_reduces_to_closed_form(self):
        # with every structural map an identity matrix, the glued wiring
        # must collapse to (f x 1)^ (1 x h^h) (f x 1)
        from mucinf.cpinf import _testmap_side
        for _ in range(10):
            a, b, u, c, x = (int(RNG.integers(1, 4)) for _ in range(5))
            k = random_channel(MAT, RNG, Base(a), Base(b), Base(u))
            h = MAT.random_morphism(RNG, Tensor(Base(b), Base(c)), Base(x))
            chain = _testmap_side(k, h, Base(c), Base(x)).payload
            fx = np.kron(k.body.payload, np.eye(c))
            closed = fx.conj().T @ np.kron(np.eye(u),
                                           h.payload.conj().T @ h.payload) @ fx
            assert np.max(np.abs(chain - closed)) <= 1e-12

    def test_non_unitary_ancilla_mixing_breaks_equivalence(self):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        skew = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)  # not unitary
        body = Morphism("mat", k.dom, k.body.cod,
                        np.kron(skew, np.eye(2)) @ k.body.payload)
        assert not equiv_decide(k, kraus_new(body, k.ancilla))

    def test_channel_handles(self):
        k = random_channel(MAT, RNG)
        assert channel(k).equals(channel(equivalent_variant(RNG, k)))

    def test_cplane_channel_handles(self):
        into_zero = channel(cp_kraus(0, 2, 0))
        assert into_zero.canonical == (0j, 0j, None)
        pinned = channel(cp_kraus(6, 2, 3))
        assert pinned.canonical == (6 + 0j, 3 + 0j, 2.0)
        assert into_zero.equals(channel(cp_kraus(0, 5, 0)))
        assert not pinned.equals(into_zero)


class TestPureDecomposition:
    def test_trivial_ancilla(self):
        body = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
        k = make_kraus(body, 2, 3, 1)
        blocks = pure_decomposition(k)
        assert len(blocks) == 1 and np.array_equal(blocks[0], body)

    def test_identity_channel(self):
        blocks = pure_decomposition(kraus_identity("mat", Base(2)))
        assert len(blocks) == 1 and np.array_equal(blocks[0], np.eye(2))

    def test_action_equality_on_ten_states(self):
        k = random_channel(MAT, RNG, Base(3), Base(2), Base(3))
        blocks = pure_decomposition(k)
        for _ in range(10):
            rho = random_density(RNG, 3)
            total = sum(blk @ rho @ blk.conj().T for blk in blocks)
            assert np.max(np.abs(total - channel_action(k, rho))) <= 1e-9


class TestDagger:
    def test_identity_self_adjoint(self):
        kid = kraus_identity("mat", Base(2))
        assert equiv_decide(kraus_dagger(kid), kid)

    def test_involution(self):
        for _ in range(10):
            k = random_channel(MAT, RNG)
            assert equiv_decide(kraus_dagger(kraus_dagger(k)), k)

    def test_unitary_conjugation_dagger_is_inverse(self):
        u = random_unitary(RNG, 3)
        ku = kraus_new(Morphism("mat", Base(3), Par(Base(1), Base(3)), u),
                       Base(1))
        kinv = kraus_new(Morphism("mat", Base(3), Par(Base(1), Base(3)),
                                  u.conj().T), Base(1))
        assert equiv_decide(kraus_dagger(ku), kinv)

    def test_contravariance(self):
        k1 = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        k2 = random_channel(MAT, RNG, Base(3), Base(2), Base(1))
        lhs = kraus_dagger(kraus_compose(k1, k2))
        rhs = kraus_compose(kraus_dagger(k2), kraus_dagger(k1))
        assert equiv_decide(lhs, rhs)

    def test_choi_of_adjoint_by_index_oracle(self):
        k = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        a, b = 2, 3
        c = to_choi(k).matrix
        direct = to_choi(kraus_dagger(k)).matrix
        for o1 in range(a):
            for i1 in range(b):
                for o2 in range(a):
                    for i2 in range(b):
                        assert abs(direct[o1 * b + i1, o2 * b + i2]
                                   - np.conj(c[i1 * a + o1, i2 * a + o2])) \
                            <= 1e-12


class TestFunctors:
    def test_q_of_identity(self):
        f = Morphism("mat", Base(2), Base(2), mat_identity(2))
        assert equiv_decide(functor_Q(f), kraus_identity("mat", Base(2)))

    def test_q_preserves_composition(self):
        for _ in range(10):
            f = MAT.random_morphism(RNG, Base(2), Base(3))
            g = MAT.random_morphism(RNG, Base(3), Base(2))
            assert equiv_decide(functor_Q(f >> g),
                                kraus_compose(functor_Q(f), functor_Q(g)))

    def test_q_is_not_faithful_phases_collapse(self):
        u = random_unitary(RNG, 2)
        f = Morphism("mat", Base(2), Base(2), u)
        g = Morphism("mat", Base(2), Base(2), np.exp(0.7j) * u)
        assert f.payload is not g.payload
        assert equiv_decide(functor_Q(f), functor_Q(g))

    def test_n_mirrors_q_and_respects_dagger(self):
        from mucinf.morphisms import dagger
        f = MAT.random_morphism(RNG, Base(2), Base(3))
        assert equiv_decide(functor_N(f), functor_Q(f))
        assert equiv_decide(functor_N(dagger(f)),
                            kraus_dagger(functor_N(f)))


class TestEnvironment:
    def test_discard_dim_one_is_identity_on_scalars(self):
        k = env_discard("mat", Base(1))
        assert equiv_decide(k, kraus_identity("mat", Base(1)))

    def test_discard_action_is_trace(self):
        rho = random_density(RNG, 2)
        out = channel_action(env_discard("mat", Base(2)), rho)
        assert np.allclose(out, [[np.trace(rho)]])

    def test_discard_multiplicative_over_tensor(self):
        lhs = kraus_tensor(env_discard("mat", Base(2)),
                           env_discard("mat", Base(3)))
        glue = functor_Q(Morphism("mat", Tensor(BOT, BOT), BOT,
                                  np.array([[1.0 + 0j]])))
        lhs = kraus_compose(lhs, glue)
        rhs = env_discard("mat", Tensor(Base(2), Base(3)))
        assert channel_deviation(lhs, rhs) <= 1e-9

    def test_canonical_structure_passes(self):
        reports = env_check(canonical_env(), trials=15, seed=2)
        assert [r.law for r in reports] == ["Env.1a", "Env.1b", "Env.2",
                                            "Env.3"]
        assert all(r.passed for r in reports)

    def test_zero_trials_vacuous(self):
        reports = env_check(canonical_env(), trials=0, seed=2)
        assert all(r.passed and r.trials == 0 for r in reports)

    def test_halved_trace_fails_first_axiom(self):
        def halved(u_expr):
            honest = env_discard("mat", u_expr)
            body = Morphism("mat", honest.body.dom, honest.body.cod,
                            honest.body.payload / np.sqrt(2))
            return kraus_new(body, honest.ancilla)

        broken = EnvStructure("mat", functor_Q, halved, "trace-then-halve")
        reports = {r.law: r for r in env_check(broken, trials=10, seed=4)}
        assert not reports["Env.1a"].passed

    def test_nan_discard_fails_the_axioms_it_enters(self):
        def nan_scaled(u_expr):
            honest = env_discard("mat", u_expr)
            body = Morphism("mat", honest.body.dom, honest.body.cod,
                            honest.body.payload * np.nan)
            return kraus_new(body, honest.ancilla)

        broken = EnvStructure("mat", functor_Q, nan_scaled, "nan-discard")
        reports = {r.law: r for r in env_check(broken, trials=5, seed=4)}
        for axiom in ("Env.1a", "Env.1b", "Env.3"):
            assert not reports[axiom].passed
            assert reports[axiom].max_abs_deviation == float("inf")

    def test_purification_factors_through_discard(self):
        k = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        rebuilt = env_factor(canonical_env(), k)
        assert equiv_decide(rebuilt, k)


class TestPurify:
    def test_identity_choi_gives_single_block(self):
        k = purify(to_choi(kraus_identity("mat", Base(2))))
        blocks = pure_decomposition(k)
        assert len(blocks) == 1
        phase = blocks[0][0, 0]
        assert np.allclose(blocks[0], phase * np.eye(2))
        assert abs(abs(phase) - 1.0) <= 1e-9

    def test_fully_mixing_channel_has_four_blocks(self):
        # rho -> tr(rho) I/2 on one qubit: Choi = I/2, rank 4
        c = cpinf.ChoiMatrix(np.eye(4, dtype=complex) / 2, 2, 2)
        k = purify(c)
        assert len(pure_decomposition(k)) == 4
        assert np.max(np.abs(to_choi(k).matrix - c.matrix)) <= 1e-8

    def test_round_trip(self):
        for _ in range(10):
            k = random_channel(MAT, RNG)
            assert equiv_decide(purify(to_choi(k)), k, 1e-8)

    def test_rejects_negative_choi(self):
        bad = cpinf.ChoiMatrix(np.diag([1.0, -0.5]).astype(complex), 1, 2)
        with pytest.raises(NotPSD):
            purify(bad)


class TestInitiality:
    def test_canonical_to_itself(self):
        env = canonical_env()
        report = initiality_probe(env, env, samples=10, seed=6)
        assert report["consistent"]

    def test_permuted_ancilla_presentation(self):
        def permuted(u_expr):
            honest = env_discard("mat", u_expr)
            dim = MAT.interpret(u_expr)
            perm = np.eye(dim)[::-1].astype(complex)
            body = Morphism("mat", honest.body.dom, honest.body.cod,
                            perm @ honest.body.payload)
            return kraus_new(body, honest.ancilla)

        tgt = EnvStructure("mat", functor_Q, permuted, "permuted-ancilla")
        report = initiality_probe(canonical_env(), tgt, samples=10, seed=8)
        assert report["consistent"]

    def test_zero_samples_vacuous(self):
        env = canonical_env()
        assert initiality_probe(env, env, samples=0)["consistent"]


class TestFmatChannels:
    def test_composition_in_the_finite_fragment(self):
        # the product space of a tensor and of a par coincide, so a sparse
        # payload into Tensor(u, b) retypes directly as Par(u, b)
        fm = get_model("fmat")
        rng = np.random.default_rng(12)
        f = fm.include(MAT.random_morphism(rng, Base(2),
                                           Tensor(Base(2), Base(3))))
        k1 = kraus_new(Morphism("fmat", f.dom,
                                Par(f.cod.left, f.cod.right), f.payload),
                       f.cod.left)
        g = fm.include(MAT.random_morphism(rng, Base(3),
                                           Tensor(Base(1), Base(2))))
        k2 = kraus_new(Morphism("fmat", g.dom,
                                Par(g.cod.left, g.cod.right), g.payload),
                       g.cod.left)
        out = kraus_compose(k1, k2)
        assert equiv_decide(out, out)

    def test_composition_with_symbolic_ancilla(self):
        # composition never materialises the identity on the ancilla, so a
        # symbolic infinite ancilla is fine; only the decision procedure
        # needs the finite fragment
        from mucinf.fmat import OMEGA_FIN, SparseMatrix
        fm = get_model("fmat")
        u = Base(OMEGA_FIN)
        a = fm.include_expr(Base(2))
        b = fm.include_expr(Base(2))
        src = fm.interpret(a)
        tgt = fm.interpret(Par(u, b))
        payload = SparseMatrix(src, tgt, ((0, (3, 1), 2 + 0j),
                                          (1, (9, 0), 1j)))
        k1 = kraus_new(Morphism("fmat", a, Par(u, b), payload), u)
        second = SparseMatrix(fm.interpret(b), fm.interpret(Par(u, a)),
                              ((0, (5, 0), 1 + 0j),))
        k2 = kraus_new(Morphism("fmat", b, Par(u, a), second), u)
        out = kraus_compose(k1, k2)
        assert out.body.payload.entries  # nonzero finite support survived
        with pytest.raises(UnsupportedInModel):
            equiv_decide(out, out)

    def test_equiv_outside_finite_fragment_unsupported(self):
        from mucinf.fmat import OMEGA_FIN, SparseMatrix
        fm = get_model("fmat")
        u = Base(OMEGA_FIN)
        b = fm.include_expr(Base(2))
        src = fm.interpret(b)
        tgt = fm.interpret(Par(u, b))
        payload = SparseMatrix(src, tgt, ((0, (7, 0), 1 + 0j),))
        k = kraus_new(Morphism("fmat", b, Par(u, b), payload), u)
        with pytest.raises(UnsupportedInModel):
            equiv_decide(k, k)


def fmat_kraus(rng, a, b, u):
    """An fmat representative: an included dense body, retyped onto Par."""
    fm = get_model("fmat")
    f = fm.include(MAT.random_morphism(rng, Base(a),
                                       Tensor(Base(u), Base(b))))
    return kraus_new(Morphism("fmat", f.dom, Par(f.cod.left, f.cod.right),
                              f.payload), f.cod.left)


class TestCanonicalForms:
    def test_fmat_choi_is_the_choi_of_the_dense_channel(self):
        rng = np.random.default_rng(5)
        for a, b, u in [(1, 1, 1), (2, 3, 2), (3, 2, 3)]:
            k = fmat_kraus(rng, a, b, u)
            dense = make_kraus(to_dense(k.body.payload), a, b, u)
            assert np.array_equal(channel(k).canonical.matrix,
                                  to_choi(dense).matrix)

    def test_fmat_compose_surgery_matches_the_generic_wiring(self):
        rng = np.random.default_rng(6)
        fm = get_model("fmat")
        k1, k2 = fmat_kraus(rng, 2, 3, 2), fmat_kraus(rng, 3, 2, 2)
        generic = Model.kraus_compose_body(fm, k1, k2)
        surgery = fm.kraus_compose_body(k1, k2)
        assert (generic.dom, generic.cod) == (surgery.dom, surgery.cod)
        assert fm.deviation(generic, surgery) <= 1e-12

    def test_equals_compares_the_stored_forms(self, monkeypatch):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        same = channel(k), channel(equivalent_variant(RNG, k))
        other = channel(random_channel(MAT, RNG, Base(2), Base(2), Base(2)))
        wider = channel(random_channel(MAT, RNG, Base(2), Base(3), Base(2)))

        def recompute(_):
            raise AssertionError("equals recomputed a canonical form")

        monkeypatch.setattr(MAT, "canonical", recompute)
        assert same[0].equals(same[1])
        assert not same[0].equals(other)
        assert not same[0].equals(wider)

    def test_cplane_form_is_exact_whatever_the_tolerance(self):
        pinned = channel(cp_kraus(6, 2, 3)).canonical
        assert isinstance(pinned, CplaneChannel) and pinned.ratio == 2.0
        near = CplaneChannel(6 + 0j, 3 + 0j, 2.0 + 1e-6)
        assert not pinned.equiv(near, tol=1.0)
        assert pinned.deviation(near) == pytest.approx(1e-6)

    def test_a_model_without_body_typing_has_no_channels(self):
        class Untyped(Model):
            name, base = "untyped", "mat"

        register_model(Untyped())
        try:
            body = Morphism("untyped", Base(2), Par(Base(1), Base(2)),
                            "any payload at all")
            with pytest.raises(UnsupportedInModel):
                kraus_new(body, Base(1))
        finally:
            unregister_model("untyped")

    def test_cpinf_knows_no_concrete_model(self):
        # every model-specific decision sits behind the Model interface
        tree = ast.parse(Path(cpinf.__file__).read_text())
        froms = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
        imported = {(node.module or "").rsplit(".", 1)[-1] for node in froms}
        imported |= {alias.name for node in froms for alias in node.names}
        assert not imported & {"cplane", "fmat"}
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        assert not (names | imported) & {"MatModel", "FmatModel",
                                         "CplaneModel"}

    def test_suite_and_laws_leave_sampling_to_the_model(self):
        # which objects carry arrows or channels is the model's question;
        # family names may appear only where entries state where they apply
        # (the tuples of _law/_prop) and in the default model list, and
        # ``base`` may only be looked up in such a tuple
        families = {"mat", "cplane", "fmat"}
        for module in (laws, suite):
            tree = ast.parse(Path(module.__file__).read_text())
            allowed = set()
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) in ("_law",
                                                               "_prop")):
                    allowed |= {id(n) for arg in node.args for n in
                                ast.walk(arg)}
                    allowed |= {id(n) for kw in node.keywords for n in
                                ast.walk(kw.value)}
                elif (isinstance(node, ast.FunctionDef)
                      and node.name in ("_law", "_prop")):
                    allowed |= {id(n) for d in node.args.defaults
                                for n in ast.walk(d)}
                elif (isinstance(node, ast.AnnAssign) and node.value
                      and getattr(node.target, "id", None) == "models"):
                    allowed |= {id(n) for n in ast.walk(node.value)}
            named = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and node.value in families and id(node) not in allowed]
            compared = [
                node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and not all(isinstance(op, (ast.In, ast.NotIn))
                            for op in node.ops)
                and any(isinstance(side, ast.Attribute) and side.attr == "base"
                        for side in [node.left, *node.comparators])]
            assert (named, compared) == ([], []), module.__name__
