import ast
import math
import re
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf import cpinf, fmat, laws, matc, suite
from mucinf.cpinf import (channel_action, channel_deviation, env_discard,
                          env_factor, equiv_decide,
                          equiv_testmap_oracle, equivalent_variant,
                          functor_N, functor_Q, initiality_probe,
                          kraus_compose, kraus_dagger, kraus_identity,
                          kraus_new, kraus_par, kraus_tensor,
                          pure_decomposition, purify, random_channel,
                          random_density, to_choi)
from mucinf.cplane import CplaneChannel
from mucinf.errors import (DomCodMismatch, ModelMismatch, MucinfError, NotPSD,
                           TypingError, UnsupportedInModel)
from mucinf.fmat import to_dense
from mucinf.laws import check_law
from mucinf.matc import ChoiMatrix, mat_identity, random_unitary
from mucinf.morphisms import (Model, Morphism, dagger, get_model, identity,
                              par, register_model, tensor, unregister_model)
from mucinf.objects import BOT, Base, Dagger, Par, Tensor
from mucinf.structural import structural
from mutants import (MUTANTS, HalvedDiscard, NanDiscard, PermutedDiscard,
                     PickyDiscard, ScaledDiscard, SkewLaxor, TransposeDagger,
                     registered)

MAT = get_model("mat")
RNG = np.random.default_rng(31415)


def make_kraus(body, a, b, u, model="mat"):
    return kraus_new(Morphism(model, Base(a), Par(Base(u), Base(b)),
                              np.asarray(body, dtype=complex)), Base(u))


def reference_side(k, h, c_expr, x_expr):
    """One side of the test-map equation, composed literally: the oracle's
    wiring must agree with this chain."""
    m = get_model(k.model)
    u, a, b, f = k.ancilla, k.dom, k.cod, k.body
    return (
        tensor(f, identity(m, c_expr))
        >> structural(m, "dr", [u, b, c_expr])
        >> par(identity(m, u), h)
        >> structural(m, "mx_inv", [u, x_expr])
        >> tensor(structural(m, "phi", [u]), structural(m, "phi", [x_expr]))
        >> tensor(structural(m, "rho", [u]), structural(m, "rho", [x_expr]))
        >> tensor(identity(m, Dagger(u)),
                  dagger(h) >> structural(m, "lam_par_inv", [b, c_expr]))
        >> structural(m, "dl", [Dagger(u), Dagger(b), Dagger(c_expr)])
        >> par(structural(m, "lam_tensor", [u, b]),
               identity(m, Dagger(c_expr)))
        >> par(dagger(f), identity(m, Dagger(c_expr)))
        >> structural(m, "lam_par", [a, c_expr]))


def reference_tensor_body(k1, k2):
    """The body of ``kraus_tensor`` as a formed composite: the rewiring
    ``(U1 + B) * (U2 + D) -> (U1 + U2) + (B * D)`` built as one map, then
    composed after ``f1 * f2``."""
    m = get_model(k1.model)
    u1, b, u2, d = k1.ancilla, k1.cod, k2.ancilla, k2.cod
    rewire = (
        tensor(structural(m, "mx_inv", [u1, b]),
               structural(m, "mx_inv", [u2, d]))
        >> structural(m, "a_tensor_inv", [u1, b, Tensor(u2, d)])
        >> tensor(identity(m, u1), structural(m, "a_tensor", [b, u2, d]))
        >> tensor(identity(m, u1),
                  tensor(structural(m, "c_tensor", [b, u2]), identity(m, d)))
        >> tensor(identity(m, u1), structural(m, "a_tensor_inv", [u2, b, d]))
        >> structural(m, "a_tensor", [u1, u2, Tensor(b, d)])
        >> structural(m, "mx", [Tensor(u1, u2), Tensor(b, d)])
        >> par(structural(m, "mx", [u1, u2]), identity(m, Tensor(b, d))))
    return tensor(k1.body, k2.body) >> rewire


def reference_par_body(k1, k2):
    """The body of ``kraus_par`` as a formed composite, as
    ``reference_tensor_body``."""
    m = get_model(k1.model)
    u1, b, u2, d = k1.ancilla, k1.cod, k2.ancilla, k2.cod
    rewire = (
        structural(m, "a_par_inv", [u1, b, Par(u2, d)])
        >> par(identity(m, u1), structural(m, "a_par", [b, u2, d]))
        >> par(identity(m, u1),
               par(structural(m, "c_par", [b, u2]), identity(m, d)))
        >> par(identity(m, u1), structural(m, "a_par_inv", [u2, b, d]))
        >> structural(m, "a_par", [u1, u2, Par(b, d)]))
    return par(k1.body, k2.body) >> rewire


def reference_q_body(f):
    """The body of ``functor_Q(f)`` as a formed composite."""
    m = get_model(f.model)
    return (f >> structural(m, "u_par_l_inv", [f.cod])
            >> par(structural(m, "n_bot_inv", []), identity(m, f.cod)))


MAT_MODELS = (MAT, *(model for model in MUTANTS if model.base == "mat"))


def cp_kraus(c, r, cp):
    body = Morphism("cplane", Base(complex(c)),
                    Par(Base(complex(r)), Base(complex(cp))), None)
    return kraus_new(body, Base(complex(r)))


ENV_IDS = ("Env.1a", "Env.1b", "Env.2", "Env.3")
PROBE_CHECKS = ("well_defined", "functorial", "identity", "discard")


def reference_choi(k):
    """The Choi matrix summed block by block: entry ((b, a), (b', a')) is
    the sum over Kraus blocks M of M[b, a] * conj(M[b', a'])."""
    vecs = [m.reshape(-1) for m in pure_decomposition(k)]
    return sum(np.outer(v, v.conj()) for v in vecs)


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
        # a payload of another rank, which no (rows, cols) unpacks
        for payload in (np.zeros(12), np.zeros((6, 2, 1))):
            with pytest.raises(TypingError):
                make_kraus(payload, 2, 3, 2)

    def test_wrong_codomain_shape_rejected(self):
        f = Morphism("mat", Base(2), Base(2), mat_identity(2))
        with pytest.raises(TypingError):
            kraus_new(f, Base(1))

    def test_a_relabelled_body_is_refused_when_built(self):
        # a 2 -> 2 channel of ancilla 2 relabelled with ancilla 3: its 4 x 2
        # payload does not fit Par(3, 2), which equiv_decide once met as
        # numpy's "cannot reshape array of size 8 into shape (3,4)"
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        relabelled = replace(k.body, cod=Par(Base(3), Base(2)))
        with pytest.raises(TypingError):
            cpinf.KrausMorphism(relabelled)
        with pytest.raises(TypingError):
            replace(k, body=relabelled)

    def test_replace_reads_the_fields_off_the_new_body(self):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        # an extra ancilla wire whose Kraus block is zero
        padded = replace(k.body, cod=Par(Base(3), Base(2)), payload=np.vstack(
            [k.body.payload, np.zeros((2, 2))]))
        k3 = replace(k, body=padded)
        assert (k3.model, k3.dom, k3.cod, k3.ancilla) == (
            "mat", Base(2), Base(2), Base(3))
        assert equiv_decide(k, k3)

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

    @pytest.mark.parametrize("model", MAT_MODELS, ids=lambda m: m.name)
    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 4)] * 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rewired_bodies_are_the_formed_chains(self, model, dims, seed):
        # each rewiring step is a permutation or an identity, so applying
        # it step by step must give the formed composite bit for bit
        rng = np.random.default_rng(seed)
        a1, b1, u1, a2, b2, u2 = dims
        with registered(model) if model is not MAT else nullcontext():
            k1 = random_channel(model, rng, Base(a1), Base(b1), Base(u1))
            k2 = random_channel(model, rng, Base(a2), Base(b2), Base(u2))
            f = model.random_morphism(rng, Base(a1), Base(b1))
            pairs = ((kraus_tensor(k1, k2).body,
                      reference_tensor_body(k1, k2)),
                     (kraus_par(k1, k2).body, reference_par_body(k1, k2)),
                     (functor_Q(f).body, reference_q_body(f)))
        for body, ref in pairs:
            assert (body.dom, body.cod) == (ref.dom, ref.cod)
            assert np.array_equal(body.payload, ref.payload)

    @pytest.mark.parametrize("model", ["cplane", "fmat"])
    @settings(max_examples=10, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 4)] * 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rewired_bodies_are_the_formed_chains_in_the_other_models(
            self, model, dims, seed):
        rng = np.random.default_rng(seed)
        a1, b1, u1, a2, b2, u2 = dims
        m = get_model(model)
        if model == "fmat":
            k1, k2 = fmat_kraus(rng, a1, b1, u1), fmat_kraus(rng, a2, b2, u2)
            f = m.include(MAT.random_morphism(rng, Base(a1), Base(b1)))
        else:
            k1 = random_channel(m, rng, None, Base(complex(b1)),
                                Base(complex(u1)))
            k2 = random_channel(m, rng, None, Base(complex(b2)),
                                Base(complex(u2)))
            f = identity(m, Base(complex(a1)))
        pairs = ((kraus_tensor(k1, k2).body, reference_tensor_body(k1, k2)),
                 (kraus_par(k1, k2).body, reference_par_body(k1, k2)),
                 (functor_Q(f).body, reference_q_body(f)))
        for body, ref in pairs:
            assert (body.dom, body.cod) == (ref.dom, ref.cod)
            assert body.payload == ref.payload

    @pytest.mark.parametrize("product", [kraus_tensor, kraus_par],
                             ids=["tensor", "par"])
    def test_channel_products_form_no_rewiring_map(self, product):
        # the rewiring on u1*b*u2*d = 4096 wires would take 256 MiB; the
        # body itself is 4096 x 64, 4 MiB
        k = random_channel(MAT, RNG, Base(8), Base(8), Base(8))
        tracemalloc.start()
        try:
            out = product(k, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.body.payload.shape == (4096, 64)
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("product", [kraus_tensor, kraus_par],
                             ids=["tensor", "par"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_a_non_finite_body_entry_still_separates(self, product, bad):
        rng = np.random.default_rng(2)
        k1 = random_channel(MAT, rng, Base(2), Base(2), Base(2))
        k2 = random_channel(MAT, rng, Base(2), Base(2), Base(2))
        payload = np.array(k1.body.payload)
        payload[1, 0] = bad
        broken = kraus_new(replace(k1.body, payload=matc._freeze(payload)),
                           k1.ancilla)
        with np.errstate(invalid="ignore"):
            out = product(broken, k2)
            assert channel_deviation(out, product(k1, k2)) == math.inf
        if np.isnan(bad):
            # the NaN stays in its own ancilla slice: 8 rows by the 2
            # columns it touches, where the formed rewiring's zeros
            # spread it over all 16 rows (32 entries)
            assert np.isnan(out.body.payload).sum() == 16

    @pytest.mark.parametrize("product", [kraus_tensor, kraus_par],
                             ids=["tensor", "par"])
    def test_channels_of_two_models_are_refused(self, product):
        # the product of the two bodies refuses them, as tensor and par do
        k = random_channel(MAT, RNG)
        other = kraus_identity("cplane", Base(2 + 0j))
        for pair in ((k, other), (other, k)):
            with pytest.raises(ModelMismatch):
                product(*pair)


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

    def test_oracle_separates_a_nan_body(self):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        nan = make_kraus(np.full((4, 2), np.nan), 2, 2, 2)
        out = equiv_testmap_oracle(nan, k, trials=3, rng=RNG)
        assert not out["consistent"]
        assert out["witness"]["trial"] == 0

    def test_distinct_pair_gives_up_when_every_channel_is_equivalent(self):
        # every cplane channel into 0 has the canonical form (0, 0, None),
        # so the draws once went on forever
        start = time.perf_counter()
        with pytest.raises(MucinfError, match=re.escape(
                "found no two channels Base(label=0j) -> Base(label=0j) in "
                f"cplane more than {cpinf.MIN_GAP} apart in "
                f"{cpinf.PAIR_DRAWS} draws")):
            cpinf.distinct_pair(get_model("cplane"),
                                np.random.default_rng(0), Base(0j), Base(0j))
        assert time.perf_counter() - start < 1.0

    def test_oracle_zero_trials_are_refused(self):
        # no test map separates nothing, and must not read as consistent
        k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
        for trials in (0, -3):
            with pytest.raises(ValueError,
                               match=f"trials must be >= 1, got {trials}"):
                equiv_testmap_oracle(k1, k2, trials=trials, rng=RNG)

    def test_oracle_builds_no_identity_matrix(self):
        # each side glues structural maps of dimension u*b*c = 512, whose
        # identity alone would take 4 MiB
        k = random_channel(MAT, RNG, Base(8), Base(8), Base(8))
        v = equivalent_variant(RNG, k)
        tracemalloc.start()
        try:
            out = equiv_testmap_oracle(k, v, trials=1, rng=RNG, c_dims=(8,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out["consistent"] and peak < 2 * 2 ** 20

    def test_oracle_holds_its_prefixes_within_bounds(self):
        # each side holds its prefix (f * 1) ; dr for every drawn c, at
        # most 8*8*c x 8*c entries each
        k = random_channel(MAT, RNG, Base(8), Base(8), Base(8))
        v = equivalent_variant(RNG, k)
        tracemalloc.start()
        try:
            out = equiv_testmap_oracle(k, v, trials=20, rng=RNG,
                                       c_dims=(2, 4, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out["consistent"] and peak < 3 * 2 ** 20

    @pytest.mark.parametrize("name", ["c_dims", "x_dims"])
    @pytest.mark.parametrize("dims", [(2.5,), (True,), (), (0,)],
                             ids=["float", "bool", "empty", "zero"])
    def test_oracle_refuses_bad_dimensions_before_drawing(self, name, dims):
        # each once ran: 2.5 as 2, True as 1, () and 0 raised from numpy or
        # mid-trial
        k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{name} must be a non-empty "
                                             "sequence of positive ints"):
            equiv_testmap_oracle(k1, k2, trials=3, rng=rng, **{name: dims})
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("trials", [True, 2.5, "3"])
    def test_oracle_refuses_a_trial_count_that_is_no_int(self, trials):
        # True ran one trial and returned "trials": true; 2.5 escaped from
        # range as a TypeError
        k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(
                f"trials must be an int, got {trials!r}")):
            equiv_testmap_oracle(k1, k2, trials=trials, rng=rng)
        assert rng.bit_generator.state == state

    def test_oracle_refuses_representatives_of_two_models(self):
        # each side was glued in its own model and compared by the first's
        # deviation: consistent false at trial 0, where equiv_decide refuses
        k = random_channel(MAT, np.random.default_rng(8), Base(2), Base(2),
                           Base(2))
        with registered(TransposeDagger("mat!transpose-dagger")) as td:
            body = Morphism(td.name, k.body.dom, k.body.cod, k.body.payload)
            other = kraus_new(body, k.ancilla)
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            for decide in (partial(equiv_testmap_oracle, rng=rng),
                           equiv_decide):
                with pytest.raises(DomCodMismatch, match="models differ: "
                                   "mat vs mat!transpose-dagger"):
                    decide(k, other)
            assert rng.bit_generator.state == state

    def test_testmap_chain_reduces_to_closed_form(self):
        # with every structural map an identity matrix, the glued wiring
        # must collapse to (f x 1)^ (1 x h^h) (f x 1)
        for _ in range(10):
            a, b, u, c, x = (int(RNG.integers(1, 4)) for _ in range(5))
            k = random_channel(MAT, RNG, Base(a), Base(b), Base(u))
            h = MAT.random_morphism(RNG, Tensor(Base(b), Base(c)), Base(x))
            chain = reference_side(k, h, Base(c), Base(x)).payload
            fx = np.kron(k.body.payload, np.eye(c))
            closed = fx.conj().T @ np.kron(np.eye(u),
                                           h.payload.conj().T @ h.payload) @ fx
            assert np.max(np.abs(chain - closed)) <= 1e-12

    @pytest.mark.parametrize("model", MAT_MODELS, ids=lambda m: m.name)
    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 4)] * 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_oracle_side_is_the_literal_chain(self, model, dims, seed):
        # the wiring built once per call, per c and per x, with h glued
        # in, is the chain
        rng = np.random.default_rng(seed)
        a, b, u, c, x = dims
        c_expr, x_expr = Base(c), Base(x)
        with registered(model) if model is not MAT else nullcontext():
            k = random_channel(model, rng, Base(a), Base(b), Base(u))
            h = model.random_morphism(rng, Tensor(Base(b), c_expr), x_expr)
            ref = reference_side(k, h, c_expr, x_expr)
            side = cpinf._testmap_side(k)(c, x, h)
        assert (side.dom, side.cod) == (ref.dom, ref.cod)
        scale = max(1.0, float(np.max(np.abs(ref.payload))))
        assert np.max(np.abs(side.payload - ref.payload)) <= 1e-12 * scale

    def test_oracle_separates_a_padded_ancilla_under_skew_laxor(self):
        # the skewed laxor scales each side by its ancilla's dimension, so
        # an equivalent pair with a padded ancilla no longer glues equally
        with registered(SkewLaxor("mat!skew-laxor-oracle")) as model:
            k = random_channel(model, RNG, Base(2), Base(2), Base(2))
            iso = random_unitary(RNG, 3)[:, :2]
            body = Morphism(model.name, k.dom, Par(Base(3), k.cod),
                            np.kron(iso, np.eye(2)) @ k.body.payload)
            padded = kraus_new(body, Base(3))
            assert equiv_decide(k, padded)
            out = equiv_testmap_oracle(k, padded, trials=20, rng=RNG)
        assert not out["consistent"]

    def test_oracle_builds_its_wiring_once_per_dimension_pair(
            self, monkeypatch):
        k = random_channel(MAT, RNG, Base(8), Base(8), Base(8))
        v = equivalent_variant(RNG, k)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(matc, "mat_kron", counted("kron", matc.mat_kron))
        monkeypatch.setattr(cpinf, "structural",
                            counted("structural", cpinf.structural))
        counts = []
        for trials in (20, 200):
            calls.clear()
            out = equiv_testmap_oracle(k, v, trials=trials, seed=3,
                                       c_dims=(8,), x_dims=(1, 2))
            assert out["consistent"]
            counts.append((calls["kron"], calls["structural"]))
        # per side: the laxor once, four maps for the one c and five for
        # each of the two x
        assert counts == [(0, 30), (0, 30)]

    def test_oracle_leaves_the_factoring_to_the_model(self):
        # the oracle states products; how to apply one is the model's
        # (ast.walk enters the nested functions of _testmap_side too)
        oracle = {"equiv_testmap_oracle", "_testmap_side"}
        tree = ast.parse(Path(cpinf.__file__).read_text())
        funcs = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in oracle]
        assert {fn.name for fn in funcs} == oracle
        names = {node.id for fn in funcs for node in ast.walk(fn)
                 if isinstance(node, ast.Name)}
        names |= {node.attr for fn in funcs for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute)}
        assert not names & {"mat_kron", "kron", "_is_eye", "tensor", "par"}

    def test_non_unitary_ancilla_mixing_breaks_equivalence(self):
        k = random_channel(MAT, RNG, Base(2), Base(2), Base(2))
        skew = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)  # not unitary
        body = Morphism("mat", k.dom, k.body.cod,
                        np.kron(skew, np.eye(2)) @ k.body.payload)
        assert not equiv_decide(k, kraus_new(body, k.ancilla))

    def test_channel_handles(self):
        k = random_channel(MAT, RNG)
        assert equiv_decide(k, equivalent_variant(RNG, k))

    def test_cplane_channel_handles(self):
        cp = get_model("cplane")
        into_zero, pinned = cp_kraus(0, 2, 0), cp_kraus(6, 2, 3)
        assert cp.canonical(into_zero) == (0j, 0j, None)
        assert cp.canonical(pinned) == (6 + 0j, 3 + 0j, 2.0)
        assert equiv_decide(into_zero, cp_kraus(0, 5, 0))
        with pytest.raises(DomCodMismatch):
            equiv_decide(pinned, into_zero)


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
        reports = [check_law(axiom, "mat", trials=15, seed=2)
                   for axiom in ENV_IDS]
        assert [r.law for r in reports] == list(ENV_IDS)
        assert all(r.passed for r in reports)

    def test_zero_trials_are_refused(self):
        # no trial checks nothing, and must not read as a pass
        for axiom in ENV_IDS:
            with pytest.raises(ValueError, match="trials must be >= 1"):
                check_law(axiom, "mat", trials=0, seed=2)

    def test_halved_trace_fails_first_axiom(self):
        with registered(HalvedDiscard("mat!halved-discard")) as m:
            assert not check_law("Env.1a", m, trials=10, seed=4).passed

    def test_nan_discard_fails_the_axioms_it_enters(self):
        with registered(NanDiscard("mat!nan-discard")) as m:
            reports = {axiom: check_law(axiom, m, trials=5, seed=4)
                       for axiom in ENV_IDS}
        for axiom in ("Env.1a", "Env.1b", "Env.3"):
            assert not reports[axiom].passed
            assert reports[axiom].max_abs_deviation == float("inf")

    def test_nan_discard_is_reported_as_non_finite(self):
        with registered(NanDiscard("mat!nan-discard")) as m:
            reports = [check_law(axiom, m, trials=5, seed=4)
                       for axiom in ENV_IDS]
        assert [r.max_abs_deviation for r in reports] == [math.inf] * 4
        assert not any(r.passed for r in reports)
        assert not any("NotHermitian" in repr(r.witness) for r in reports)

    def test_each_axiom_fails_under_a_discard_mutant(self):
        # the kill matrix of the environment axioms at 25 trials, seed 0
        def run(model):
            with registered(model) if model is not MAT else nullcontext():
                return {axiom: check_law(axiom, model, trials=25, seed=0)
                        for axiom in ENV_IDS}

        assert all(r.passed for r in run(MAT).values())
        halved = run(HalvedDiscard("mat!halved-discard"))
        assert [a for a, r in halved.items() if not r.passed] == [
            "Env.1a", "Env.1b", "Env.3"]
        nan = run(NanDiscard("mat!nan-discard"))
        assert {a: r.max_abs_deviation for a, r in nan.items()} == {
            a: math.inf for a in ENV_IDS}
        assert not any(r.passed for r in nan.values())

    def test_purification_factors_through_discard(self):
        k = random_channel(MAT, RNG, Base(2), Base(3), Base(2))
        rebuilt = env_factor(MAT, k)
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

    def test_the_psd_floor_is_inclusive_and_relative(self):
        # the floor is -1e-9 times the largest |eigenvalue| (at least 1)
        for diag in ([1.0, -1e-9], [10.0, -5e-9]):
            c = cpinf.ChoiMatrix(np.diag(diag).astype(complex), 1, 2)
            assert purify(c).ancilla == Base(1)


class TestInitiality:
    def test_canonical_to_itself(self):
        report = initiality_probe("mat", samples=10, seed=6)
        assert report.passed and report.trials == 10
        assert report.law == "ENV-INIT" and report.model == "mat"

    def test_permuted_ancilla_presentation(self):
        with registered(PermutedDiscard("mat!permuted-discard")) as m:
            report = initiality_probe(m, samples=10, seed=8)
        assert report.passed

    def test_zero_samples_are_refused(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            initiality_probe("mat", samples=0)
        for samples in (True, 2.5, "3"):
            with pytest.raises(ValueError, match=re.escape(
                    f"samples must be an int, got {samples!r}")):
                initiality_probe("mat", samples=samples)

    @pytest.mark.parametrize("model", ["cplane", "fmat"])
    def test_a_model_that_is_not_dense_is_refused(self, model):
        with pytest.raises(UnsupportedInModel, match="dense model"):
            initiality_probe(model, samples=1)

    def test_compares_at_the_tolerance_it_reports(self):
        # a discard off by a relative 1e-6 passes a loose probe only
        with registered(ScaledDiscard("mat!scaled-discard")) as m:
            loose = initiality_probe(m, samples=5, seed=0, tol=1e-4)
            strict = initiality_probe(m, samples=5, seed=0, tol=1e-7)
        assert loose.passed and loose.tol == 1e-4
        assert not strict.passed and strict.tol == 1e-7

    def test_a_nan_discard_makes_the_probe_inconsistent(self):
        with registered(NanDiscard("mat!nan-discard")) as m:
            report = initiality_probe(m, samples=3, seed=0)
        assert not report.passed
        # every check of the witness sample failed, and none raised
        assert "error" not in report.witness
        assert not any(report.witness[check] <= report.tol
                       for check in PROBE_CHECKS)

    def test_a_check_that_raises_fails_its_sample(self):
        # the checks after a raising one are not run; the probe goes on
        with registered(PickyDiscard("mat!picky-discard")) as m:
            report = initiality_probe(m, samples=10, seed=0)
        assert not report.passed and report.trials == 10
        assert report.max_abs_deviation == math.inf
        assert report.witness == {
            "error": "ZeroDivisionError: no discard of 3", "trial": 0}


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

    def test_an_empty_ancilla_is_the_zero_channel(self):
        fm = get_model("fmat")
        empty, one, two = (Base(fmat.finite_space(labels))
                           for labels in ((), (0,), (0, 1)))

        def kraus(u, entries):
            payload = fmat.SparseMatrix(fm.interpret(two),
                                        fm.interpret(Par(u, two)), entries)
            return kraus_new(Morphism("fmat", two, Par(u, two), payload), u)

        zero = kraus(empty, ())
        form = fm.canonical(zero)
        assert form.factor.shape == (4, 0)
        assert (form.dim_in, form.dim_out) == (2, 2)
        assert equiv_decide(zero, zero)
        assert channel_deviation(zero, zero) == 0.0
        nonzero = kraus(one, ((0, (0, 1), 1 + 0j),))
        assert not equiv_decide(zero, nonzero)
        assert channel_deviation(nonzero, zero) == 1.0

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
            form = get_model("fmat").canonical(k)
            reference = MAT.canonical(dense)
            assert np.array_equal(form.factor, reference.factor)
            assert (form.dim_in, form.dim_out) == (a, b)
            assert form.deviation(reference) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["unitary", "padded", "distinct"]),
           st.integers(0, 2 ** 32 - 1))
    def test_factor_verdict_is_the_choi_verdict(self, a, b, u, kind, seed):
        rng = np.random.default_rng(seed)
        k1 = random_channel(MAT, rng, Base(a), Base(b), Base(u))
        if kind == "distinct":
            k2 = random_channel(MAT, rng, Base(a), Base(b),
                                Base(int(rng.integers(1, 4))))
        else:
            extra = int(rng.integers(1, 3)) if kind == "padded" else 0
            mixer = random_unitary(rng, u + extra)[:, :u]
            k2 = make_kraus(np.kron(mixer, np.eye(b)) @ k1.body.payload,
                            a, b, u + extra)
        dev = channel_deviation(k1, k2)
        gap = np.max(np.abs(reference_choi(k1) - reference_choi(k2)))
        assert (dev <= 1e-9) == (gap <= 1e-9) == (kind != "distinct")
        assert dev >= gap - 1e-12

    @pytest.mark.parametrize("seed", [11, 17])
    def test_mix_inverse_holds_past_the_choi_size_guard(self, seed):
        # these seeds draw 81-dimensional objects, whose 6561 x 6561 Choi
        # matrices exceed the entry limit
        (report,) = suite.run_suite(suite.SuiteConfig(
            models=("mat",), law_filter="CP-MIX-INV", trials=100,
            seed=seed))
        assert report.passed, report.witness

    def test_an_81_dimensional_comparison_stays_small(self):
        rng = np.random.default_rng(81)
        v = Morphism("mat", Base(81), Base(81), random_unitary(rng, 81))
        phased = Morphism("mat", v.dom, v.cod, 1j * v.payload)
        other = Morphism("mat", v.dom, v.cod, random_unitary(rng, 81))
        k, same, apart = functor_Q(v), functor_Q(phased), functor_Q(other)
        tracemalloc.start()
        try:
            assert equiv_decide(k, same)
            assert not equiv_decide(k, apart)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20  # one 6561 x 6561 Choi matrix is 688 MB

    def test_canonical_forms_build_no_choi_matrix(self):
        # the factor form compares itself; only to_choi glues the matrix
        sites = [(matc, "MatModel", "canonical"),
                 (fmat, "FmatModel", "canonical"),
                 (matc, "ChoiFactor", None), (matc, "choi_factor", None)]
        for module, outer, inner in sites:
            tree = ast.parse(Path(module.__file__).read_text())
            (node,) = [n for n in tree.body if getattr(n, "name", "") == outer]
            if inner:
                (node,) = [n for n in node.body
                           if getattr(n, "name", "") == inner]
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            assert not names & {"choi", "ChoiMatrix"}, (outer, inner)

    def test_random_fmat_channels_compose(self):
        # composite bodies land on Par(Par(U1, U2), C), up to 27 labels
        # here, past the cap on explicit families
        rng = np.random.default_rng(12)
        fm = get_model("fmat")
        widest = 0
        for _ in range(30):
            k1 = random_channel(fm, rng)
            k2 = random_channel(fm, rng, dom=k1.cod)
            k = kraus_compose(k1, k2)
            assert (k.dom, k.cod) == (k1.dom, k2.cod)
            widest = max(widest, len(k.body.payload.tgt.index.labels))
        assert widest > 10

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
        same = MAT.canonical(k), MAT.canonical(equivalent_variant(RNG, k))
        other = MAT.canonical(
            random_channel(MAT, RNG, Base(2), Base(2), Base(2)))
        wider = MAT.canonical(
            random_channel(MAT, RNG, Base(2), Base(3), Base(2)))

        def recompute(_):
            raise AssertionError("equiv recomputed a canonical form")

        monkeypatch.setattr(MAT, "canonical", recompute)
        assert same[0].equiv(same[1])
        assert not same[0].equiv(other)
        with pytest.raises(DomCodMismatch):
            same[0].equiv(wider)

    def test_cplane_form_is_exact_whatever_the_tolerance(self):
        pinned = get_model("cplane").canonical(cp_kraus(6, 2, 3))
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


def test_composition_refuses_two_models_and_unmatched_ends():
    k = kraus_identity("mat", Base(2))
    with pytest.raises(TypingError, match="models differ"):
        kraus_compose(k, kraus_identity("cplane", Base(2)))
    with pytest.raises(TypingError, match="!= dom"):
        kraus_compose(k, kraus_identity("mat", Base(3)))


def test_the_oracle_refuses_ends_that_interpret_differently():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomCodMismatch, match="do not share dom/cod"):
        equiv_testmap_oracle(kraus_identity("mat", Base(2)),
                             kraus_identity("mat", Base(3)), rng=rng)
    assert rng.bit_generator.state == state


def test_the_zero_choi_matrix_purifies_to_one_zero_block():
    k = purify(ChoiMatrix(np.zeros((6, 6), dtype=complex), 2, 3))
    assert k.ancilla == Base(1) and k.body.payload.shape == (3, 2)
    assert not k.body.payload.any()
    assert equiv_decide(k, k)
