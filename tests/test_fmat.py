import ast
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf import fmat, suite
from mucinf.errors import (ArityError, DimensionOverflow, SpaceMismatch,
                           TypingError, UnsupportedInModel)
from mucinf.fmat import (ALL, FIN, FMAT, MAX_EXPLICIT, ExplicitFamily,
                         FiniteIndex, OMEGA, OMEGA_ALL, OMEGA_FIN,
                         PowerFamily, SparseMatrix, TagFamily,
                         check_finiteness_relation, check_finiteness_space,
                         downward_closure, explicit_family, family_member,
                         family_subset, finite_space, fmat_compose,
                         fmat_dagger, from_dense, include_mat, perp,
                         power_family, sparse_identity, to_dense)
from mucinf.matc import ENTRY_LIMIT, MAT
from mucinf.cpinf import KrausMorphism
from mucinf.morphisms import Morphism, identity
from mucinf.objects import Base, Dagger, Dual, Par, Tensor
from mucinf.structural import STRUCTURAL_NAMES, signature, structural
from mutants import unclosed_family, unclosed_space

label_sets = st.lists(st.integers(0, 5), min_size=1, max_size=5,
                      unique=True).map(tuple)


def literal_perp(family: ExplicitFamily, index: FiniteIndex):
    """Brute-force reading of the definition over a finite index set."""
    out = set()
    labels = index.labels
    for bits in range(2 ** len(labels)):
        candidate = frozenset(x for i, x in enumerate(labels)
                              if bits >> i & 1)
        if all(len(candidate & a) < float("inf") for a in family.sets):
            out.add(candidate)
    return frozenset(out)


class TestPerp:
    def test_finite_is_full_power_set(self):
        idx = FiniteIndex((0, 1, 2))
        fam = explicit_family([[], [0]])
        assert perp(fam, idx) == power_family(idx)

    def test_matches_literal_definition(self):
        idx = FiniteIndex((0, 1, 2))
        fam = explicit_family([[0, 1]])
        assert perp(fam, idx).sets == literal_perp(fam, idx)

    def test_omega_tags(self):
        assert perp(TagFamily(FIN), OMEGA) == TagFamily(ALL)
        assert perp(TagFamily(ALL), OMEGA) == TagFamily(FIN)

    def test_double_perp_closes(self):
        assert perp(perp(TagFamily(FIN), OMEGA), OMEGA) == TagFamily(FIN)

    @settings(max_examples=40, deadline=None)
    @given(label_sets, st.integers(0, 2 ** 31 - 1))
    def test_triple_perp_collapses(self, labels, seed):
        rng = np.random.default_rng(seed)
        idx = FiniteIndex(labels)
        subsets = [[x for x in labels if rng.random() < 0.5]
                   for _ in range(int(rng.integers(0, 4)))]
        fam = explicit_family(subsets)
        once = perp(fam, idx)
        assert perp(perp(once, idx), idx) == once

    @settings(max_examples=40, deadline=None)
    @given(label_sets, st.integers(0, 2 ** 31 - 1))
    def test_antitone(self, labels, seed):
        rng = np.random.default_rng(seed)
        idx = FiniteIndex(labels)
        small = explicit_family([[x for x in labels if rng.random() < 0.4]])
        big = explicit_family(list(small.sets) + [labels])
        assert family_subset(perp(big, idx), perp(small, idx))


class TestSpaces:
    def test_power_space_is_valid(self):
        idx = FiniteIndex((0, 1))
        p = power_family(idx)
        assert check_finiteness_space(idx, p, p)

    def test_small_family_fails(self):
        idx = FiniteIndex((0, 1))
        assert not check_finiteness_space(idx, explicit_family([[0]]),
                                          power_family(idx))

    def test_omega_pairs(self):
        assert check_finiteness_space(OMEGA, TagFamily(FIN), TagFamily(ALL))
        assert check_finiteness_space(OMEGA, TagFamily(ALL), TagFamily(FIN))
        assert not check_finiteness_space(OMEGA, TagFamily(FIN),
                                          TagFamily(FIN))

    def test_constructor_enforces_perp_pair(self):
        with pytest.raises(TypingError):
            from mucinf.fmat import FinitenessSpace
            FinitenessSpace(FiniteIndex((0, 1)), explicit_family([[0]]),
                            power_family(FiniteIndex((0, 1))))

    def test_repeated_labels_rejected(self):
        with pytest.raises(TypingError):
            FiniteIndex((0, 0))


class TestRelations:
    def test_empty_relation(self):
        s = finite_space((0, 1))
        assert check_finiteness_relation([], s, s)

    def test_finite_support_between_omega_fin(self):
        assert check_finiteness_relation([(0, 1), (4, 4)], OMEGA_FIN,
                                         OMEGA_FIN)
        assert check_finiteness_relation([(0, 1)], OMEGA_FIN, OMEGA_ALL)
        assert check_finiteness_relation([(0, 1)], OMEGA_ALL, OMEGA_FIN)

    def test_everything_finite_is_fine(self):
        s = finite_space((0, 1, 2))
        t = finite_space(("a", "b"))
        assert check_finiteness_relation([(0, "a"), (2, "b")], s, t)

    def test_labels_outside_a_finite_index_do_not_type(self):
        s = finite_space((0, 1))
        with pytest.raises(TypingError):
            SparseMatrix(s, s, ((5, 7, 1.0),))
        assert not check_finiteness_relation([(5, 0)], s, OMEGA_FIN)
        assert not check_finiteness_relation([(0, 7)], OMEGA_FIN, s)
        # a symbolic infinite index admits every label
        assert check_finiteness_relation([(0, 7)], s, OMEGA_FIN)


class TestSparse:
    def setup_method(self):
        self.rng = np.random.default_rng(30)

    def rand_sparse(self, cols, rows, mask=0.4):
        dense = self.rng.random((rows, cols)) + 1j * self.rng.random(
            (rows, cols))
        dense[self.rng.random((rows, cols)) < mask] = 0
        return include_mat(dense)

    def test_compose_with_identity(self):
        m = self.rand_sparse(3, 2)
        assert fmat_compose(sparse_identity(m.src), m).entries == m.entries
        assert fmat_compose(m, sparse_identity(m.tgt)).entries == m.entries

    def test_single_term_sum(self):
        s = finite_space((0, 1))
        one = SparseMatrix(s, s, (((0, 1, 2 + 1j)),))
        two = SparseMatrix(s, s, (((1, 0, 3 + 0j)),))
        out = fmat_compose(one, two)
        assert out.as_dict() == {(0, 0): (2 + 1j) * 3}

    def test_disjoint_middles_vanish(self):
        s = finite_space((0, 1))
        one = SparseMatrix(s, s, (((0, 0, 1 + 0j)),))
        two = SparseMatrix(s, s, (((1, 1, 1 + 0j)),))
        assert fmat_compose(one, two).entries == ()

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            fmat_compose(self.rand_sparse(2, 2), self.rand_sparse(3, 3))

    def test_tiny_entries_dropped(self):
        s = finite_space((0,))
        m = SparseMatrix(s, s, ((0, 0, 1e-15 + 0j),))
        assert m.entries == ()

    def test_dagger_flips_typing_and_conjugates(self):
        m = include_mat(np.array([[1 + 1j, 0], [0, 0]]))
        d = fmat_dagger(m)
        assert d.src == m.tgt.flip() and d.tgt == m.src.flip()
        assert d.as_dict() == {(0, 0): 1 - 1j}
        again = fmat_dagger(d)
        assert again.entries == m.entries
        assert again.src == m.src and again.tgt == m.tgt

    def test_non_finite_entries_are_refused(self):
        # NaN fails the support test, so finiteness is checked before it
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            with pytest.raises(TypingError):
                include_mat(np.array([[bad, 1], [2, 3]]))
        nan = Morphism("mat", Base(1), Base(1),
                       np.full((1, 1), np.nan, dtype=complex))
        with pytest.raises(TypingError):
            FMAT.include(nan)

    def test_identity_on_omega_is_not_representable(self):
        with pytest.raises(UnsupportedInModel):
            sparse_identity(OMEGA_FIN)


class TestInclude:
    def test_identity_support(self):
        m = include_mat(np.eye(2))
        assert m.support() == {(0, 0), (1, 1)}

    def test_kron_then_include_matches_include_then_tensor(self):
        from mucinf.morphisms import Morphism, get_model, tensor
        from mucinf.objects import Base
        fm = get_model("fmat")
        rng = np.random.default_rng(4)
        f = get_model("mat").random_morphism(rng, Base(2), Base(2))
        g = get_model("mat").random_morphism(rng, Base(3), Base(2))
        via_kron = fm.include(tensor(f, g))
        via_sparse = tensor(fm.include(f), fm.include(g))
        assert fm.deviation(via_kron, via_sparse) <= 1e-12

    def test_include_preserves_dagger(self):
        from mucinf.morphisms import Morphism, dagger, get_model
        from mucinf.objects import Base
        fm = get_model("fmat")
        rng = np.random.default_rng(5)
        f = get_model("mat").random_morphism(rng, Base(2), Base(3))
        assert fm.deviation(fm.include(dagger(f)),
                            dagger(fm.include(f))) == 0.0

    def test_round_trip_through_dense(self):
        dense = np.array([[1, 2j], [0, 0.5]], dtype=complex)
        assert np.allclose(to_dense(include_mat(dense)), dense)

    def test_from_dense_uses_labels_and_drops_tiny_entries(self):
        src, tgt = finite_space(("a", "b")), finite_space(("x", "y"))
        m = from_dense(np.array([[1, 1e-15], [0, 2j]]), src, tgt)
        assert m.as_dict() == {("a", "x"): 1 + 0j, ("b", "y"): 2j}


def test_downward_closure_contains_all_subsets():
    closed = downward_closure([(0, 1, 2)])
    assert frozenset() in closed and frozenset({1}) in closed
    assert len(closed) == 8


def test_closure_refuses_long_members_before_enumerating():
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            downward_closure([[0], range(MAX_EXPLICIT + 1)])
        with pytest.raises(DimensionOverflow):
            explicit_family([range(40)])
        with pytest.raises(DimensionOverflow):
            power_family(FiniteIndex(tuple(range(40)))).sets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


class TestPowerFamily:
    def test_closed_spaces_carry_it_without_a_label_cap(self):
        space = finite_space(tuple(range(40)))
        assert space.fam_a == space.fam_b == PowerFamily(frozenset(range(40)))
        assert check_finiteness_relation([(0, 39), (39, 0)], space, space)
        assert not check_finiteness_relation([(0, 40)], space, space)
        assert not check_finiteness_relation([(40, 0)], space, space)

    def test_space_cache_is_bounded_and_compares_by_value(self):
        first = finite_space((0, 1, 2))
        for n in range(1, 401):
            finite_space(tuple(range(n)))
        assert finite_space.cache_info().currsize <= 128
        # evicted and rebuilt, the space is equal though not the same
        assert finite_space((0, 1, 2)) == first

    def test_an_unclosed_target_is_checked_member_by_member(self):
        # as in fmat!no-closure: the image of the empty member, not only
        # that of X, must lie in the target {{0}}
        closed, unclosed = finite_space((0, 1)), unclosed_space((0,))
        assert not check_finiteness_relation([(0, 0)], closed, unclosed)
        assert not check_finiteness_relation([(0, 0)], unclosed, closed)

    def test_products_past_the_explicit_cap_type(self):
        from mucinf.morphisms import tensor
        from mucinf.objects import Base
        rng = np.random.default_rng(2)
        a, b = FMAT.include_expr(Base(4)), FMAT.include_expr(Base(3))
        f, g = FMAT.random_morphism(rng, a, b), FMAT.random_morphism(rng, b, a)
        fg = tensor(f, g)
        assert len(fg.payload.src.index.labels) == 12 > MAX_EXPLICIT
        assert np.array_equal(to_dense(fg.payload),
                              np.kron(to_dense(f.payload), to_dense(g.payload)))

    def test_enumerates_on_demand(self):
        assert power_family(FiniteIndex(("a", "b"))).sets == frozenset(
            map(frozenset, [(), ("a",), ("b",), ("a", "b")]))


LABEL = st.integers(0, 7)  # indexes draw from 0-5: 6 and 7 always lie outside
SUBSETS = st.lists(st.frozensets(LABEL, max_size=4), max_size=4)
FAMILIES = st.one_of(
    st.sampled_from([FIN, ALL]).map(TagFamily),
    SUBSETS.map(explicit_family),
    SUBSETS.map(unclosed_family),
    st.frozensets(LABEL, max_size=5).map(PowerFamily))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=5, unique=True).map(tuple),
       FAMILIES, FAMILIES, st.frozensets(LABEL, max_size=4),
       st.lists(st.tuples(LABEL, LABEL), max_size=5), st.integers(1, 15))
def test_symbolic_power_family_answers_as_its_enumeration(
        labels, other, third, subset, support, slots):
    index = FiniteIndex(labels)
    symbolic, listed = power_family(index), explicit_family([labels])
    assert symbolic.sets == listed.sets

    def relation(p):
        # p fills the family slots (src A, src B, tgt A, tgt B) that
        # ``slots`` marks; the others hold the drawn families
        fams = [p if slots >> i & 1 else (other, third)[i % 2]
                for i in range(4)]
        return check_finiteness_relation(
            support, SimpleNamespace(index=OMEGA, fam_a=fams[0],
                                     fam_b=fams[1]),
            SimpleNamespace(index=OMEGA, fam_a=fams[2], fam_b=fams[3]))

    for fn in (lambda p: perp(p, index),
               lambda p: perp(p, FiniteIndex(tuple(subset))),
               lambda p: perp(p, OMEGA),
               lambda p: family_member(p, subset),
               lambda p: family_subset(p, other),
               lambda p: family_subset(other, p),
               lambda p: check_finiteness_space(index, p, other),
               lambda p: check_finiteness_space(index, other, p),
               lambda p: check_finiteness_space(index, p, p),
               relation):
        assert fn(symbolic) == fn(listed)


def test_dense_round_trips_are_size_guarded():
    from mucinf.cpinf import kraus_new
    from mucinf.morphisms import Morphism
    from mucinf.objects import Base, Par
    labels = tuple(range(5000))
    assert len(labels) ** 2 > ENTRY_LIMIT
    big, one = finite_space(labels), finite_space(("*",))
    ident = Morphism("fmat", Base(big), Base(big), sparse_identity(big))
    unit = Morphism("fmat", Base(one), Base(one), sparse_identity(one))
    cod = Par(Base(one), Base(one))
    body = Morphism("fmat", Base(big), cod,
                    SparseMatrix(big, FMAT.interpret(cod), ()))
    k = kraus_new(body, Base(one))
    # its dense body is 5000 x 5000, past the entry limit
    wide_cod = Par(Base(one), Base(big))
    wide = kraus_new(Morphism("fmat", Base(big), wide_cod,
                              SparseMatrix(big, FMAT.interpret(wide_cod),
                                           ())), Base(one))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            to_dense(ident.payload)
        with pytest.raises(DimensionOverflow):
            FMAT.tensor_payload(ident, unit)
        with pytest.raises(DimensionOverflow):
            FMAT.structural_payload("a_tensor", (), Base(big), Base(big))
        # the Choi matrix would be 5000 x 5000; its factor is 5000 x 1
        assert FMAT.canonical(k).factor.shape == (5000, 1)
        with pytest.raises(DimensionOverflow):
            FMAT.canonical(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 23  # a 5000x5000 complex array is 400 MB


def _arity(name):
    for count in range(4):
        try:
            signature(name, [Base(1)] * count)
            return count
        except ArityError:
            pass


@pytest.mark.parametrize("name", STRUCTURAL_NAMES)
def test_structural_maps_are_the_dense_models_bit_for_bit(name):
    dims = [(1, 2, 3), (3, 1, 2), (2, 3, 3)]
    for picked in dims:
        args = [Base(d) for d in picked[:_arity(name)]]
        dense = structural(MAT, name, args).payload
        sparse = structural(FMAT, name,
                            [FMAT.include_expr(a) for a in args]).payload
        assert np.array_equal(to_dense(sparse), dense)


def _looped_random_morphism(rng, dom, cod):
    """The sampler as a double loop: source label outermost, real part
    first."""
    src, tgt = FMAT.interpret(dom), FMAT.interpret(cod)
    return SparseMatrix(src, tgt, tuple(
        (x, y, complex(rng.random(), rng.random()))
        for x in src.index.labels for y in tgt.index.labels))


def test_random_morphism_draws_as_the_double_loop():
    shapes = [(Base(1), Base(1)), (Base(2), Base(3)), (Base(3), Base(1)),
              (Tensor(Base(2), Base(3)), Par(Base(3), Dagger(Base(2))))]
    drawn, looped = np.random.default_rng(8), np.random.default_rng(8)
    for dom, cod in shapes:
        dom, cod = FMAT.include_expr(dom), FMAT.include_expr(cod)
        assert (FMAT.random_morphism(drawn, dom, cod).payload
                == _looped_random_morphism(looped, dom, cod))
    assert drawn.random() == looped.random()


def test_random_morphism_is_size_guarded():
    big = Base(finite_space(tuple(range(5000))))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow):
            FMAT.random_morphism(np.random.default_rng(0), big, big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 23  # 25 M drawn entries would take 400 MB


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def test_dense_matrices_come_from_matc():
    # the finite fragment places the dense model's matrices on its labels
    # rather than building its own, and suite imports fmat once
    tree = _tree(fmat)
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not (attributes | imported) & {"eye", "kron"}
    assert not imported & {"commutation_perm", "bell_unit", "bell_counit"}
    local = [node.lineno for fn in ast.walk(_tree(suite))
             if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_products_with_a_symbolic_factor():
    # a finite factor is absorbed on either side; two tags must agree
    pair = finite_space((0, 1))
    assert FMAT.interpret(Tensor(Base(pair), Base(OMEGA_FIN))) == OMEGA_FIN
    assert FMAT.interpret(Par(Base(OMEGA_ALL), Base(pair))) == OMEGA_ALL
    assert FMAT.interpret(Tensor(Base(OMEGA_FIN), Base(OMEGA_FIN))) \
        == OMEGA_FIN
    with pytest.raises(UnsupportedInModel, match="two-tag lattice"):
        FMAT.interpret(Tensor(Base(OMEGA_FIN), Base(OMEGA_ALL)))


def test_a_channel_body_must_sit_on_its_typing():
    space = finite_space((0,))
    body = Morphism("fmat", Base(space), Par(Base(space), Base(space)),
                    sparse_identity(finite_space((0, 1))))
    with pytest.raises(TypingError, match="do not match typing"):
        KrausMorphism(body)


def test_inclusion_of_duals_and_of_foreign_morphisms():
    assert FMAT.include_expr(Dual(Base(2))) \
        == Dual(Base(finite_space((0, 1))))
    with pytest.raises(TypingError, match="dense model"):
        FMAT.include(identity(FMAT, Base(finite_space((0,)))))
