import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucinf.cpinf import equiv_decide, kraus_new, random_channel
from mucinf.errors import (DimensionOverflow, NotHermitian, ShapeMismatch,
                           TypingError)
from mucinf.matc import (DIM_LIMIT, ENTRY_LIMIT, MAT, ChoiMatrix,
                         _check_size, _freeze,
                         apply_channel, bell_counit, bell_unit,
                         check_hermitian, choi, choi_factor,
                         commutation_perm,
                         hermitian_eig, mat_dagger,
                         mat_identity, mat_kron, random_unitary)
from mucinf.morphisms import Model, Morphism, identity
from mucinf.objects import Base, Par, Tensor

RNG = np.random.default_rng(20240811)


def kron_oracle(f, g):
    # independent four-loop definition of the Kronecker product
    r1, c1 = f.shape
    r2, c2 = g.shape
    out = np.zeros((r1 * r2, c1 * c2), dtype=complex)
    for i in range(r1):
        for j in range(c1):
            for k in range(r2):
                for l in range(c2):
                    out[i * r2 + k, j * c2 + l] = f[i, j] * g[k, l]
    return out


class TestKron:
    def test_identities(self):
        assert np.array_equal(mat_kron(mat_identity(2), mat_identity(3)),
                              mat_identity(6))

    def test_scalar_scaling(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(mat_kron(np.array([[2.0]]), x), 2 * x)

    def test_unit_factor(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(mat_kron(x, np.array([[1.0]])), x)

    def test_against_loop_oracle(self):
        for _ in range(10):
            f = RNG.random((2, 2)) + 1j * RNG.random((2, 2))
            g = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
            assert np.allclose(mat_kron(f, g), kron_oracle(f, g))

    def test_dimension_guard(self):
        big = np.zeros((2 ** 9, 2 ** 9))
        with pytest.raises(DimensionOverflow):
            mat_kron(big, big)


def frozen_random(rows, cols):
    return _freeze(RNG.random((rows, cols)) + 1j * RNG.random((rows, cols)))


def compose(f, g):
    """``g @ f`` through the model, as a diagram-order composite f ; g."""
    def mor(p):
        return Morphism("mat", Base(p.shape[1]), Base(p.shape[0]), p)
    return MAT.compose_payload(mor(f), mor(g))


class TestSharedIdentity:
    def test_one_array_while_held(self):
        eye = mat_identity(5)
        assert mat_identity(5) is eye
        assert not eye.flags.writeable and eye.dtype == complex
        assert np.array_equal(eye, np.eye(5))

    def test_compose_either_side_is_the_matmul(self):
        for rows, cols in [(1, 1), (2, 3), (4, 4), (6, 2)]:
            f = frozen_random(rows, cols)
            left, right = mat_identity(cols), mat_identity(rows)
            assert np.array_equal(compose(left, f), f @ left)
            assert np.array_equal(compose(f, right), right @ f)
            assert compose(left, f) is f and compose(f, right) is f

    def test_unfrozen_operand_comes_back_fresh_and_untouched(self):
        writeable = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
        real = RNG.random((3, 2))
        for f in (writeable, real):
            dtype = f.dtype
            for out in (compose(mat_identity(2), f),
                        compose(f, mat_identity(3))):
                assert out is not f and np.array_equal(out, f)
                assert out.dtype == complex and not out.flags.writeable
            assert f.flags.writeable and f.dtype == dtype

    def test_shape_mismatch_against_identity_raises(self):
        f = frozen_random(3, 2)
        with pytest.raises(ValueError):
            compose(mat_identity(3), f)
        with pytest.raises(ValueError):
            compose(f, mat_identity(2))

    def test_kron_of_identities_is_shared(self):
        assert mat_kron(mat_identity(2), mat_identity(3)) is mat_identity(6)
        f = frozen_random(2, 3)
        assert mat_kron(mat_identity(1), f) is f
        assert mat_kron(f, mat_identity(1)) is f


def _is_bitwise_eye(eye, n):
    # bit for bit np.eye(n): only the n real parts of the diagonal have a
    # bit set (a -0.0 would add one), and each of them is 1.0
    return (eye.shape == (n, n) and eye.dtype == np.complex128
            and np.count_nonzero(eye.view(np.uint64)) == n
            and np.all(eye.diagonal() == 1))


class TestIdentityWindow:
    def test_every_identity_is_np_eye_bit_for_bit(self):
        for n in [*range(71), 4096]:
            eye = mat_identity(n)
            assert _is_bitwise_eye(eye, n), n
            assert mat_identity(n) is eye and not eye.flags.writeable
        for n in range(8):
            assert mat_identity(n).tobytes() == \
                np.eye(n, dtype=complex).tobytes()

    def test_dagger_and_kron_are_as_before(self):
        for n in (1, 2, 5):
            eye, f = mat_identity(n), frozen_random(3, 2)
            assert np.array_equal(mat_dagger(eye), np.eye(n))
            for out, want in ((mat_kron(eye, f), np.kron(np.eye(n), f)),
                              (mat_kron(f, eye), np.kron(f, np.eye(n)))):
                assert out.tobytes() == want.tobytes()

    def test_compose_of_identities_is_the_identity(self):
        eye = mat_identity(4)
        assert compose(eye, eye) is eye

    def test_negative_sizes_are_shape_mismatches(self):
        for make in (lambda: mat_identity(-1), lambda: bell_unit(-2),
                     lambda: commutation_perm(-2, -3),
                     lambda: commutation_perm(-2, 3)):
            with pytest.raises(ShapeMismatch):
                make()
        assert mat_identity(0).shape == (0, 0)

    def test_identities_allocate_no_matrix(self):
        tracemalloc.start()
        try:
            for _ in range(2):
                for n in range(1, 513):
                    mat_identity(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the 512 identity alone is 4 MiB


def _kron_factor(shape, eye):
    # a shared identity of the square side, or random entries (real or
    # complex, frozen or writeable)
    rows, cols, real, frozen = shape
    if eye:
        return mat_identity(rows)
    f = RNG.random((rows, cols))
    if not real:
        f = f + 1j * RNG.random((rows, cols))
    return _freeze(f) if frozen else f


SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans(),
                   st.booleans())


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, st.booleans(), st.booleans())
def test_kron_is_np_kron_bit_for_bit(fshape, gshape, f_eye, g_eye):
    f, g = _kron_factor(fshape, f_eye), _kron_factor(gshape, g_eye)
    out = mat_kron(f, g)
    want = np.kron(f, g).astype(complex)
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    assert not out.flags.writeable


@pytest.mark.parametrize("product", [Tensor, Par], ids=["tensor", "par"])
@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 5),
       eyes=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       frozen=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_then_product_is_the_default_composite(product, dims, eyes, frozen,
                                               seed):
    # x ; (f * g) by reshaped matmuls, with or without shared identities
    rng = np.random.default_rng(seed)
    fi, fo, gi, go, k = dims
    f_eye, g_eye, x_eye = eyes
    f = (identity(MAT, Base(fi)) if f_eye
         else MAT.random_morphism(rng, Base(fi), Base(fo)))
    g = (identity(MAT, Base(gi)) if g_eye
         else MAT.random_morphism(rng, Base(gi), Base(go)))
    mid = product(Base(fi), Base(gi))
    x = (identity(MAT, mid) if x_eye
         else MAT.random_morphism(rng, Base(k), mid))
    if not frozen:
        x = Morphism("mat", x.dom, x.cod, np.array(x.payload))
    name = f"then_{product.__name__.lower()}_payload"
    out = getattr(MAT, name)(x, f, g)
    want = getattr(Model, name)(MAT, x, f, g)
    assert out.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(out - want)) <= 1e-12 * scale
    assert not out.flags.writeable
    assert frozen or not np.shares_memory(out, x.payload)


def test_then_product_rows_must_split():
    f, g = identity(MAT, Base(2)), identity(MAT, Base(3))
    x = MAT.random_morphism(RNG, Base(1), Base(5))
    with pytest.raises(ValueError):
        MAT.then_tensor_payload(x, f, g)


class TestSizeGuard:
    def test_entries_bounded_before_allocation(self):
        # each side is within DIM_LIMIT; the entries are not
        assert 60000 <= DIM_LIMIT and 60000 ** 2 > ENTRY_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflow):
                mat_identity(60000)
            with pytest.raises(DimensionOverflow):
                commutation_perm(300, 300)
            with pytest.raises(DimensionOverflow):
                commutation_perm(64, 65)  # 4160 per side, 17.3M entries
            with pytest.raises(DimensionOverflow):
                bell_unit(5000)
            with pytest.raises(DimensionOverflow):
                mat_kron(np.zeros((2 ** 12, 1)), np.zeros((1, 2 ** 13)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_a_side_at_the_limit_passes(self):
        _check_size(DIM_LIMIT, 1, "matrix")
        with pytest.raises(DimensionOverflow):
            _check_size(DIM_LIMIT + 1, 1, "matrix")

    def test_choi_bounded_before_allocation(self):
        # a 5000 x 1 body with ancilla 1 would glue to a 5000 x 5000 matrix
        body = _freeze(np.ones((5000, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflow):
                choi(body, 1, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_a_factor_past_the_side_limit_still_compares(self):
        # 324 -> 324 with ancilla 1: the factor is a 104976 x 1 view of the
        # body, and comparing two of them forms 104976 x 2 entries
        assert 324 ** 2 > DIM_LIMIT
        k = random_channel(MAT, RNG, Base(324), Base(324), Base(1))
        tracemalloc.start()
        try:
            assert equiv_decide(k, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_a_comparison_past_the_entry_limit_is_refused_unformed(self):
        # a zero-stride body allocates nothing; comparing 4096 -> 4096 with
        # ancilla 1 would form [X1 X2] on 2^24 x 2 entries, 512 MiB
        ones = np.broadcast_to(np.complex128(1), (4096, 4096))
        k = kraus_new(Morphism("mat", Base(4096), Par(Base(1), Base(4096)),
                               ones), Base(1))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflow, match="Choi comparison"):
                equiv_decide(k, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_an_empty_ancilla_glues_to_zero(self):
        body = _freeze(np.zeros((0, 2)))
        c = choi(body, 0, 3)
        assert c.matrix.shape == (6, 6) and not c.matrix.any()
        assert (c.dim_in, c.dim_out) == (2, 3)
        form = choi_factor(body, 0, 3)
        assert form.factor.shape == (6, 0)
        assert (form.dim_in, form.dim_out) == (2, 3)

    def test_choi_names_an_overflow(self):
        # finite entries whose squares overflow; a NaN body is no overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DimensionOverflow, match="reach 1.41e\\+308"):
                choi(_freeze(np.array([[1e308 + 1e308j]])), 1, 1)
            with pytest.raises(NotHermitian):
                choi(_freeze(np.array([[np.nan]])), 1, 1)

    def test_choi_overflow_raises_without_warnings(self):
        # no errstate here: choi keeps its own products quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionOverflow, match="reach 1.41e\\+308"):
                choi(_freeze(np.array([[1e308 + 1e308j]])), 1, 1)

    def test_factor_comparison_of_huge_and_nan_bodies(self):
        huge = choi_factor(_freeze(np.array([[1e308 + 1e308j]])), 1, 1)
        nan = choi_factor(_freeze(np.array([[np.nan]])), 1, 1)
        one = choi_factor(_freeze(np.array([[1.0]])), 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionOverflow, match="reach 1.41e\\+308"):
                huge.deviation(one)
            assert nan.deviation(one) == one.deviation(nan) == math.inf
            assert not nan.equiv(nan)
        # D's entries are finite here, but the sum of their squares is not
        big = choi_factor(_freeze(np.array([[1e100], [0.0]])), 1, 2)
        zero = choi_factor(_freeze(np.zeros((2, 1))), 1, 2)
        assert big.deviation(zero) == pytest.approx(1e200)
        # a rescaled norm other than 1: D is 1e200 in each of 4 entries
        both = choi_factor(_freeze(np.array([[1e100], [1e100]])), 1, 2)
        assert both.deviation(zero) == 2e200

    def test_largest_workload_payload_fits(self):
        assert mat_identity(512).shape == (512, 512)


class TestDagger:
    def test_identity(self):
        assert np.array_equal(mat_dagger(mat_identity(3)), mat_identity(3))

    def test_conjugates(self):
        assert np.array_equal(mat_dagger(np.array([[1 + 2j]])),
                              np.array([[1 - 2j]]))

    def test_involution_exact(self):
        f = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
        assert np.array_equal(mat_dagger(mat_dagger(f)), f)

    def test_distributes_over_kron(self):
        f = RNG.random((2, 3)) + 1j * RNG.random((2, 3))
        g = RNG.random((3, 2)) + 1j * RNG.random((3, 2))
        assert np.allclose(mat_dagger(mat_kron(f, g)),
                           mat_kron(mat_dagger(f), mat_dagger(g)))


class TestCommutationPerm:
    def test_unit_side(self):
        assert np.array_equal(commutation_perm(1, 4), mat_identity(4))
        assert np.array_equal(commutation_perm(4, 1), mat_identity(4))

    def test_swap_two_by_two(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.array_equal(commutation_perm(2, 2), swap)

    def test_index_oracle_2_3(self):
        # sigma(i*3 + j) = j*2 + i
        p = commutation_perm(2, 3)
        for i in range(2):
            for j in range(3):
                col = np.zeros(6)
                col[i * 3 + j] = 1
                out = p @ col
                assert out[j * 2 + i] == 1 and out.sum() == 1

    def test_matches_the_index_loop(self):
        for a in range(1, 9):
            for b in range(1, 9):
                p = np.zeros((a * b, a * b), dtype=complex)
                for i in range(a):
                    for j in range(b):
                        p[j * a + i, i * b + j] = 1.0
                assert np.array_equal(commutation_perm(a, b), p)

    def test_inverse_pair(self):
        assert np.array_equal(commutation_perm(2, 3) @ commutation_perm(3, 2),
                              mat_identity(6))

    def test_swaps_vectors(self):
        x = RNG.random(3) + 1j * RNG.random(3)
        y = RNG.random(2) + 1j * RNG.random(2)
        assert np.allclose(commutation_perm(3, 2) @ np.kron(x, y),
                           np.kron(y, x))


class TestBell:
    def test_dimension_one(self):
        assert np.array_equal(bell_unit(1), np.array([[1.0]]))
        assert np.array_equal(bell_counit(1), np.array([[1.0]]))

    def test_basis_expansion(self):
        assert np.array_equal(bell_unit(2),
                              np.array([[1.0], [0.0], [0.0], [1.0]]))
        for a in range(1, 9):
            cup = np.zeros((a * a, 1))
            cup[::a + 1] = 1  # e_i (x) e_i sits at row i*a + i
            assert np.array_equal(bell_unit(a), cup)

    def test_snake_composite(self):
        for a in (1, 2, 3, 4):
            snake = (mat_kron(mat_identity(a), bell_counit(a))
                     @ mat_kron(bell_unit(a), mat_identity(a)))
            assert np.max(np.abs(snake - mat_identity(a))) <= 1e-12


class TestApplyChannel:
    def test_identity_channel(self):
        rho = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        assert np.allclose(apply_channel(mat_identity(2), 1, rho), rho)

    def test_discard_is_trace(self):
        rho = np.array([[0.25, 0.3], [0.3, 0.75]], dtype=complex)
        out = apply_channel(mat_identity(2), 2, rho)
        assert np.allclose(out, [[np.trace(rho)]])

    def test_sum_over_kraus_oracle(self):
        u, b, a = 3, 2, 2
        body = RNG.random((u * b, a)) + 1j * RNG.random((u * b, a))
        z = RNG.random((a, a)) + 1j * RNG.random((a, a))
        rho = z + z.conj().T
        expected = np.zeros((b, b), dtype=complex)
        for i in range(u):
            blk = body[i * b:(i + 1) * b]
            expected += blk @ rho @ blk.conj().T
        assert np.allclose(apply_channel(body, u, rho), expected)

    def test_trace_consistency(self):
        body = RNG.random((6, 2)) + 1j * RNG.random((6, 2))
        z = RNG.random((2, 2)) + 1j * RNG.random((2, 2))
        rho = z + z.conj().T
        out = apply_channel(body, 3, rho)
        assert np.isclose(np.trace(out),
                          np.trace(body.conj().T @ body @ rho))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            apply_channel(mat_identity(2), 1,
                          np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_shape_mismatch(self):
        rho = np.eye(3, dtype=complex)
        with pytest.raises(ShapeMismatch):
            apply_channel(mat_identity(2), 1, rho)

    def test_trace_preserving_iff_isometric_body(self):
        iso = random_unitary(RNG, 4)[:, :2]  # body with body^ body = 1
        rho = random_unitary(RNG, 2)
        rho = rho @ np.diag([0.75, 0.25]) @ rho.conj().T
        assert np.isclose(
            np.trace(apply_channel(iso, 2, rho)), 1.0)
        body = RNG.random((4, 2)) + 1j * RNG.random((4, 2))
        assert not np.isclose(
            np.trace(apply_channel(body, 2, rho)), 1.0)


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [3.0, 1.0])
        # columns match up to phase
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x_by_hand(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0])

    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    def test_reconstruction_residual(self, n):
        z = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        h = z + z.conj().T
        w, v = hermitian_eig(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-8
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        # NaN fails every comparison, so it must not pass the tolerance test
        with pytest.raises(NotHermitian):
            check_hermitian(np.full((2, 2), np.nan))


def test_a_bool_is_no_dimension():
    # ``True == 1``, but a bool dimension would be written to JSON as
    # ``true``, which the reader refuses
    for label in (True, False):
        with pytest.raises(ShapeMismatch, match="positive dimension"):
            MAT.interpret(Base(label))
        with pytest.raises(ShapeMismatch):
            MAT.interpret(Tensor(Base(2), Base(label)))
    assert MAT.interpret(Base(1)) == 1


def test_random_unitary_is_unitary():
    u = random_unitary(RNG, 4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


def test_shapes_the_channel_helpers_refuse():
    with pytest.raises(ShapeMismatch, match="square"):
        check_hermitian(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch, match="not divisible"):
        apply_channel(np.ones((3, 2)), 2, np.eye(2) / 2)
    with pytest.raises(TypingError, match="dim_in \\* dim_out"):
        ChoiMatrix(np.eye(4), 2, 3)
