"""Acceptance checks.

Each test exercises one criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).
"""

import contextlib
import time

import numpy as np
import pytest

from mucinf import cpinf
from mucinf.cplane import CplaneKraus, cplane_equiv, kraus_valid
from mucinf.cpinf import (EnvStructure, canonical_env, channel_action,
                          env_check, env_discard, equiv_decide,
                          equiv_testmap_oracle, equivalent_variant,
                          functor_Q, initiality_probe, kraus_compose,
                          kraus_dagger, kraus_identity, kraus_new,
                          kraus_tensor, pure_decomposition, purify,
                          random_channel, random_density, to_choi)
from mucinf.fmat import (FiniteIndex, check_finiteness_relation,
                         explicit_family, family_subset, fmat_compose,
                         include_mat, perp)
from mucinf.laws import catalog
from mucinf.matc import hermitian_eig
from mucinf.morphisms import Morphism, get_model
from mucinf.objects import Base
from mucinf.suite import SuiteConfig, run_suite

MAT = get_model("mat")


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def test_criterion_1_coherence_suite():
    with criterion(1, "coherence suite on mat and cplane"):
        started = time.time()
        reports = run_suite(SuiteConfig(models=("mat", "cplane"),
                                        trials=100, seed=7, tol=1e-9))
        elapsed = time.time() - started
        by_key = {(r.law, r.model): r for r in reports}
        for law_id, law in catalog().items():
            if "mat" in law.models:
                assert by_key[(law_id, "mat")].passed, law_id
            if "cplane" in law.models:
                rep = by_key[(law_id, "cplane")]
                assert rep.passed and rep.max_abs_deviation == 0.0, law_id
        assert all(r.passed for r in reports)
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_equivalence_soundness_completeness():
    with criterion(2, "equivalence decision vs the test-map oracle"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            k = random_channel(MAT, rng)
            variant = equivalent_variant(rng, k)
            assert equiv_decide(k, variant, 1e-9)
            oracle = equiv_testmap_oracle(k, variant, trials=20, rng=rng,
                                          tol=1e-7)
            assert oracle["consistent"], oracle
        witnessed = 0
        for _ in range(200):
            k1, k2 = cpinf.distinct_pair(MAT, rng)
            assert not equiv_decide(k1, k2, 1e-9)
            oracle = equiv_testmap_oracle(k1, k2, trials=200, rng=rng)
            witnessed += 0 if oracle["consistent"] else 1
        assert witnessed >= 190, f"only {witnessed}/200 witnessed"


def test_criterion_3_channel_category_laws():
    with criterion(3, "channel category and isomix structure"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k1 = random_channel(MAT, rng)
            k2 = random_channel(MAT, rng, k1.cod)
            k3 = random_channel(MAT, rng, k2.cod)
            lhs = kraus_compose(kraus_compose(k1, k2), k3)
            rhs = kraus_compose(k1, kraus_compose(k2, k3))
            assert equiv_decide(lhs, rhs, 1e-9)
            assert equiv_decide(
                kraus_compose(kraus_identity("mat", k1.dom), k1), k1, 1e-9)
            assert equiv_decide(
                kraus_compose(k1, kraus_identity("mat", k1.cod)), k1, 1e-9)
        for _ in range(100):
            k1 = random_channel(MAT, rng)
            k2 = random_channel(MAT, rng)
            k3 = random_channel(MAT, rng, k1.cod)
            k4 = random_channel(MAT, rng, k2.cod)
            lhs = kraus_compose(kraus_tensor(k1, k2), kraus_tensor(k3, k4))
            rhs = kraus_tensor(kraus_compose(k1, k3), kraus_compose(k2, k4))
            assert equiv_decide(lhs, rhs, 1e-9)
            a = Base(int(rng.integers(1, 4)))
            b = Base(int(rng.integers(1, 4)))
            from mucinf.structural import structural
            fwd = functor_Q(structural(MAT, "mx", [a, b]))
            bwd = functor_Q(structural(MAT, "mx_inv", [a, b]))
            assert equiv_decide(kraus_compose(fwd, bwd),
                                kraus_identity("mat", fwd.dom), 1e-9)


def test_criterion_4_choi_machinery():
    with criterion(4, "pure decomposition, purification, eigensolver"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = random_channel(MAT, rng)
            rho = random_density(rng, MAT.interpret(k.dom))
            total = sum(blk @ rho @ blk.conj().T
                        for blk in pure_decomposition(k))
            assert np.max(np.abs(total - channel_action(k, rho))) <= 1e-9
            assert equiv_decide(purify(to_choi(k)), k, 1e-8)
        for n in (2, 4, 8, 12, 16):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = z + z.conj().T
            w, v = hermitian_eig(h)
            residual = np.max(np.abs(v @ np.diag(w) @ v.conj().T - h))
            assert residual <= 1e-8, (n, residual)


def test_criterion_5_environment_structure():
    with criterion(5, "environment structure and initiality probe"):
        env = canonical_env()
        reports = env_check(env, trials=25, seed=5)
        assert all(r.passed for r in reports), \
            [(r.law, r.max_abs_deviation) for r in reports]

        def halved(u_expr):
            honest = env_discard("mat", u_expr)
            body = Morphism("mat", honest.body.dom, honest.body.cod,
                            honest.body.payload / np.sqrt(2))
            return kraus_new(body, honest.ancilla)

        broken = EnvStructure("mat", functor_Q, halved, "trace-then-halve")
        broken_reports = {r.law: r for r in env_check(broken, trials=10,
                                                      seed=5)}
        assert not broken_reports["Env.1a"].passed

        def permuted(u_expr):
            honest = env_discard("mat", u_expr)
            dim = MAT.interpret(u_expr)
            body = Morphism("mat", honest.body.dom, honest.body.cod,
                            np.eye(dim)[::-1].astype(complex)
                            @ honest.body.payload)
            return kraus_new(body, honest.ancilla)

        other = EnvStructure("mat", functor_Q, permuted, "permuted")
        probe = initiality_probe(env, other, samples=50, seed=5)
        assert probe["consistent"], probe


def test_criterion_6_cplane_projective_classes():
    with criterion(6, "discrete-model equivalence matches the projective "
                      "characterization"):
        cs = [0, 1, -1, 2, 1j, -2j, 1 + 1j, 3, -1.5, 0.5 - 0.5j]
        rs = [0, 1, -1, 2, 0.5, -0.5, 3, -3, 1.5, 0.25]
        checked = 0
        for c in cs:
            for r in rs:
                for cp in cs:
                    valid = kraus_valid(c, r, cp)
                    colinear = (r != 0
                                and abs(c - r * cp) <= 1e-12 * max(1, abs(c)))
                    assert valid == colinear, (c, r, cp)
                    checked += 1
        assert checked == 1000
        # classes: into zero everything collapses, otherwise the ratio is
        # pinned, so representatives are equivalent exactly when equal
        for c, cp in [(0, 0), (2, 1), (3, 1.5), (-2, 4)]:
            ratios = [r for r in rs if kraus_valid(c, r, cp)]
            for r1 in ratios:
                for r2 in ratios:
                    equiv = cplane_equiv(CplaneKraus(c, cp, r1),
                                         CplaneKraus(c, cp, r2))
                    expected = True if cp == 0 else (r1 == r2)
                    assert equiv == expected, (c, cp, r1, r2)
            if cp != 0:
                assert len(ratios) <= 1  # uniqueness into a nonzero target


def test_criterion_7_fmat_fragment():
    with criterion(7, "finiteness spaces, typed composition, strict "
                      "inclusion"):
        rng = np.random.default_rng(7)
        for _ in range(500):
            labels = tuple(range(int(rng.integers(1, 6))))
            idx = FiniteIndex(labels)
            subsets = [[x for x in labels if rng.random() < 0.5]
                       for _ in range(int(rng.integers(0, 4)))]
            fam = explicit_family(subsets)
            once = perp(fam, idx)
            assert perp(perp(once, idx), idx) == once
            bigger = explicit_family(list(fam.sets) + [labels])
            assert family_subset(perp(bigger, idx), perp(fam, idx))
        for _ in range(100):
            dims = [int(rng.integers(1, 5)) for _ in range(4)]
            mats = []
            for i in range(3):
                re = rng.integers(-3, 4, size=(dims[i + 1], dims[i]))
                im = rng.integers(-3, 4, size=(dims[i + 1], dims[i]))
                mats.append(include_mat(re + 1j * im.astype(float)))
                assert check_finiteness_relation(mats[-1].support(),
                                                 mats[-1].src, mats[-1].tgt)
            lhs = fmat_compose(fmat_compose(mats[0], mats[1]), mats[2])
            rhs = fmat_compose(mats[0], fmat_compose(mats[1], mats[2]))
            assert lhs.entries == rhs.entries  # integer arithmetic is exact
        strict = run_suite(SuiteConfig(models=("fmat",), trials=100, seed=7,
                                       law_filter="[FMP]*"))
        assert strict, "no fmat laws selected"
        for rep in strict:
            if rep.law in ("FF1", "FF2", "FF3", "FF-MIX", "FF-ISOMIX",
                           "MIXPRES", "PRES"):
                assert rep.passed and rep.max_abs_deviation == 0.0, rep.law


def test_criterion_8_channel_dagger():
    with criterion(8, "dagger on channels: involution and contravariance"):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = random_channel(MAT, rng)
            assert equiv_decide(kraus_dagger(kraus_dagger(k)), k, 1e-9)
        for _ in range(100):
            k1 = random_channel(MAT, rng)
            k2 = random_channel(MAT, rng, k1.cod)
            lhs = kraus_dagger(kraus_compose(k1, k2))
            rhs = kraus_compose(kraus_dagger(k2), kraus_dagger(k1))
            assert equiv_decide(lhs, rhs, 1e-9)
