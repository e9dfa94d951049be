import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ballbasis import cli, domination

from ballbasis import (AlphaViolated, BetaOutOfRange, BOConstants,
                       ConstructionFailure, NotRestricted, OperatorDescriptor,
                       Params, VecFunction, alpha_oscillation,
                       conditional_expectation, discrete_hilbert, dominate_bo,
                       dominate_mean_osc, estimate_bo_constants,
                       fit_exponential_rate, lerner_decompose,
                       martingale_transform, riesz_potential,
                       verify_sparse_bound, zero_operator)
from conftest import STAT_BASES


def span_ball(basis, lo, hi):
    return int(np.flatnonzero((basis.lo == lo) & (basis.hi == hi))[0])


class TestFitRate:
    def test_pure_exponential(self):
        levels = list(range(10))
        fracs = [np.exp(-0.7 * t) for t in levels]
        assert fit_exponential_rate(levels, fracs) == pytest.approx(0.7)

    def test_short_tail_is_inf(self):
        assert fit_exponential_rate([0, 1], [1.0, 0.0]) == np.inf


class TestDominateBO:
    def test_zero_operator(self, dyadic6):
        T = zero_operator(dyadic6)
        c = estimate_bo_constants(T, budget=4)
        f = VecFunction(np.ones(64))
        bound = dominate_bo(T, c, f, dyadic6.full_ball_id())
        assert bound.constant == 0.0

    def test_martingale_verified(self, dyadic8, rng):
        eps = rng.integers(0, 2, size=dyadic8.n_balls) * 2 - 1
        T = martingale_transform(dyadic8, eps)
        c = estimate_bo_constants(T, budget=8)
        b = dyadic8.full_ball_id()
        f = VecFunction(rng.normal(size=256))
        bound = dominate_bo(T, c, f, b)
        rep = verify_sparse_bound(bound, T.apply(f), b)
        assert rep.passed
        assert rep.enclosing_ratio <= dyadic8.K ** 3 + 1e-9
        assert rep.rate > 0

    def test_riesz_verified(self, grid128, rng):
        R = riesz_potential(grid128, 0.5)
        c = estimate_bo_constants(R, budget=8)
        b = span_ball(grid128, 0, 127)
        f = VecFunction(np.abs(rng.normal(size=128)))
        bound = dominate_bo(R, c, f, b)
        rep = verify_sparse_bound(bound, R.apply(f), b)
        assert rep.passed

    def test_scale_invariance(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = estimate_bo_constants(T, budget=8)
        b = dyadic6.full_ball_id()
        f = rng.normal(size=64)
        b1 = dominate_bo(T, c, VecFunction(f), b)
        b2 = dominate_bo(T, c, VecFunction(1000.0 * f), b)
        assert b1.constant == pytest.approx(b2.constant, rel=1e-8)

    def test_support_guard(self, dyadic6):
        T = zero_operator(dyadic6)
        c = estimate_bo_constants(T, budget=4)
        f = VecFunction(np.ones(64))
        with pytest.raises(ValueError):
            dominate_bo(T, c, f, span_ball(dyadic6, 0, 31))

    def test_corrupted_constant_fails(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = estimate_bo_constants(T, budget=8)
        b = dyadic6.full_ball_id()
        f = VecFunction(rng.normal(size=64))
        bound = dominate_bo(T, c, f, b)
        bound.constant *= 1e-6
        rep = verify_sparse_bound(bound, T.apply(f), b)
        assert rep.margin_min < 0
        assert not rep.passed


class TestDominateBOErrors:
    """An error raised while the exceptional sets are built: the tree's own
    failures raise lambda, anything else propagates."""

    @staticmethod
    def _failing(basis, error, times):
        calls = []

        def apply_fn(stack, norm_kind):
            calls.append(stack)
            if len(calls) <= times:
                raise error
            return np.zeros_like(stack)

        n = basis.n_atoms
        return OperatorDescriptor("failing", basis, Params.classical_profile(1.0),
                                  kernel=np.zeros((n, n)), apply_fn=apply_fn)

    @pytest.mark.parametrize("error", [AlphaViolated("too large"),
                                       ConstructionFailure("stuck")])
    def test_tree_failure_raises_lambda(self, dyadic6, error):
        T = self._failing(dyadic6, error, times=1)
        c = BOConstants(L0=1.0, L1=0.0, L2=0.0, method="test", r4_constant=0.0,
                        r5_value=0.0)
        bound = dominate_bo(T, c, VecFunction(np.ones(64)), 0)
        assert bound.details["lambda"] == 20.0

    def test_gamma_once_per_ball(self, dyadic6, rng, monkeypatch):
        """gamma and the (B*)* average do not depend on lambda, so a doubling
        only re-thresholds them: each ball's maximal runs once per call."""
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = estimate_bo_constants(T, budget=4)
        trees = []
        sparsify_tree = domination.sparsify_tree

        def fail_first(*args, **kwargs):
            trees.append(sparsify_tree(*args, **kwargs))
            if len(trees) == 1:
                raise ConstructionFailure("forced doubling")
            return trees[-1]

        # gamma of ball B is computed right after B's (B*)* is read
        last_ball = []
        star2_members = dyadic6.star2_members
        evaluated = Counter()
        maximal = domination.maximal
        monkeypatch.setattr(domination, "sparsify_tree", fail_first)
        monkeypatch.setattr(dyadic6, "star2_members",
                            lambda bid: last_ball.append(bid) or star2_members(bid))
        monkeypatch.setattr(domination, "maximal", lambda *args: evaluated.update(
            [last_ball[-1]]) or maximal(*args))
        b = dyadic6.full_ball_id()
        bound = dominate_bo(T, c, VecFunction(rng.normal(size=64)), b)
        assert bound.details["lambda"] == 20.0
        assert len(trees) == 2 and evaluated
        assert set(evaluated.values()) == {1}

    @pytest.mark.parametrize("error", [RuntimeError("boom"), ValueError("bad")])
    def test_other_error_propagates(self, dyadic6, error):
        T = self._failing(dyadic6, error, times=1)
        c = BOConstants(L0=1.0, L1=0.0, L2=0.0, method="test", r4_constant=0.0,
                        r5_value=0.0)
        with pytest.raises(type(error), match=str(error)):
            dominate_bo(T, c, VecFunction(np.ones(64)), 0)


class TestDominateBOCost:
    def test_truncation_once_per_function(self, monkeypatch):
        """On the shipped dyadic layout, each dominate_bo call applies T* to
        each distinct function once: where (B*)* holds f's support, g = f
        bit for bit, and its T f and T* f serve the certificate too."""
        cfg = cli.load_config(str(Path(__file__).parents[1] / "configs"
                                  / "dyadic-martingale.json"))
        basis = cli.build_basis(cfg)
        stars, seen = [], []
        truncate, apply = domination.truncate, OperatorDescriptor.apply
        monkeypatch.setattr(domination, "truncate",
                            lambda T: stars.append(truncate(T)) or stars[-1])
        monkeypatch.setattr(OperatorDescriptor, "apply", lambda self, f: (
            any(self is s for s in stars) and seen.append(f.values.tobytes())
        ) or apply(self, f))
        b = basis.full_ball_id()
        for spec in cfg["operators"]:
            T = cli.build_operator(spec, basis, cfg["seed"])
            consts = T.bo_constants(cfg["estimate"]["budget"], cfg["seed"])
            for i in range(cfg["dominate"]["cases"]):
                f = VecFunction(np.random.default_rng([cfg["seed"], 31, i]).normal(
                    size=(basis.n_atoms, 1)))
                seen.clear()
                dominate_bo(T, consts, f, b)
                assert f.values.tobytes() in seen
                assert len(seen) == len(set(seen)), T.name


class TestLerner:
    @pytest.mark.parametrize("name", sorted(STAT_BASES))
    def test_terms_equal_per_set(self, name):
        """The terms from one padded table equal each family set's
        alpha_oscillation bitwise, for values with and without ties."""
        basis = STAT_BASES[name]()
        rng = np.random.default_rng(3)
        built = 0
        for f in (VecFunction(rng.lognormal(size=basis.n_atoms)),
                  VecFunction(rng.integers(0, 3, size=basis.n_atoms).astype(float))):
            for a0 in (basis.full_ball_id(), 0):
                try:
                    bound = lerner_decompose(f, a0, 0.75, basis)
                except ConstructionFailure:  # beta too small for this f
                    continue
                built += 1
                assert bound.terms == [alpha_oscillation(f, basis.members(i), 0.75, basis)
                                       for i in bound.family]
        assert built >= 3

    def test_constant_function(self, dyadic6):
        f = VecFunction(np.full(64, 3.0))
        bound = lerner_decompose(f, dyadic6.full_ball_id(), 0.75, dyadic6)
        lhs = np.abs(f.norms() * 0 + 3.0 - float(bound.center[0]))
        rep = verify_sparse_bound(bound, lhs, dyadic6.full_ball_id())
        assert rep.passed

    def test_random_with_repair(self, dyadic8, rng):
        f = VecFunction(rng.normal(size=256))
        b = dyadic8.full_ball_id()
        bound = lerner_decompose(f, b, 0.75, dyadic8)
        lhs = np.abs(f.values[:, 0] - float(bound.center[0]))
        rep = verify_sparse_bound(bound, lhs, b)
        assert rep.passed
        assert bound.details["repaired"] >= 0

    def test_shift_invariance(self, dyadic6, rng):
        f = rng.normal(size=64)
        b = dyadic6.full_ball_id()
        b1 = lerner_decompose(VecFunction(f), b, 0.75, dyadic6)
        b2 = lerner_decompose(VecFunction(f + 7.0), b, 0.75, dyadic6)
        assert b1.constant == pytest.approx(b2.constant, rel=1e-10)
        assert b1.terms == pytest.approx(b2.terms, rel=1e-10)

    def test_hilbert_output(self, grid128, rng):
        H = discrete_hilbert(grid128)
        hf = H.apply(VecFunction(rng.normal(size=128)))
        b = span_ball(grid128, 0, 127)
        bound = lerner_decompose(VecFunction(hf.norms()), b, 0.75, grid128)
        lhs = np.abs(hf.norms() - float(bound.center[0]))
        rep = verify_sparse_bound(bound, lhs, b)
        assert rep.passed

    def test_beta_guard(self, dyadic6):
        f = VecFunction(np.ones(64))
        with pytest.raises(BetaOutOfRange):
            lerner_decompose(f, dyadic6.full_ball_id(), 0.4, dyadic6)
        with pytest.raises(BetaOutOfRange):
            lerner_decompose(f, dyadic6.full_ball_id(), 1.0, dyadic6)


class TestOverlapTail:
    """The overlap tail of verify_sparse_bound is a fraction of mu(B): on
    ball 1 of dyadic 8 the family reaches past the ball, and only the atoms
    of B count."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["lerner_decompose", "dominate_bo"])
    def test_counts_inside_the_ball(self, dyadic8, name, seed):
        members = dyadic8.balls[1].members
        vals = np.zeros(dyadic8.n_atoms)
        vals[members] = np.random.default_rng(seed).normal(size=members.size)
        f = VecFunction(vals)
        if name == "lerner_decompose":
            bound = lerner_decompose(f, 1, 0.75, dyadic8)
            target = np.abs(vals - float(bound.center[0]))
        else:
            T = martingale_transform(dyadic8, np.ones(dyadic8.n_balls))
            bound = dominate_bo(T, estimate_bo_constants(T, budget=4), f, 1)
            target = T.apply(f).norms()
        rep = verify_sparse_bound(bound, target, 1)
        assert rep.tail[0] == (0, 1.0)
        assert all(0.0 <= fr <= 1.0 for _, fr in rep.tail)


class TestDominateMeanOsc:
    def test_constant_input(self, dyadic6):
        fam = [conditional_expectation(dyadic6, k) for k in range(7)]
        f = VecFunction(np.full(64, 2.0))
        bound = dominate_mean_osc(fam, f, dyadic6.full_ball_id(),
                                  consts=[t.bo_constants(4, 0) for t in fam])
        tf = np.full(64, 2.0)
        lhs = np.abs(tf - float(bound.center[0]))
        rep = verify_sparse_bound(bound, lhs, dyadic6.full_ball_id())
        assert rep.passed

    def test_expectation_family_random(self, dyadic8, rng):
        fam = [conditional_expectation(dyadic8, k) for k in range(9)]
        f = VecFunction(rng.normal(size=256))
        b = dyadic8.full_ball_id()
        bound = dominate_mean_osc(fam, f, b,
                                  consts=[t.bo_constants(8, 0) for t in fam])
        tf = np.zeros(256)
        for t in fam:
            np.maximum(tf, t.apply(f).norms(), out=tf)
        lhs = np.abs(tf - float(bound.center[0]))
        rep = verify_sparse_bound(bound, lhs, b)
        assert rep.passed
        assert bound.details["overlap_rate"] > 0

    def test_empty_family_rejected(self, dyadic6):
        with pytest.raises(NotRestricted):
            dominate_mean_osc([], VecFunction(np.ones(64)),
                              dyadic6.full_ball_id(), consts=[])

    def test_infinite_r4_rejected(self, dyadic6):
        """The check reads r4_constant itself, so a replaced value is seen."""
        fam = [conditional_expectation(dyadic6, 2)]
        consts = [dataclasses.replace(fam[0].bo_constants(4, 0),
                                      r4_constant=math.inf)]
        with pytest.raises(NotRestricted, match="log-localization"):
            dominate_mean_osc(fam, VecFunction(np.ones(64)),
                              dyadic6.full_ball_id(), consts=consts)

    def test_nonclassical_rejected(self, grid16):
        fam = [riesz_potential(grid16, 0.5)]
        with pytest.raises(NotRestricted):
            dominate_mean_osc(fam, VecFunction(np.ones(16)),
                              span_ball(grid16, 0, 15),
                              consts=[t.bo_constants(4, 0) for t in fam])


class TestEmittedBoundCertified:
    """With its least constant halved, each sparse bound fails its own
    pointwise verification: the check can fail."""

    @staticmethod
    def _run(name, basis, rng):
        f = VecFunction(rng.normal(size=basis.n_atoms))
        b = basis.full_ball_id()
        if name == "dominate_bo":
            eps = rng.integers(0, 2, size=basis.n_balls) * 2 - 1
            T = martingale_transform(basis, eps)
            return dominate_bo(T, estimate_bo_constants(T, budget=4), f, b)
        if name == "lerner_decompose":
            return lerner_decompose(f, b, 0.75, basis)
        fam = [conditional_expectation(basis, k) for k in range(7)]
        return dominate_mean_osc(fam, f, b,
                                 consts=[t.bo_constants(4, 0) for t in fam])

    @pytest.mark.parametrize("name", ["dominate_bo", "lerner_decompose",
                                      "dominate_mean_osc"])
    def test_halved_constant_fails(self, dyadic6, name, monkeypatch):
        assert self._run(name, dyadic6, np.random.default_rng(3)).constant > 0
        least = domination._min_constant
        monkeypatch.setattr(domination, "_min_constant", lambda lhs, rhs, members, what:
                            least(lhs, rhs, members, what) / (2.0 if what == name else 1.0))
        with pytest.raises(ConstructionFailure, match="^emitted bound failed verification$"):
            self._run(name, dyadic6, np.random.default_rng(3))
