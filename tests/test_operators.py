import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballbasis import (Ball, BallBasis, MeasureSpace, NotComparable,
                       OperatorDescriptor, Params, VecFunction, build_dyadic,
                       build_grid, conditional_expectation, delta,
                       discrete_hilbert, estimate_bo_constants,
                       identity_operator, martingale_transform, maximal,
                       maximal_modulation, riesz_potential, sparse_operator,
                       square_function, truncate, zero_operator)
from ballbasis import cli, operators
from ballbasis.errors import ConfigError
from ballbasis.functional import vector_norms
from ballbasis.operators import _sample_ball_ids, structured_suite

from conftest import (BOUND_WEIGHT_KINDS, _osc_on, _relabelled, _reweighted,
                      _with_weights, bound_weights, dense_kernel, dyadic_by_balls,
                      estimate_by_loop, kernel_truncation_by_groups, span_bases,
                      superset_denominators_by_gather, takes_grid_kernels,
                      weighted_interval_basis, weighted_interval_bases)


def span_ball(basis, lo, hi):
    return int(np.flatnonzero((basis.lo == lo) & (basis.hi == hi))[0])


def _square_function_by_balls(basis, f):
    """Sf by a Python loop over the balls of every dyadic generation: the
    reference the per-level block sums of square_function must equal bitwise."""
    levels = basis.n_atoms.bit_length() - 1
    w = basis.space.weights
    prev = None
    acc = np.zeros(basis.n_atoms)
    for g in range(levels + 1):
        cur = np.empty_like(f.values)
        for bid in range((1 << g) - 1, (1 << (g + 1)) - 1):
            lo, hi = int(basis.lo[bid]), int(basis.hi[bid])
            seg = f.values[lo:hi + 1]
            cur[lo:hi + 1] = (seg * w[lo:hi + 1, None]).sum(axis=0) / basis.mu[bid]
        if prev is not None:
            diff = cur - prev
            if f.norm_kind == "euclidean":
                d = np.linalg.norm(diff, axis=1)
            else:
                d = np.abs(diff).max(axis=1)
            acc += d ** 2
        prev = cur
    return np.sqrt(acc)[:, None]


class TestMartingaleTransform:
    def test_haar_step(self):
        b = build_dyadic(1)
        T = martingale_transform(b, np.ones(3))
        out = T.apply(VecFunction(np.array([1.0, 0.0])))
        assert np.allclose(out.values[:, 0], [0.5, -0.5])

    def test_telescoping(self, dyadic6, rng):
        T = martingale_transform(dyadic6, np.ones(dyadic6.n_balls))
        f = rng.normal(size=64)
        out = T.apply(VecFunction(f)).values[:, 0]
        assert np.allclose(out, f - f.mean())

    def test_constant_killed(self, dyadic6):
        T = martingale_transform(dyadic6, np.ones(dyadic6.n_balls))
        out = T.apply(VecFunction(np.full(64, 5.0)))
        assert np.allclose(out.values, 0.0)

    def test_short_sign_sequence(self, dyadic6):
        # one sign per non-leaf ball, ids 0 .. 62
        with pytest.raises(ValueError, match="non-leaf"):
            martingale_transform(dyadic6, np.ones(62))
        martingale_transform(dyadic6, np.ones(63))

    def test_kernel_consistency(self, dyadic6, rng):
        # M_eps f = sum over non-leaf A of eps_A (sum over children C of
        # f_C 1_C - f_A 1_A), with f_B the block average
        b = dyadic6
        eps = rng.integers(0, 2, size=b.n_balls) * 2 - 1
        T = martingale_transform(b, eps)
        f = rng.normal(size=64)
        w = b.space.weights

        def block_average(bid):
            m = b.balls[bid].members
            out = np.zeros(64)
            out[m] = (f[m] * w[m]).sum() / w[m].sum()
            return out

        want = np.zeros(64)
        for a in range(b.n_balls):
            kids = [c for c in range(b.n_balls)
                    if b.contains(c, a) and b.mu[c] == b.mu[a] / 2]
            if kids:
                want += eps[a] * (sum(block_average(c) for c in kids)
                                  - block_average(a))
        assert np.allclose(T.apply(VecFunction(f)).values[:, 0], want)

    def test_linearity(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        for _ in range(5):
            f = rng.normal(size=64)
            g = rng.normal(size=64)
            lhs = T.apply(VecFunction(2 * f - 3 * g)).values
            rhs = 2 * T.apply(VecFunction(f)).values - 3 * T.apply(VecFunction(g)).values
            assert np.allclose(lhs, rhs, rtol=1e-10)


class TestSquareFunction:
    def test_constant(self, dyadic6):
        S = square_function(dyadic6)
        assert np.allclose(S.apply(VecFunction(np.full(64, 2.0))).values, 0.0)

    def test_haar_step(self):
        b = build_dyadic(1)
        S = square_function(b)
        out = S.apply(VecFunction(np.array([1.0, 0.0])))
        assert np.allclose(out.values[:, 0], [0.5, 0.5])

    def test_parseval(self, dyadic6, rng):
        S = square_function(dyadic6)
        f = rng.normal(size=64)
        sf = S.apply(VecFunction(f)).values[:, 0]
        w = dyadic6.space.weights
        lhs = float((sf ** 2 * w).sum())
        rhs = float(((f - (f * w).sum() / w.sum()) ** 2 * w).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_sublinear(self, dyadic6, rng):
        S = square_function(dyadic6)
        f, g = rng.normal(size=64), rng.normal(size=64)
        both = S.apply(VecFunction(f + g)).norms()
        split = S.apply(VecFunction(f)).norms() + S.apply(VecFunction(g)).norms()
        assert np.all(both <= split + 1e-10)

    @pytest.mark.parametrize("levels", range(9))
    def test_equals_per_ball_loop(self, levels):
        b = build_dyadic(levels)
        S = square_function(b)
        rng = np.random.default_rng(levels)
        for dim in (1, 3):
            for values in (rng.normal(size=(b.n_atoms, dim)),
                           rng.choice([-1.0, 1.0], size=(b.n_atoms, dim))):
                for norm_kind in ("max", "euclidean"):
                    f = VecFunction(values, norm_kind)
                    assert np.array_equal(S.apply(f).values,
                                          _square_function_by_balls(b, f))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_sum_of_martingale_differences(self, dim, rng):
        # Sf(x)^2 = sum over non-leaf A of ||Delta_A f(x)||^2, with
        # Delta_A f = sum over children C of f_C 1_C - f_A 1_A
        b = build_dyadic(5)
        S = square_function(b)
        f = rng.normal(size=(b.n_atoms, dim))
        w = b.space.weights

        def block_average(bid):
            m = b.balls[bid].members
            out = np.zeros_like(f)
            out[m] = (f[m] * w[m, None]).sum(axis=0) / w[m].sum()
            return out

        for norm_kind in ("max", "euclidean"):
            want = np.zeros(b.n_atoms)
            for a in range(b.n_balls // 2):  # heap order: the non-leaf balls
                delta_a = (block_average(2 * a + 1) + block_average(2 * a + 2)
                           - block_average(a))
                want += VecFunction(delta_a, norm_kind).norms() ** 2
            got = S.apply(VecFunction(f, norm_kind)).values[:, 0]
            assert np.allclose(got, np.sqrt(want), rtol=1e-12, atol=1e-15)


class TestDyadicLayout:
    """The dyadic operators accept a basis by its structure: build_dyadic's
    layout of generations and spans, whoever built it."""

    DYADIC_OPERATORS = pytest.mark.parametrize("make", [
        square_function,
        lambda b: martingale_transform(b, np.ones(b.n_balls)),
        lambda b: conditional_expectation(b, 1),
    ], ids=["square_function", "martingale_transform", "conditional_expectation"])

    def test_build_dyadic_accepted(self):
        for levels in range(11):
            b = build_dyadic(levels)
            square_function(b)
            martingale_transform(b, np.ones(b.n_balls))
            conditional_expectation(b, 0)

    @DYADIC_OPERATORS
    def test_relabelled_atoms_rejected(self, dyadic4, make):
        b, _ = _relabelled(dyadic4, seed=11)
        assert not b.interval
        with pytest.raises(ValueError, match="dyadic"):
            make(b)

    @DYADIC_OPERATORS
    def test_balls_out_of_heap_order_rejected(self, dyadic4, make):
        # every ball still an interval, but generation 1 lists its balls
        # right to left
        b = dyadic4
        balls = list(b.balls)
        balls[1], balls[2] = (Ball(1, b.balls[2].members, b.mu[2]),
                              Ball(2, b.balls[1].members, b.mu[1]))
        swapped = BallBasis(b.space, balls, b.hull, K=b.K, eta=b.eta)
        assert swapped.interval
        with pytest.raises(ValueError, match="dyadic"):
            make(swapped)

    @DYADIC_OPERATORS
    def test_wrong_ball_count_rejected(self, dyadic4, make):
        b = dyadic4
        short = BallBasis(b.space, b.balls[:-1], b.hull[:-1], K=b.K,
                          eta=b.eta)
        with pytest.raises(ValueError, match="dyadic"):
            make(short)

    @DYADIC_OPERATORS
    def test_hand_built_layout_accepted(self, make):
        """A Ball-list basis with build_dyadic's layout is dyadic, over the
        dyadic weights or over unit ones."""
        for b in (dyadic_by_balls(4), _unit_dyadic(4)):
            assert b.dyadic_levels() == 4
            make(b)


def _unit_dyadic(levels):
    """The dyadic intervals of build_dyadic(levels) over unit atom weights,
    ball by ball: an interval basis with counting measure that is not a
    complete grid."""
    base = build_dyadic(levels)
    balls = [Ball(b.id, b.members, float(len(b.members))) for b in base.balls]
    return BallBasis(MeasureSpace(np.ones(base.n_atoms)), balls, base.hull,
                     K=base.K, eta=base.eta)


class TestGridKernelStructure:
    """discrete_hilbert and riesz_potential accept a basis by its structure:
    every ball an atom interval and every atom weight 1."""

    GRID_KERNELS = pytest.mark.parametrize(
        "make", [discrete_hilbert, lambda b: riesz_potential(b, 0.5)],
        ids=["discrete_hilbert", "riesz_potential"])

    @GRID_KERNELS
    def test_unit_dyadic_accepted(self, make):
        b = _unit_dyadic(4)
        T = make(b)
        assert np.array_equal(T.kernel, make(build_grid(16)).kernel)
        f = VecFunction(np.random.default_rng(4).normal(size=(16, 2)))
        assert np.array_equal(truncate(T).apply(f).values[:, 0],
                              kernel_truncation_by_groups(T, f))

    @GRID_KERNELS
    @pytest.mark.parametrize("basis", [
        lambda: build_dyadic(4), lambda: _reweighted(build_grid(16), seed=3),
        lambda: _relabelled(build_grid(16), seed=3)[0]],
        ids=["dyadic", "reweighted_grid", "relabelled_grid"])
    def test_rejected(self, make, basis):
        b = basis()
        assert b.interval != bool(np.all(b.space.weights == 1.0))
        with pytest.raises(ValueError, match="interval basis over unit atom weights"):
            make(b)


class TestSparseOperator:
    def test_single_full_ball(self, dyadic3):
        A = sparse_operator(dyadic3, [dyadic3.full_ball_id()])
        out = A.apply(VecFunction(np.ones(8)))
        assert np.allclose(out.values, 1.0)

    def test_two_nested_balls(self, dyadic3):
        full = dyadic3.full_ball_id()
        half = span_ball(dyadic3, 0, 3)
        A = sparse_operator(dyadic3, [full, half])
        out = A.apply(VecFunction(np.ones(8))).values[:, 0]
        assert np.allclose(out[:4], 2.0)
        assert np.allclose(out[4:], 1.0)

    def test_fractional_rho(self):
        b = build_dyadic(0)
        A = sparse_operator(b, [0], rho=0.5)
        out = A.apply(VecFunction(np.ones(1)))
        assert out.values[0, 0] == pytest.approx(1.0)


class TestRieszPotential:
    def test_delta_at_distance(self, grid16):
        R = riesz_potential(grid16, 0.5)
        f = np.zeros(16)
        f[0] = 1.0
        out = R.apply(VecFunction(f)).values[:, 0]
        assert out[4] == pytest.approx(0.5)

    def test_diagonal_convention(self, grid16):
        R = riesz_potential(grid16, 0.5)
        f = np.zeros(16)
        f[0] = 1.0
        assert R.apply(VecFunction(f)).values[0, 0] == pytest.approx(1.0)

    def test_params(self, grid16):
        R = riesz_potential(grid16, 0.5)
        assert R.params.r == 1.0
        assert R.params.rho == pytest.approx(0.5)
        assert R.params.varrho == 1.0


class TestDiscreteHilbert:
    def test_delta_column(self, grid16):
        H = discrete_hilbert(grid16)
        f = np.zeros(16)
        f[0] = 1.0
        out = H.apply(VecFunction(f)).values[:, 0]
        for k in range(1, 16):
            assert out[k] == pytest.approx(1.0 / k)
        assert out[0] == 0.0

    def test_antisymmetry_at_center(self):
        b = build_grid(9)
        H = discrete_hilbert(b)
        out = H.apply(VecFunction(np.ones(9))).values[:, 0]
        assert out[4] == pytest.approx(0.0, abs=1e-12)

    def test_kernel_consistency(self, grid16, rng):
        H = discrete_hilbert(grid16)
        f = rng.normal(size=16)
        want = [sum(f[y] / (x - y) for y in range(16) if y != x)
                for x in range(16)]
        assert np.allclose(H.apply(VecFunction(f)).values[:, 0], want)


class TestTruncate:
    def test_identity_truncation_vanishes(self, dyadic3, rng):
        T = truncate(identity_operator(dyadic3))
        out = T.apply(VecFunction(rng.normal(size=8))).norms()
        assert np.allclose(out, 0.0)

    def test_hilbert_delta_exact(self, grid64):
        H = discrete_hilbert(grid64)
        f = np.zeros(64)
        f[0] = 1.0
        out = truncate(H).apply(VecFunction(f)).norms()
        # at atom 8 the best ball keeps the source outside its star
        best = 0.0
        for i in np.flatnonzero((grid64.lo <= 8) & (grid64.hi >= 8)):
            star = grid64.star_members(int(i))
            if 0 not in star:
                best = max(best, 1.0 / 8.0)
        assert out[8] == pytest.approx(best)

    def test_square_function_truncation_nonzero(self, dyadic8, rng):
        T = truncate(square_function(dyadic8))
        out = T.apply(VecFunction(rng.normal(size=256))).norms()
        assert np.any(out > 0)

    def test_sublinear(self, grid16, rng):
        T = truncate(discrete_hilbert(grid16))
        f, g = rng.normal(size=16), rng.normal(size=16)
        both = T.apply(VecFunction(f + g)).norms()
        split = T.apply(VecFunction(f)).norms() + T.apply(VecFunction(g)).norms()
        assert np.all(both <= split + 1e-10)


class TestMaximalModulation:
    def test_singleton(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        M = maximal_modulation([T])
        f = VecFunction(rng.normal(size=64))
        assert np.allclose(M.apply(f).norms(), T.apply(f).norms())

    def test_expectation_family_is_maximal_function(self, dyadic6, rng):
        fam = [conditional_expectation(dyadic6, k) for k in range(7)]
        M = maximal_modulation(fam)
        f = VecFunction(np.abs(rng.normal(size=64)))
        lhs = M.apply(f).norms()
        rhs = maximal(f, dyadic6, Params.classical_profile(1.0))
        assert np.allclose(lhs, rhs)

    def test_empty_family(self):
        with pytest.raises(ValueError):
            maximal_modulation([])


class TestDelta:
    def test_empty_support(self, dyadic3):
        # A = B means B* \ A* is empty
        full = dyadic3.full_ball_id()
        assert delta(identity_operator(dyadic3), full, full) == 0.0

    def test_hilbert_exact(self):
        g = build_grid(32)
        H = discrete_hilbert(g)
        a = span_ball(g, 8, 8)
        b = span_ball(g, 0, 16)
        got = delta(H, a, b)
        bstar = set(int(x) for x in g.star_members(b))
        astar = set(int(x) for x in g.star_members(a))
        mu_bstar = float(len(bstar))
        best = max(abs(1.0 / (8 - y)) for y in bstar - astar if y != 8)
        assert got == pytest.approx(mu_bstar * best)

    def test_monotone_in_outer_ball(self, grid16, rng):
        H = discrete_hilbert(grid16)
        tried = 0
        for _ in range(200):
            if tried >= 50:
                break
            lo = int(rng.integers(0, 14))
            hi = int(rng.integers(lo, 16))
            mid_hi = int(rng.integers(lo, hi + 1))
            a = span_ball(grid16, lo, lo)
            b = span_ball(grid16, lo, mid_hi)
            c = span_ball(grid16, lo, hi)
            tried += 1
            assert delta(H, a, b) <= delta(H, a, c) + 1e-12

    def test_not_comparable(self, grid16):
        a = span_ball(grid16, 0, 3)
        b = span_ball(grid16, 5, 8)
        with pytest.raises(NotComparable):
            delta(discrete_hilbert(grid16), a, b)


class TestEstimateConstants:
    def test_zero_operator(self, dyadic6):
        c = estimate_bo_constants(zero_operator(dyadic6), budget=4)
        assert c.L0 == c.L1 == c.L2 == 0.0

    def test_identity_localization(self, dyadic6):
        c = estimate_bo_constants(identity_operator(dyadic6), budget=4)
        assert c.L1 == 0.0

    def test_martingale_l1_zero(self, dyadic8, rng):
        eps = rng.integers(0, 2, size=dyadic8.n_balls) * 2 - 1
        T = martingale_transform(dyadic8, eps)
        c = estimate_bo_constants(T, budget=8)
        assert c.L1 == 0.0
        assert 0 < c.L0 < 10
        assert np.isfinite(c.L2)

    def test_bo_constants_computed_once(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = T.bo_constants(8, 3)
        assert T.bo_constants(8, 3) is c
        fresh = estimate_bo_constants(T, budget=8, seed=3)
        assert (c.L0, c.L1, c.L2) == (fresh.L0, fresh.L1, fresh.L2)

    def test_determinism(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        a = estimate_bo_constants(T, budget=8, seed=3)
        b = estimate_bo_constants(T, budget=8, seed=3)
        assert (a.L0, a.L1, a.L2) == (b.L0, b.L1, b.L2)

    def test_one_atom_basis(self):
        b = build_dyadic(0)
        for T in (identity_operator(b), square_function(b), sparse_operator(b, [0]),
                  martingale_transform(b, [1.0])):
            c = estimate_bo_constants(T, budget=8)
            assert all(math.isfinite(x) for x in
                       (c.L0, c.L1, c.L2, c.r4_constant, c.r5_value)), T.name


def _localization_by_supersets(T, basis, budget, seed, l1, r4, witnesses):
    """The Monte-Carlo localization pass of estimate_bo_constants as one
    Python loop per (sampled ball, suite function, superset), continuing from
    the exact pass's (l1, r4, witnesses): the reference the size-grouped pass
    must equal bitwise."""
    p = T.params
    w = basis.space.weights
    n = basis.n_atoms
    suite = structured_suite(basis, budget, seed)
    for bid in _sample_ball_ids(basis, max(budget, 16), seed):
        bid = int(bid)
        members = basis.balls[bid].members
        star = basis.star_members(bid)
        if star.size == n:
            continue
        mask = np.ones(n)
        mask[star] = 0.0
        sup_ids = basis.supersets(bid)
        for fi, v in enumerate(suite):
            rv = v * mask
            if not np.any(rv):
                continue
            f = VecFunction(rv)
            denom = 0.0
            r4_denom = 0.0
            for aid in sup_ids:
                aid = int(aid)
                am = basis.balls[aid].members
                avg = basis.mu[aid] ** (-p.rho) * float(
                    (np.abs(rv[am]) ** p.r * w[am]).sum()) ** p.varrho
                denom = max(denom, avg)
                r4_denom = max(r4_denom, avg / math.log1p(basis.mu[aid] / basis.mu[bid]))
            if denom == 0:
                continue
            tv = T.apply(f).norms()
            osc = _osc_on(tv, members)
            if osc / denom > l1:
                l1 = osc / denom
                witnesses["L1"] = {"ball": bid, "suite_index": fi}
            if r4_denom > 0 and osc / r4_denom > r4:
                r4 = osc / r4_denom
                witnesses["R4"] = {"ball": bid, "suite_index": fi}
    return float(l1), float(r4), witnesses


def _localization(c):
    """What the localization pass sets in BOConstants c."""
    return (c.L1, c.r4_constant,
            {k: c.witnesses[k] for k in ("L1", "R4") if k in c.witnesses})


def _localization_operators(basis, rng):
    """(operator, budget): the shipped constructors the basis admits, a
    modulation, a truncation (slow to apply, so probed at budget 2 as in the
    acceptance suite) and two kernels with non-classical profiles."""
    n = basis.n_atoms
    ops = []
    sparse = sparse_operator(basis, rng.choice(basis.n_balls, size=6, replace=False))
    truncated = sparse
    if takes_grid_kernels(basis):
        ops += [discrete_hilbert(basis), riesz_potential(basis, 0.5)]
    if basis.dyadic_levels() is not None:
        eps = rng.integers(0, 2, size=basis.n_balls) * 2 - 1
        truncated = square_function(basis)  # its truncation has a closed form
        ops += [martingale_transform(basis, eps), truncated]
    kernel = rng.normal(size=(n, n))
    ops += [sparse, maximal_modulation([sparse, identity_operator(basis)]),
            OperatorDescriptor("kernel_r2", basis, Params(r=2.0, rho=0.5, varrho=0.5),
                               kernel=kernel),
            OperatorDescriptor("kernel_r1.5", basis, Params(r=1.5, rho=0.3, varrho=0.9),
                               kernel=kernel)]
    return [(T, 4) for T in ops] + [(truncate(truncated), 2)]


class TestLocalizationPass:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_per_superset_loop(self, stat_basis, seed, monkeypatch):
        ops = _localization_operators(stat_basis, np.random.default_rng(seed))
        full = [estimate_bo_constants(T, budget, seed) for T, budget in ops]
        # with no ball sampled, only the exact pass sets L1 and R4
        monkeypatch.setattr(operators, "_sample_ball_ids", lambda *args: np.arange(0))
        from_mc = 0
        for (T, budget), c in zip(ops, full):
            e = estimate_bo_constants(T, budget, seed)
            want = _localization_by_supersets(T, stat_basis, budget, seed, e.L1,
                                              e.r4_constant, e.witnesses)
            assert _localization(c) == want, T.name
            from_mc += "suite_index" in c.witnesses.get("L1", {})
        # at least the two non-classical kernels take L1 from this pass
        assert from_mc >= 2

    def test_non_classical_powers(self, grid16):
        # only the winning denominators reach L1 and R4, and numpy's array **
        # differs from the scalar power on a few per cent of inputs: many
        # seeded kernels make a rounding change in the powers show
        rng = np.random.default_rng(11)
        for seed in range(30):
            kernel = rng.normal(size=(16, 16))
            for p in (Params(r=2.0, rho=0.5, varrho=0.5),
                      Params(r=1.5, rho=0.3, varrho=0.9)):
                T = OperatorDescriptor("kernel", grid16, p, kernel=kernel)
                c = estimate_bo_constants(T, budget=4, seed=seed)
                assert "suite_index" in c.witnesses["L1"]
                assert _localization(c) == _localization_by_supersets(
                    T, grid16, 4, seed, 0.0, 0.0, {})

    def test_one_log_per_superset(self, monkeypatch, grid16):
        """The pass takes log(1 + mu(A)/mu(B)) once per sampled ball B and
        superset A, not once per suite function as well."""
        calls = []
        log1p = math.log1p
        monkeypatch.setattr(math, "log1p", lambda x: calls.append(x) or log1p(x))
        estimate_bo_constants(discrete_hilbert(grid16), budget=8, seed=0)
        pairs = sum(len(grid16.supersets(int(b)))
                    for b in _sample_ball_ids(grid16, 16, 0)
                    if grid16.star_members(int(b)).size < grid16.n_atoms)
        assert 0 < len(calls) <= pairs


def _truncate_by_balls(T, f):
    """T*f(x) = max over balls B containing x of ||T(f 1_{X minus B*})(x)||,
    one application of T per ball: the definition truncate must equal."""
    basis = T.basis
    out = np.zeros(basis.n_atoms)
    for bid in range(basis.n_balls):
        keep = np.ones(basis.n_atoms)
        keep[basis.star_members(bid)] = 0.0
        tfb = T.apply(VecFunction(f.values * keep[:, None], f.norm_kind)).norms()
        members = basis.balls[bid].members
        out[members] = np.maximum(out[members], tfb[members])
    return out


def _kernel_truncation_by_atoms(T, f):
    """The removed per-atom loop of the kernel truncation: at each atom x, Tf(x)
    minus the sum of K(x, y) f(y) w(y) over the star of each ball containing x,
    a prefix-sum difference on interval bases and a plain sum otherwise."""
    basis = T.basis
    tf = T.apply(f).values
    g = f.values * basis.space.weights[:, None]
    kernel = dense_kernel(T)
    out = np.zeros(basis.n_atoms)
    for x in range(basis.n_atoms):
        v = kernel[x][:, None] * g
        pre = np.concatenate([np.zeros((1, v.shape[1])), np.cumsum(v, axis=0)])
        sums = []
        for b in basis.balls_containing_atom(x):
            star = basis.star_members(b)
            sums.append(pre[star[-1] + 1] - pre[star[0]] if basis.interval
                        else v[star].sum(axis=0))
        out[x] = vector_norms(tf[x][None, :] - np.array(sums), f.norm_kind).max()
    return out


def _dense(T):
    """T as a plain kernel operator: its dense kernel alone declares its
    structure."""
    return OperatorDescriptor(f"dense {T.name}", T.basis, T.params,
                              kernel=dense_kernel(T))


class TestKernelTruncationPass:
    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_equals_per_atom_loop(self, stat_basis, dim, norm):
        rng = np.random.default_rng(dim)
        n = stat_basis.n_atoms
        ops = [_dense(sparse_operator(stat_basis, rng.choice(stat_basis.n_balls, 8))),
               _dense(identity_operator(stat_basis)),
               OperatorDescriptor("dense", stat_basis, Params.classical_profile(1.0),
                                  kernel=rng.normal(size=(n, n)))]
        if takes_grid_kernels(stat_basis):
            ops.append(discrete_hilbert(stat_basis))
        f = VecFunction(rng.normal(size=(n, dim)), norm)
        for T in ops:
            got = truncate(T).apply(f).values[:, 0]
            want = _kernel_truncation_by_atoms(T, f)
            if stat_basis.interval:
                assert np.array_equal(got, want), T.name
            else:
                # the star sums of the relabelled basis are matrix products
                atol = 1e-12 * np.abs(f.values).max()
                assert np.allclose(got, want, rtol=1e-12, atol=atol), T.name

    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_equals_per_group_scatter(self, scatter_basis, dim, norm):
        basis = scatter_basis
        rng = np.random.default_rng(dim)
        n = basis.n_atoms
        ops = [_dense(sparse_operator(basis, rng.choice(basis.n_balls, 8))),
               _dense(identity_operator(basis)),
               OperatorDescriptor("dense", basis, Params.classical_profile(1.0),
                                  kernel=rng.normal(size=(n, n)))]
        if takes_grid_kernels(basis):
            ops += [discrete_hilbert(basis), riesz_potential(basis, 0.5)]
        if basis.dyadic_levels() is not None:
            ops.append(martingale_transform(
                basis, rng.integers(0, 2, size=basis.n_balls) * 2 - 1))
        f = VecFunction(rng.normal(size=(n, dim)), norm)
        for T in ops:
            assert np.array_equal(truncate(T).apply(f).values[:, 0],
                                  kernel_truncation_by_groups(T, f)), T.name


@st.composite
def truncation_bases(draw):
    """build_grid(2-48) over unit or random atom weights, build_dyadic(1-7),
    or random atom spans over 1 to 12 atoms of random weights with the
    first few listed twice, so that balls share a (lo, hi) and some atoms
    may lie in no ball."""
    kind = draw(st.sampled_from(["grid", "reweighted", "dyadic", "spans"]))
    if kind == "dyadic":
        return build_dyadic(draw(st.integers(1, 7)))
    if kind == "spans":
        return draw(span_bases())
    basis = build_grid(draw(st.integers(2, 48)))
    if kind == "grid":
        return basis
    return _reweighted(basis, draw(st.integers(0, 2 ** 32 - 1)))


class TestSpanIndexTruncation:
    """On interval bases a kernel truncation takes one star sum per distinct
    (atom, star span); it must equal, bitwise, the per-pair reference that
    takes one per (ball, member) pair."""

    @settings(max_examples=80, deadline=None)
    @given(basis=truncation_bases(), k=st.sampled_from([1, 4]),
           dim=st.sampled_from([1, 3]), norm=st.sampled_from(["euclidean", "max"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_pair_reference(self, basis, k, dim, norm, seed):
        rng = np.random.default_rng(seed)
        n = basis.n_atoms
        ops = [OperatorDescriptor("dense", basis, Params.classical_profile(1.0),
                                  kernel=rng.normal(size=(n, n)))]
        if takes_grid_kernels(basis):
            ops.append(discrete_hilbert(basis))
        stack = rng.normal(size=(k, n, dim))
        for T in ops:
            got = truncate(T).apply_stack(stack, norm)[..., 0]
            for row, f in zip(got, stack):
                want = kernel_truncation_by_groups(T, VecFunction(f, norm))
                assert np.array_equal(row, want), T.name
                assert np.array_equal(np.signbit(row), np.signbit(want)), T.name

    def test_first_apply_memory(self, rng):
        """The first truncated apply on build_grid(256) builds the span index
        (151,766 entries; the grid has 2,829,056 (ball, member) pairs) from
        the spans, block by block, and builds no pair index: with the star
        spans built before, its traced peak stays under 4 MiB, where the
        int64 keys of every pair at once take 22 MB."""
        basis = build_grid(256)
        basis.star_spans()
        star = truncate(discrete_hilbert(basis))
        f = VecFunction(rng.normal(size=basis.n_atoms))
        tracemalloc.start()
        try:
            star.apply(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis._span_index is not None and basis._pair_index is None
        assert peak < 4 << 20, peak


class TestStructuredOperators:
    """sparse_operator, identity_operator and zero_operator apply and
    truncate from their structure (ball list, T*f = 0); both must give what
    their dense kernel gives."""

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_equal_dense_kernel(self, scatter_basis, dim, norm, rho):
        basis = scatter_basis
        rng = np.random.default_rng(dim)
        ids = rng.choice(basis.n_balls, size=8, replace=True)
        ids = np.concatenate([ids, ids[:2]])  # repeated ids count twice
        f = VecFunction(rng.normal(size=(basis.n_atoms, dim)), norm)
        atol = 1e-12 * np.abs(f.values).max()
        for T in (sparse_operator(basis, ids, rho), identity_operator(basis),
                  zero_operator(basis)):
            dense = _dense(T)
            assert np.allclose(T.apply(f).values, dense.apply(f).values,
                               rtol=1e-12, atol=atol), T.name
            got = truncate(T).apply(f).values[:, 0]
            assert np.allclose(got, truncate(dense).apply(f).values[:, 0],
                               rtol=1e-12, atol=atol), T.name
            assert np.any(got > 0) == (T.name == "sparse_operator"), T.name

    @pytest.mark.parametrize("make", [lambda: _reweighted(build_grid(40), seed=7),
                                      lambda: _relabelled(build_dyadic(7), seed=5)[0]],
                             ids=["grid40_weighted", "dyadic7_relabelled"])
    def test_vanishing_truncations_exact(self, make, rng):
        """T*f of the identity and zero operators is exactly 0, where star
        sums of their kernels leave rounding residue."""
        basis = make()
        f = VecFunction(rng.normal(size=(basis.n_atoms, 2)))
        for T in (identity_operator(basis), zero_operator(basis)):
            assert np.array_equal(truncate(T).apply(f).values,
                                  np.zeros((basis.n_atoms, 1))), T.name


class TestRelabelledAtoms:
    """Permuting the atom labels of build_dyadic(7) makes every ball a
    non-interval; the results must be the relabelled interval-path results."""

    @pytest.fixture(scope="class")
    def bases(self):
        base = build_dyadic(7)
        relabelled, perm = _relabelled(base, seed=5)
        assert not relabelled.interval
        return base, relabelled, perm

    def test_maximal(self, bases, rng):
        base, relabelled, perm = bases
        f = rng.normal(size=(base.n_atoms, 1))
        g = np.empty_like(f)
        g[perm] = f
        p = Params.classical_profile(1.0)
        for kwargs in ({"p": p}, {"p": p, "mode": "sharp"}):
            want = maximal(VecFunction(f), base, **kwargs)
            got = maximal(VecFunction(g), relabelled, **kwargs)[perm]
            assert np.all(want > 0)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("op", ["sparse", "identity"])
    def test_truncated_sparse_operator(self, bases, rng, op, dim, norm):
        base, relabelled, perm = bases
        ids = rng.choice(base.n_balls, size=8, replace=False)
        make = {"sparse": lambda b: sparse_operator(b, ids),
                "identity": identity_operator}[op]
        f = rng.normal(size=(base.n_atoms, dim))
        g = np.empty_like(f)
        g[perm] = f
        want = _truncate_by_balls(make(base), VecFunction(f, norm))
        assert np.any(want > 0) == (op == "sparse")
        for basis, h, order in ((base, f, slice(None)), (relabelled, g, perm)):
            got = truncate(make(basis)).apply(VecFunction(h, norm)).values[order, 0]
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _dyadic_operators(basis, rng):
    """Every shipped constructor that takes a dyadic basis, conditional
    expectations at every level."""
    levels = basis.n_atoms.bit_length() - 1
    eps = rng.integers(0, 2, size=basis.n_balls) * 2 - 1
    ids = rng.choice(basis.n_balls, size=min(4, basis.n_balls), replace=False)
    return ([conditional_expectation(basis, k) for k in range(levels + 1)]
            + [martingale_transform(basis, eps), square_function(basis),
               sparse_operator(basis, ids), identity_operator(basis),
               zero_operator(basis)])


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("dim", [1, 3])
class TestTruncationByStructure:
    """truncate reads each operator's declared structure (kernel, square
    function, modulation family); every shipped constructor must give the
    per-ball definition."""

    @staticmethod
    def _check(ops, rng, dim, norm):
        for T in ops:
            f = VecFunction(rng.normal(size=(T.basis.n_atoms, dim)), norm)
            got = truncate(T).apply(f).values[:, 0]
            want = _truncate_by_balls(T, f)
            # where T(f 1_{X minus B*}) cancels to 0 exactly in the reference,
            # star sums leave rounding of the size of f
            atol = 1e-12 * np.abs(f.values).max()
            assert np.allclose(got, want, rtol=1e-12, atol=atol), T.name

    @pytest.mark.parametrize("levels", range(8))
    def test_dyadic_constructors(self, rng, dim, norm, levels):
        self._check(_dyadic_operators(build_dyadic(levels), rng), rng, dim, norm)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_grid_kernels(self, rng, dim, norm, n):
        g = build_grid(n)
        ops = [discrete_hilbert(g), riesz_potential(g, 0.5)]
        self._check(ops + [maximal_modulation(ops)], rng, dim, norm)

    @pytest.mark.parametrize("levels", [0, 3, 6])
    def test_expectation_family(self, rng, dim, norm, levels):
        b = build_dyadic(levels)
        fam = [conditional_expectation(b, k) for k in range(levels + 1)]
        self._check([maximal_modulation(fam)], rng, dim, norm)

    def test_star_above_parent(self, rng, dim, norm):
        # uneven weights: some stars are the ball itself or a grandparent
        base = build_dyadic(6)
        space = MeasureSpace(np.random.default_rng(3).uniform(0.05, 3.0, 64) ** 3)
        balls = [Ball(b.id, b.members, space.measure(b.members))
                 for b in base.balls]
        b = BallBasis(space, balls, base.hull, K=base.K, eta=base.eta)
        sizes = [len(b.star_members(i)) for i in range(1, b.n_balls)]
        assert sizes != [2 * len(b.balls[i].members) for i in range(1, b.n_balls)]
        ops = _dyadic_operators(b, rng)
        self._check(ops + [maximal_modulation(ops[:3])], rng, dim, norm)


class TestTruncationCost:
    def test_apply_calls(self, monkeypatch, dyadic8, rng):
        """truncate(T).apply calls OperatorDescriptor.apply at most once per
        member of T, plus its own call."""
        calls = []
        orig = OperatorDescriptor.apply
        monkeypatch.setattr(OperatorDescriptor, "apply",
                            lambda self, f: calls.append(self) or orig(self, f))
        fam = [conditional_expectation(dyadic8, k) for k in range(9)]
        f = VecFunction(rng.normal(size=256))
        for T, members in ((square_function(dyadic8), 1),
                           (martingale_transform(dyadic8, np.ones(511)), 1),
                           (maximal_modulation(fam), len(fam))):
            star = truncate(T)
            calls.clear()
            star.apply(f)
            assert len(calls) <= members + 1, T.name

    def test_truncated_apply_memory(self, dyadic10, rng):
        """A truncated kernel apply builds the star-sum prefix rows block by
        block: on 1,024 atoms its traced peak stays under 1 MB, where one
        n x (n+1) prefix array alone is 8.4 MB."""
        star = truncate(martingale_transform(dyadic10, np.ones(dyadic10.n_balls)))
        f = VecFunction(rng.normal(size=dyadic10.n_atoms))
        star.apply(f)  # the per-basis indexes are built once, outside the trace
        tracemalloc.start()
        try:
            star.apply(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stacked_truncated_apply_memory(self, dyadic10, rng):
        """Twelve rows truncated in one call share each block of prefix rows:
        on 1,024 atoms the traced peak still stays under 1 MB."""
        star = truncate(martingale_transform(dyadic10, np.ones(dyadic10.n_balls)))
        stack = rng.normal(size=(12, dyadic10.n_atoms, 1))
        star.apply_stack(stack, "euclidean")  # indexes built outside the trace
        tracemalloc.start()
        try:
            star.apply_stack(stack, "euclidean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_sparse_apply_memory(self, rng):
        """A truncated sparse operator reads its star sums from the stars'
        atom lists: on build_dyadic(10) with relabelled atoms (no ball an
        interval) its traced peak stays under 1 MB, where the star-masked
        kernel products took 17 MB."""
        basis = _relabelled(build_dyadic(10), seed=5)[0]
        star = truncate(sparse_operator(basis, rng.choice(basis.n_balls, 8)))
        f = VecFunction(rng.normal(size=basis.n_atoms))
        star.apply(f)  # the per-basis and per-operator indexes, outside the trace
        tracemalloc.start()
        try:
            star.apply(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_apply_only_rejected(self, dyadic3):
        T = OperatorDescriptor("apply_only", dyadic3,
                               Params.classical_profile(1.0),
                               apply_fn=lambda stack, norm_kind: stack)
        with pytest.raises(ValueError):
            truncate(T)
        with pytest.raises(ValueError):
            truncate(maximal_modulation([identity_operator(dyadic3), T]))


def _shipped_operators(basis, seed):
    """One operator of every kind a config may name (ek_maximal among them)
    that accepts basis, built as the CLI builds it."""
    ops = []
    for kind in cli._OP_DEFAULTS:
        try:
            ops.append(cli.build_operator({"kind": kind}, basis, seed))
        except ConfigError:
            pass
    return ops


def _stack_cases(basis):
    """Every shipped kind on basis, a modulation of two of them, and the
    truncation of each."""
    ops = _shipped_operators(basis, 0)
    ops.append(maximal_modulation(ops[:2]))
    return ops + [truncate(T) for T in ops]


class TestStackedApply:
    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("make", [lambda: build_dyadic(8), lambda: build_grid(64)],
                             ids=["dyadic8", "grid64"])
    def test_rows_equal_single_applies(self, make, dim, norm):
        """Each row of a stacked apply is bitwise the apply of that row
        alone (a (atoms, k) matrix product instead of one matrix-vector
        product per row breaks this)."""
        basis = make()
        rng = np.random.default_rng(dim)
        stack = rng.normal(size=(5, basis.n_atoms, dim))
        ops = _stack_cases(basis)
        # seven shipped kinds take a dyadic basis and five a grid, each with
        # its truncation and a modulation of two
        assert len(ops) == (16 if basis.dyadic_levels() is not None else 12)
        for T in ops:
            got = T.apply_stack(stack, norm)
            assert got.shape[0] == len(stack), T.name
            for row, v in zip(got, stack):
                assert np.array_equal(row, T.apply(VecFunction(v, norm)).values), T.name


    @pytest.mark.parametrize("make", [
        lambda: build_dyadic(10), lambda: build_grid(64),
        lambda: _relabelled(build_dyadic(7), seed=5)[0]],
        ids=["dyadic10", "grid64", "dyadic7_relabelled"])
    def test_twelve_truncated_rows(self, make):
        """A 12-row truncated apply spans many blocks of prefix rows (on
        build_dyadic(10) each block is one atom); each row must still be
        bitwise the truncation of that row alone."""
        basis = make()
        rng = np.random.default_rng(12)
        if takes_grid_kernels(basis):
            ops = [discrete_hilbert(basis), riesz_potential(basis, 0.5)]
        elif basis.interval:
            ops = [martingale_transform(basis, np.ones(basis.n_balls)),
                   square_function(basis)]
        else:
            # a plain kernel takes the star-masked products of non-interval bases
            ops = [_dense(sparse_operator(basis, rng.choice(basis.n_balls, 8)))]
        ops.append(sparse_operator(basis, rng.choice(basis.n_balls, 8)))
        for dim in (1, 2):
            stack = rng.normal(size=(12, basis.n_atoms, dim))
            for T in map(truncate, ops):
                got = T.apply_stack(stack, "euclidean")
                assert got.shape == (12, basis.n_atoms, 1), T.name
                for row, v in zip(got, stack):
                    assert np.array_equal(row, T.apply(VecFunction(v)).values), T.name


class TestEstimateByStacks:
    """estimate_bo_constants applies T to stacks of suite functions and of
    delta candidates; the constants and witnesses must be those of one apply
    per function (conftest.estimate_by_loop)."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("budget", [1, 8])
    def test_equals_one_apply_per_function(self, stat_basis, budget, seed):
        ops = _shipped_operators(stat_basis, seed)
        assert {"sparse_operator", "identity", "zero"} <= {T.name for T in ops}
        for T in ops:
            assert estimate_bo_constants(T, budget, seed) == estimate_by_loop(
                T, budget, seed), T.name

    def test_non_classical_powers(self, grid16):
        # the kernels of TestLocalizationPass.test_non_classical_powers, whose
        # denominators round differently under numpy's array **
        rng = np.random.default_rng(11)
        for seed in range(30):
            kernel = rng.normal(size=(16, 16))
            for p in (Params(r=2.0, rho=0.5, varrho=0.5),
                      Params(r=1.5, rho=0.3, varrho=0.9)):
                T = OperatorDescriptor("kernel", grid16, p, kernel=kernel)
                assert estimate_bo_constants(T, 4, seed) == estimate_by_loop(T, 4, seed)

    @pytest.mark.parametrize("layout", ["grid-hilbert", "dyadic-martingale",
                                        "dyadic-permuted"])
    def test_benchmark_layouts(self, layout):
        """The report bundles carry no witnesses, so the benchmark layouts
        pin them here: the shipped configs' bases and operators, and
        build_dyadic(9) relabelled by seed 0 with the sparse and identity
        operators."""
        if layout == "dyadic-permuted":
            basis = _relabelled(build_dyadic(9), 0)[0]
            specs = [{"kind": "sparse"}, {"kind": "identity"}]
        else:
            cfg = cli.load_config(str(Path(__file__).parents[1] / "configs"
                                      / f"{layout}.json"))
            basis, specs = cli.build_basis(cfg), cfg["operators"]
        for spec in specs:
            T = cli.build_operator(spec, basis, 0)
            assert estimate_bo_constants(T, 8, 0) == estimate_by_loop(T, 8, 0), T.name

    @pytest.mark.parametrize("kind,make", [("martingale_transform", lambda: build_dyadic(8)),
                                           ("square_function", lambda: build_dyadic(8)),
                                           ("discrete_hilbert", lambda: build_grid(64))])
    def test_stacked_applies(self, monkeypatch, kind, make):
        """At most two stacked applies per sampled ball (L0 and the
        Monte-Carlo L1 pass), one for R5, and per delta call one for every
        len(suite) of its candidates (a delta per atom of B* minus A* and 20
        random functions); no stack wider than the suite."""
        basis = make()
        T = cli.build_operator({"kind": kind}, basis, 0)
        widths, deltas = [], []
        orig_apply, orig_delta = OperatorDescriptor.apply_stack, operators.delta
        monkeypatch.setattr(OperatorDescriptor, "apply_stack", lambda self, stack, nk: (
            self is T and widths.append(len(stack))) or orig_apply(self, stack, nk))
        monkeypatch.setattr(operators, "delta", lambda *args, **kw: (
            deltas.append(args[1:3])) or orig_delta(*args, **kw))
        estimate_bo_constants(T, budget=8, seed=0)
        rows = len(structured_suite(basis, 8, 0))
        support = [np.setdiff1d(basis.star_members(b), basis.star_members(a)).size
                   for a, b in deltas]
        bound = (2 * len(_sample_ball_ids(basis, 16, 0)) + 1
                 + sum(math.ceil((s + 20) / rows) for s in support))
        assert len(deltas) > 0
        assert 0 < len(widths) <= bound
        assert max(widths) <= rows

    def test_star_members_per_sampled_ball(self, monkeypatch):
        """The exact L1/R4 pass reads the star spans one size group at a
        time, so on build_grid(64) only the sampled balls' passes call
        star_members (a ball-by-ball exact pass calls it for each of the
        2,080 balls)."""
        basis = build_grid(64)
        T = discrete_hilbert(basis)
        calls = []
        orig = BallBasis.star_members
        monkeypatch.setattr(BallBasis, "star_members", lambda self, b: (
            calls.append(b)) or orig(self, b))
        estimate_bo_constants(T, budget=8, seed=0)
        assert 0 < len(calls) <= 3 * len(_sample_ball_ids(basis, 16, 0))


@st.composite
def kernel_block_cases(draw):
    """(basis, operators): build_grid(2-40), build_dyadic(0-6), a reweighted
    grid, or a grid or dyadic basis with its atoms relabelled (no ball an
    interval); with every shipped linear operator that accepts it, the
    conditional expectations at every level and sparse operators with
    repeated ids at rho 1 and 1/2."""
    kind = draw(st.sampled_from(["grid", "dyadic", "reweighted", "relabelled"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "dyadic":
        basis = build_dyadic(draw(st.integers(0, 6)))
    else:
        basis = build_grid(draw(st.integers(2, 40)))
        if kind == "reweighted":
            basis = _reweighted(basis, seed)
        elif kind == "relabelled":
            if draw(st.booleans()):
                basis = build_dyadic(draw(st.integers(2, 6)))
            basis = _relabelled(basis, seed)[0]
    rng = np.random.default_rng(seed)
    ids = rng.choice(basis.n_balls, size=draw(st.integers(1, 6)))
    ops = [T for T in _shipped_operators(basis, seed) if T.linear]
    ops += [sparse_operator(basis, np.concatenate([ids, ids[:2]]), rho)
            for rho in (1.0, 0.5)]
    for level in range(1, basis.n_atoms.bit_length()):
        try:
            ops.append(conditional_expectation(basis, level))
        except ValueError:
            break
    return basis, ops


def _bitwise_equal(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


class TestKernelBlock:
    """kernel_block is the only way the exact passes read a kernel; every
    shipped linear operator's blocks must equal bitwise the entries of its
    dense kernel (conftest.dense_kernel)."""

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_block_cases(), data=st.data())
    def test_equals_dense_kernel(self, case, data):
        basis, ops = case
        n = basis.n_atoms
        index_sets = st.lists(st.integers(0, n - 1), max_size=2 * n).map(
            lambda v: np.array(v, dtype=np.intp))
        # empty, repeated and unsorted sets, and drawn ones
        sets = [np.array([], dtype=np.intp), np.array([n - 1, 0, n - 1, 0]),
                np.arange(n)[::-1].copy(), data.draw(index_sets), data.draw(index_sets)]
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        stack = np.random.default_rng(n).integers(0, n, size=(3, 2))
        assert [T.name for T in ops if T.kernel is None] == [
            T.name for T in ops if T.name in ("sparse_operator", "identity", "zero")]
        for T in ops:
            dense = dense_kernel(T)
            assert dense.shape == (n, n), T.name
            # whole rows: a slab, a stack of atom sets (as the size groups
            # pass them) and each index set
            for rows in [slice(lo, hi), stack] + sets:
                assert _bitwise_equal(T.kernel_block(rows), dense[rows]), T.name
            for rows in sets:
                for cols in sets:
                    assert _bitwise_equal(T.kernel_block(rows, cols),
                                          dense[np.ix_(rows, cols)]), T.name

    def test_linear_and_restricted(self, dyadic4, grid16):
        """Every kind a config may name keeps its declared linearity."""
        want = {"martingale_transform": (True, True), "cond_exp[0]": (True, True),
                "square_function": (False, False), "modulation[5]": (False, False),
                "discrete_hilbert": (True, True), "riesz[0.5]": (True, False),
                "sparse_operator": (True, True), "identity": (True, True),
                "zero": (True, True)}
        got = {T.name: (T.linear, T.restricted)
               for basis in (dyadic4, grid16) for T in _shipped_operators(basis, 0)}
        assert got == want
        assert sparse_operator(dyadic4, [1, 2], rho=0.5).restricted is False

    @pytest.mark.parametrize("make", [identity_operator, zero_operator,
                                      lambda b: sparse_operator(b, np.arange(0, b.n_balls, 97))],
                             ids=["identity", "zero", "sparse"])
    def test_structural_kernels_build_no_dense_array(self, dyadic10, make):
        """The zero, identity and sparse operators declare their kernels by
        structure: built on 1,024 atoms each traces under 1 MiB, where an
        n x n kernel alone is 8 MiB."""
        tracemalloc.start()
        try:
            T = make(dyadic10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.kernel is None and T.linear
        assert peak < 1 << 20, peak


@st.composite
def repeated_span_bases(draw):
    """Random atom spans over 1 to 16 atoms of random weights, some listed
    twice, with a ball of every atom appended or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 16))
    space = MeasureSpace(rng.uniform(0.5, 2.0, n))
    spans = np.sort(rng.integers(0, n, size=(draw(st.integers(1, 20)), 2)), axis=1)
    full = np.array([[0, n - 1]] * draw(st.integers(0, 1)), dtype=np.int64)
    spans = np.concatenate([spans, spans[:draw(st.integers(0, 4))], full.reshape(-1, 2)])
    balls = [Ball(i, np.arange(lo, hi + 1), space.measure(np.arange(lo, hi + 1)))
             for i, (lo, hi) in enumerate(spans)]
    return BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)


class TestExactLocalizationPass:
    """The exact L1/R4 pass by size group against the ball-by-ball scan of
    conftest.estimate_by_loop."""

    @settings(max_examples=100, deadline=None)
    @given(basis=repeated_span_bases(), seed=st.integers(0, 2 ** 32 - 1),
           zeroed=st.integers(0, 3))
    def test_equals_ball_by_ball_scan(self, basis, seed, zeroed):
        # small integer entries and zeroed blocks make equal ratios within a
        # row, and repeated spans equal rows of distinct balls
        rng = np.random.default_rng(seed)
        n = basis.n_atoms
        kernel = rng.integers(-3, 4, size=(n, n)).astype(float)
        for _ in range(zeroed):
            r = np.sort(rng.integers(0, n, size=2))
            c = np.sort(rng.integers(0, n, size=2))
            kernel[r[0]:r[1] + 1, c[0]:c[1] + 1] = 0.0
        T = OperatorDescriptor("kernel", basis, Params.classical_profile(1.0),
                               kernel=kernel)
        with pytest.MonkeyPatch.context() as mp:
            if basis.sizes.max() < n:
                # no exhausting sequence without a ball of every atom: R5 is
                # probed on the widest ball, and the distances to atoms no
                # ball shares with B are inf, so a ratio 0 * inf makes a NaN
                # row, which the scan never takes
                mp.setattr("ballbasis.space.exhausting_sequence", lambda b: [
                    int(np.argmax(b.sizes))])
            with np.errstate(invalid="ignore"):
                got = estimate_bo_constants(T, 2, seed % 7)
                assert got == estimate_by_loop(T, 2, seed % 7)
        assert got.method == "exact_linear_r1"

    def test_estimate_memory(self):
        """Each block of the exact pass gathers its own distance rows from
        the cover table: the martingale estimate on a fresh build_dyadic(10)
        (1,024 atoms, 2,047 balls) traces under 16 MiB, the 8 MiB cover table
        included, where the full distance matrix alone takes 16 MiB."""
        basis = build_dyadic(10)
        T = martingale_transform(basis, np.random.default_rng(0).choice(
            [-1.0, 1.0], basis.n_balls))
        tracemalloc.start()
        try:
            got = estimate_bo_constants(T, budget=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.method == "exact_linear_r1"
        assert peak < 16 << 20, peak


# (r, rho, varrho) of the bound tests: the classical profile, the powers of
# test_non_classical_powers, and a varrho so small that a bound on a sum
# moves its power by less than numpy's array ** rounds it apart from the
# scalar power, so BOUND_MARGIN decides
BOUND_PARAMS = [Params.classical_profile(1.0), Params(r=2.0, rho=0.5, varrho=0.5),
                Params(r=1.5, rho=0.3, varrho=0.9), Params(r=1.0, rho=1e-4, varrho=1e-4)]


def _bound_masses(rng, basis, kind, k):
    """(k, n) nonnegative masses: "log" over 2**-30 .. 2**30, "integer" in
    0 .. 3 (exact ties), "suite" |normal|**2 times the atom weights, and
    "even" 1, 2 or 3 times the weights per row, whose averages over the
    supersets tie up to rounding; up to 90% of the entries and about a
    third of the rows zero."""
    n = basis.n_atoms
    w = basis.space.weights
    mass = {"log": lambda: 2.0 ** rng.uniform(-30, 30, (k, n)),
            "integer": lambda: rng.integers(0, 4, (k, n)).astype(float),
            "suite": lambda: rng.normal(size=(k, n)) ** 2 * w,
            "even": lambda: rng.integers(1, 4, (k, 1)) * w}[kind]()
    mass[rng.random((k, n)) < rng.choice([0.0, 0.5, 0.9])] = 0.0
    mass[rng.random(k) < 0.3] = 0.0
    return mass


class TestBoundThenConfirm:
    """The Monte-Carlo L1 pass sums exactly over the supersets whose bounds
    may hold a row's L1 or R4 max; its denominators, and the constants, must
    equal bitwise those of the sums over every superset."""

    @settings(max_examples=200, deadline=None)
    # even masses at varrho 1e-4: supersets whose values tie up to an ulp,
    # where numpy's array ** (on x86-64 with numpy 2.4) rounds a bound past
    # the scalar power of the exact value, so only BOUND_MARGIN keeps the
    # argmax
    @example(seed=90, weights="uniform", kind="even", k=6, p=BOUND_PARAMS[3],
             off_star=False)
    @given(seed=st.integers(0, 2 ** 32 - 1), weights=st.sampled_from(BOUND_WEIGHT_KINDS),
           kind=st.sampled_from(["log", "integer", "suite", "even"]),
           k=st.integers(1, 6), p=st.sampled_from(BOUND_PARAMS), off_star=st.booleans())
    def test_denominators_equal_gather(self, seed, weights, kind, k, p, off_star):
        rng = np.random.default_rng(seed)
        basis = weighted_interval_basis(rng, weights)
        bid = int(rng.integers(basis.n_balls))
        mass = _bound_masses(rng, basis, kind, k)
        if off_star:  # as the pass takes them: 0 on the ball's star
            mass[:, basis.star_members(bid)] = 0.0
        mu_rho = operators._power(basis.mu, -p.rho)
        # a relabelled copy, whose balls sum their atoms in another order,
        # takes the sums over every superset
        relabelled, perm = _relabelled(basis, seed=int(rng.integers(100)))
        on_relabelled = np.empty_like(mass)
        on_relabelled[:, perm] = mass
        for b, m in ((basis, mass), (relabelled, on_relabelled)):
            want = superset_denominators_by_gather(b, bid, m, p.varrho, mu_rho)
            got = operators._superset_denominators(b, bid, b.supersets(bid), m, p.varrho,
                                                   mu_rho)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            # the full ball holds every atom: a row is 0 where its mass is
            assert (got[0] == 0).tolist() == (~m.any(axis=1)).tolist()

    @settings(max_examples=40, deadline=None)
    @given(data=weighted_interval_bases(), p=st.sampled_from(BOUND_PARAMS),
           which=st.sampled_from(["kernel", "integer_kernel", "sparse", "identity"]),
           seed=st.integers(0, 6))
    def test_estimate_equals_loop(self, data, p, which, seed):
        basis, rng = data
        n = basis.n_atoms
        if which == "sparse":
            T = sparse_operator(basis, rng.choice(basis.n_balls, 4))
        elif which == "identity":
            T = identity_operator(basis)
        else:
            kernel = (rng.integers(-2, 3, size=(n, n)).astype(float)
                      if which == "integer_kernel" else rng.normal(size=(n, n)))
            T = OperatorDescriptor("kernel", basis, p, kernel=kernel)
        assert estimate_bo_constants(T, 2, seed) == estimate_by_loop(T, 2, seed)

    def test_approx_sums_within_err(self):
        """Prefix differences lie within err of the sums over the members,
        also where a row total dwarfs the sums (261 of the 528 spans of
        build_grid(32) under these weights round off the exact sum)."""
        rng = np.random.default_rng(3)
        basis = _with_weights(build_grid(32), bound_weights(rng, 32, "log"))
        mass = 2.0 ** rng.uniform(-30, 30, (4, 32))
        ids = np.arange(basis.n_balls)
        sums, err = basis.approx_ball_sums(mass, ids)
        exact = np.stack([[mass[r, basis.members(i)].sum() for i in ids]
                          for r in range(4)])
        assert np.all(np.abs(sums - exact) <= err[:, None])
        assert np.count_nonzero(sums != exact) > 0
        assert _relabelled(basis, 0)[0].approx_ball_sums(mass, ids) is None

    def test_label_says_which_pass_ran(self):
        """The exact L1/R4 pass runs on interval bases only; on a relabelled
        basis the identity's L1 comes from the Monte-Carlo pass, and the
        label says so (it once read exact_linear_r1 there too)."""
        basis = build_dyadic(5)
        relabelled = _relabelled(basis, seed=2)[0]
        assert identity_operator(basis).bo_constants(4, 0).method == "exact_linear_r1"
        for T in (identity_operator(relabelled),
                  sparse_operator(relabelled, np.arange(0, relabelled.n_balls, 5))):
            got = estimate_bo_constants(T, 4, 0)
            assert got.method == "monte_carlo", T.name
            assert got == estimate_by_loop(T, 4, 0)


# Outside operators.py nothing builds a descriptor or reads its structure
# (kernel, apply_fn, truncate_fn).
STRUCTURE_READS = []


def test_structure_reads_stay_in_operators():
    reads = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "operators.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            where = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "OperatorDescriptor"):
                    reads.append(where + ("OperatorDescriptor()",))
                elif isinstance(node, ast.Attribute) and node.attr in (
                        "kernel", "_apply_fn", "_truncate_fn"):
                    reads.append(where + (node.attr,))
                elif isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if (any(getattr(x, "attr", None) == "kernel" for x in sides)
                            and any(isinstance(x, ast.Constant) and x.value is None
                                    for x in sides)):
                        reads.append(where + ("kernel vs None",))
    assert sorted(reads) == STRUCTURE_READS
