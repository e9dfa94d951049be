import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballbasis import (Ball, BallBasis, EmptySet, MeasureSpace, Params,
                       RegularityViolation, VecFunction, alpha_core,
                       alpha_oscillation, average, bmo_norm, build_dyadic,
                       build_grid, build_regular_family, general_maximal,
                       maximal, median, sharp_all, sup_sharp_all)
from ballbasis import functional
from ballbasis.functional import (TAIL_LEVELS, _power, ball_averages_all,
                                  ball_medians, level_tail, max_candidates,
                                  mean_oscillation, medians, sharp_all_stack,
                                  vector_norms)
from ballbasis.space import BLOCK_ELEMS
from conftest import (alpha_core_by_loop, alpha_oscillation_by_loop,
                      ball_medians_by_groups, level_tail_by_mask, median_by_loop,
                      tied_values)

CLASSICAL = Params.classical_profile(1.0)


def _norms(vals, norm_kind):
    if norm_kind == "euclidean":
        return np.linalg.norm(vals, axis=1)
    return np.abs(vals).max(axis=1)


def _sharp_all_by_balls(f, basis, r):
    """<f>_{#,B} by a Python loop over the balls, slicing interval balls:
    the reference the size-grouped sharp_all must equal bitwise."""
    w = basis.space.weights
    out = np.empty(basis.n_balls)
    for i in range(basis.n_balls):
        if basis.interval:
            sl = slice(int(basis.lo[i]), int(basis.hi[i]) + 1)
            vals, ww = f.values[sl], w[sl]
        else:
            members = basis.balls[i].members
            vals, ww = f.values[members], w[members]
        mu = ww.sum()
        d = _norms(vals - (vals * ww[:, None]).sum(axis=0) / mu, f.norm_kind)
        out[i] = ((d ** r * ww).sum() / mu) ** (1.0 / r)
    return out


def _scatter_by_balls(basis, vals, out, ufunc=np.maximum):
    """out[x] = ufunc(out[x], vals[B]) over the balls B containing x, one
    ball at a time: the reference for BallBasis.containing_reduce."""
    for b in basis.balls:
        out[b.members] = ufunc(out[b.members], vals[b.id])
    return out


def _sup_sharp_by_recursion(f, basis, r):
    """The removed sup_sharp mode of mean_oscillation, per ball: the max of
    the sharp mean over every ball containing the ball (each ball's sharp
    mean computed once)."""
    sharp = [mean_oscillation(f, b.members, r, basis=basis) for b in basis.balls]
    return np.array([max(sharp[j] for j in basis.supersets(b.id))
                     for b in basis.balls])


def _oscillation(f, members):
    """OSC_E(f), the largest distance between two values of f on E, by a
    loop over the pairs: the reference for alpha_core and median."""
    vals = f.values[np.unique(members)]
    return max((float(vector_norms(vals[i + 1:] - vals[i], f.norm_kind).max())
                for i in range(len(vals) - 1)), default=0.0)


def _cover_measure_table_by_lo(basis):
    """The removed per-lo loop: for each a, the least measure per hi among
    balls with lo <= a, then its suffix minimum over hi >= b."""
    n = basis.n_atoms
    table = np.full((n, n), np.inf)
    m_hi = np.full(n, np.inf)
    for a in range(n):
        for i in np.flatnonzero(basis.lo == a):
            m_hi[basis.hi[i]] = min(m_hi[basis.hi[i]], basis.mu[i])
        table[a] = np.minimum.accumulate(m_hi[::-1])[::-1]
    return table


def indicator(n, atoms):
    v = np.zeros(n)
    v[list(atoms)] = 1.0
    return VecFunction(v)


class TestAverage:
    def test_mass_counting(self, dyadic3):
        f = indicator(8, [0])
        full = dyadic3.full_ball_id()
        got = average(f, dyadic3.balls[full].members, CLASSICAL, basis=dyadic3)
        assert got == pytest.approx(0.125)

    def test_constant_invariance(self, dyadic3):
        f = VecFunction(np.full(8, 3.5))
        for b in dyadic3.balls:
            got = average(f, b.members, CLASSICAL, basis=dyadic3)
            assert got == pytest.approx(3.5)

    def test_empty(self, dyadic3):
        with pytest.raises(EmptySet):
            average(VecFunction(np.ones(8)), [], CLASSICAL, basis=dyadic3)

    def test_scaling(self, dyadic3, rng):
        f = VecFunction(rng.normal(size=8))
        g = VecFunction(3.0 * f.values)
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        a = average(f, full, CLASSICAL, basis=dyadic3)
        b = average(g, full, CLASSICAL, basis=dyadic3)
        assert b == pytest.approx(3.0 * a)


class TestOscillationReference:
    def test_constant(self):
        assert _oscillation(VecFunction(np.ones(4)), [0, 1, 2, 3]) == 0.0

    def test_scalar_values(self):
        f = VecFunction(np.array([1.0, 1.0, 5.0]))
        assert _oscillation(f, [0, 1, 2]) == 4.0
        assert _oscillation(f, [2]) == 0.0

    def test_euclidean_pair(self):
        f = VecFunction(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert _oscillation(f, [0, 1]) == 5.0

    def test_osc_le_two_sup(self, rng):
        f = VecFunction(rng.normal(size=(16, 2)))
        assert _oscillation(f, list(range(16))) <= 2 * f.norms().max() + 1e-12


class TestMeanOscillation:
    def test_constant(self, dyadic3):
        f = VecFunction(np.full(8, 2.0))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        assert mean_oscillation(f, full, 1.0, basis=dyadic3) == 0.0

    def test_two_atoms(self):
        b = build_dyadic(1)
        f = VecFunction(np.array([0.0, 1.0]))
        got = mean_oscillation(f, [0, 1], 1.0, basis=b)
        assert got == pytest.approx(0.5)

    def test_half_ball_average_gap(self, dyadic4, rng):
        # |f_A - f_B| <= (mu(B)/mu(A))^(1/r) * sharp(B) for A half of B
        f = VecFunction(rng.normal(size=16))
        w = dyadic4.space.weights
        for r in (1.0, 2.0):
            for b in dyadic4.balls:
                if len(b.members) < 2:
                    continue
                half = b.members[: len(b.members) // 2]
                fa, fb = (float(f.values[m, 0] @ w[m] / w[m].sum())
                          for m in (half, b.members))
                sharp = mean_oscillation(f, b.members, r, basis=dyadic4)
                ratio = (dyadic4.measure(b.members) / dyadic4.measure(half))
                assert abs(fa - fb) <= ratio ** (1.0 / r) * sharp + 1e-12


class TestAlphaOscillation:
    def test_constant(self, dyadic3):
        f = VecFunction(np.ones(8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        for a in (0.1, 0.5, 0.9):
            assert alpha_oscillation(f, full, a, dyadic3) == 0.0

    def test_outlier_dropped(self):
        b = build_dyadic(2)
        f = VecFunction(np.array([1.0, 1.0, 1.0, 5.0]))
        assert alpha_oscillation(f, [0, 1, 2, 3], 0.5, b) == 0.0

    def test_outlier_forced(self):
        b = build_dyadic(2)
        f = VecFunction(np.array([1.0, 1.0, 1.0, 5.0]))
        assert alpha_oscillation(f, [0, 1, 2, 3], 0.8, b) == 4.0

    def test_monotone_in_alpha(self, dyadic3, rng):
        f = VecFunction(rng.normal(size=8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        vals = [alpha_oscillation(f, full, a, dyadic3)
                for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
           st.floats(0.05, 0.95))
    def test_fast_path_matches_oracle(self, vals, alpha):
        b = build_dyadic(3)
        padded = vals + [0.0] * (8 - len(vals))
        f = VecFunction(np.array(padded))
        members = list(range(len(vals)))
        fast = alpha_oscillation(f, members, alpha, b)
        slow = alpha_oscillation(f, members, alpha, b, method="exhaustive")
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_scaling(self, dyadic3, rng):
        f = VecFunction(rng.normal(size=8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        a = alpha_oscillation(f, full, 0.6, dyadic3)
        g = VecFunction(-2.0 * f.values)
        assert alpha_oscillation(g, full, 0.6, dyadic3) == pytest.approx(2 * a)

    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    def test_oracle_distance_is_vector_norm(self, norm_kind):
        # only the pair has mass > 0.6 mu(B): its oscillation is the distance
        # of the two values, in the norm every other statistic uses
        b = build_dyadic(1)
        rng = np.random.default_rng(0)
        for dim in range(2, 9):
            for _ in range(20):
                vals = rng.normal(size=(2, dim))
                got = alpha_oscillation(VecFunction(vals, norm_kind), [0, 1], 0.6, b)
                assert got == vector_norms(vals[0] - vals[1], norm_kind)


class TestAlphaCore:
    def test_core_achieves_oscillation(self, dyadic3, rng):
        f = VecFunction(rng.normal(size=8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        atoms, osc = alpha_core(f, full, 0.6, dyadic3)
        assert dyadic3.measure(atoms) > 0.6
        assert _oscillation(f, atoms) <= osc + 1e-12

    def test_slack_grows_mass(self, dyadic3, rng):
        f = VecFunction(rng.normal(size=8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        tight, osc = alpha_core(f, full, 0.6, dyadic3, slack=1.0)
        fat, _ = alpha_core(f, full, 0.6, dyadic3, slack=2.0)
        assert dyadic3.measure(fat) >= dyadic3.measure(tight)
        assert _oscillation(f, fat) <= 2.0 * osc + 1e-12

    def test_bad_slack(self, dyadic3):
        with pytest.raises(ValueError):
            alpha_core(VecFunction(np.ones(8)), [0, 1], 0.5, dyadic3, slack=0.5)


class TestMedian:
    def test_constant(self, dyadic3):
        f = VecFunction(np.full(8, 7.0))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        med, rep = median(f, full, dyadic3)
        assert list(med) == list(full)
        assert rep[0] == 7.0

    def test_outlier_excluded(self):
        b = build_dyadic(2)
        f = VecFunction(np.array([1.0, 1.0, 1.0, 5.0]))
        med, rep = median(f, [0, 1, 2, 3], b)
        assert list(med) == [0, 1, 2]
        assert rep[0] == 1.0

    def test_two_point_split(self):
        b = build_dyadic(1)
        f = VecFunction(np.array([0.0, 10.0]))
        med, _ = median(f, [0, 1], b)
        assert list(med) == [0, 1]

    def test_median_oscillation_bound(self, dyadic3, rng):
        # OSC over the median core stays within 4x the half-oscillation
        f = VecFunction(rng.normal(size=8))
        full = dyadic3.balls[dyadic3.full_ball_id()].members
        med, _ = median(f, full, dyadic3)
        assert _oscillation(f, med) <= 4.0 * alpha_oscillation(f, full, 0.5, dyadic3) + 1e-12


class TestSortedWindows:
    """The sorted-window queries against the scalar two-pointer loops, on
    every ball: bitwise equal, ties in f included."""

    @staticmethod
    def _functions(basis):
        rng = np.random.default_rng(11)
        return [VecFunction(rng.lognormal(size=basis.n_atoms)),
                VecFunction(rng.integers(0, 4, size=basis.n_atoms).astype(float))]

    def test_alpha_oscillation_and_core(self, stat_basis):
        w = stat_basis.space.weights
        for f in self._functions(stat_basis):
            for b in stat_basis.balls:
                m = b.members
                for alpha in (0.1, 0.5, 0.75, 0.9):
                    osc = alpha_oscillation(f, m, alpha, stat_basis)
                    assert osc == alpha_oscillation_by_loop(f, m, w[m], alpha)
                for slack in (1.0, 2.0):
                    atoms, osc = alpha_core(f, m, 0.75, stat_basis, slack=slack)
                    want, want_osc = alpha_core_by_loop(f, m, w[m], 0.75, slack)
                    assert np.array_equal(atoms, want) and osc == want_osc

    def test_median_per_ball_and_stacked(self, stat_basis):
        w = stat_basis.space.weights
        for f in self._functions(stat_basis):
            for ids, idx in stat_basis.size_groups():
                cores, reps = medians(f, idx, stat_basis, "auto")
                for k, i in enumerate(ids):
                    m = stat_basis.balls[i].members
                    want, want_rep = median_by_loop(f, m, w[m])
                    med, rep = median(f, m, stat_basis)
                    assert np.array_equal(med, want) and np.array_equal(rep, want_rep)
                    assert np.array_equal(idx[k][cores[k]], want)
                    assert np.array_equal(reps[k], want_rep)


    def test_ball_medians_equal_per_group_calls(self, stat_basis):
        """The padded blocks of size groups give every representative of
        the per-group calls bitwise, and of the two-pointer loop."""
        w = stat_basis.space.weights
        tied = VecFunction(tied_values(stat_basis.n_atoms, 2))
        for f in self._functions(stat_basis) + [tied]:
            got = ball_medians(f, stat_basis)
            assert np.array_equal(got, ball_medians_by_groups(f, stat_basis))
            for b in stat_basis.balls[::17]:
                want = median_by_loop(f, b.members, w[b.members])[1]
                assert np.array_equal(got[b.id], want)

    @pytest.mark.parametrize("make, calls", [(lambda: build_grid(31), 3),
                                             (lambda: build_grid(64), 15),
                                             (lambda: build_dyadic(8), 3)],
                             ids=["grid31", "grid64", "dyadic8"])
    def test_ball_medians_blocks(self, make, calls, monkeypatch):
        """Several size groups share a medians call, each call within
        BLOCK_ELEMS // 4 padded elements unless it is one group; a vector f
        takes one call per group."""
        basis = make()
        widths = []

        def counting(f, idx, basis, method):
            widths.append((idx.size, len(np.unique(np.sum(idx < basis.n_atoms, axis=1)))))
            return medians(f, idx, basis, method)

        monkeypatch.setattr(functional, "medians", counting)
        f = VecFunction(np.random.default_rng(3).lognormal(size=basis.n_atoms))
        got = ball_medians(f, basis)
        assert len(widths) == calls < len(basis.size_groups())
        assert all(size <= BLOCK_ELEMS // 4 or groups == 1 for size, groups in widths)
        monkeypatch.undo()
        assert np.array_equal(got, ball_medians_by_groups(f, basis))

    def test_ball_medians_vector_per_group(self, dyadic4):
        f = VecFunction(np.random.default_rng(5).normal(size=(16, 2)), "max")
        assert np.array_equal(ball_medians(f, dyadic4), ball_medians_by_groups(f, dyadic4))


class TestVectorNorms:
    def test_one_component_equals_linalg_norm(self):
        """The euclidean norm of one component is bitwise what
        np.linalg.norm gives: underflow to 0, signed zeros, inf and nan."""
        x = np.array([1.5, -2.25, 1e-170, -1e-170, 0.0, -0.0, np.inf, -np.inf,
                      np.nan, 1e-300, 7.0e150])
        rand = np.random.default_rng(0).normal(size=(4, 50, 1))
        for vals in (x[:, None], x.reshape(1, -1, 1), rand, x[:1]):
            got = vector_norms(vals, "euclidean")
            want = np.linalg.norm(vals, axis=-1)
            assert type(got) is type(want) and got.dtype == want.dtype
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBmoNorm:
    def test_constant(self, dyadic3):
        assert bmo_norm(VecFunction(np.full(8, 9.0)), dyadic3) == 0.0

    def test_two_atoms(self):
        b = build_dyadic(1)
        f = VecFunction(np.array([0.0, 1.0]))
        assert bmo_norm(f, b) == pytest.approx(0.5)

    def test_scaling(self, dyadic4, rng):
        f = VecFunction(rng.normal(size=16))
        a = bmo_norm(f, dyadic4)
        assert bmo_norm(VecFunction(4.0 * f.values), dyadic4) == pytest.approx(4 * a)


class TestMaximal:
    def test_indicator_profile(self, dyadic3):
        f = indicator(8, [0])
        mf = maximal(f, dyadic3, CLASSICAL)
        assert mf[0] == pytest.approx(1.0)
        assert mf[1] == pytest.approx(0.5)
        assert mf[2] == mf[3] == pytest.approx(0.25)
        assert np.allclose(mf[4:], 0.125)

    def test_constant_invariance(self, dyadic3):
        mf = maximal(VecFunction(np.full(8, 2.0)), dyadic3, CLASSICAL)
        assert np.allclose(mf, 2.0)

    def test_sharp_of_constant(self, dyadic3):
        mf = maximal(VecFunction(np.full(8, 2.0)), dyadic3, CLASSICAL, mode="sharp")
        assert np.allclose(mf, 0.0)

    def test_dominates_ball_averages(self, dyadic4, rng):
        f = VecFunction(rng.normal(size=16))
        mf = maximal(f, dyadic4, CLASSICAL)
        for b in dyadic4.balls:
            avg = average(f, b.members, CLASSICAL, basis=dyadic4)
            assert np.all(mf[b.members] >= avg - 1e-12)

    def test_sharp_sup_inequality(self, dyadic4, rng):
        # sup-sharp mean of a ball never exceeds the sharp maximal anywhere on it
        f = VecFunction(rng.normal(size=16))
        msharp = maximal(f, dyadic4, CLASSICAL, mode="sharp")
        sups = sup_sharp_all(f, dyadic4, 1.0)
        for b in dyadic4.balls:
            assert sups[b.id] <= msharp[b.members].min() + 1e-12


class TestRegularFamily:
    def test_single_ball_uniform(self):
        b = build_dyadic(0)
        fam = build_regular_family(b)
        assert np.allclose(fam.kernels[0] @ b.space.weights, 1.0)

    def test_dyadic4_passes(self, dyadic4):
        fam = build_regular_family(dyadic4)
        assert fam.kernels.shape == (31, 16)
        assert fam.c1 >= (1 + dyadic4.K) ** -2 - 1e-12

    def test_unreachable_atom_rejected(self):
        # no ball holds {0,1} and the atom 2: d = inf there, and the
        # envelope omega(mu/d)/d vanishes
        balls = [Ball(0, np.array([0, 1]), 2.0), Ball(1, np.array([1, 2]), 2.0)]
        basis = BallBasis(MeasureSpace(np.ones(3)), balls, [0, 1], K=2.0, eta=2.0)
        with pytest.raises(RegularityViolation, match="zero envelope") as err:
            build_regular_family(basis)
        assert err.value.witness == (0,)


class TestGeneralMaximal:
    def test_constant_preserved(self, dyadic3):
        fam = build_regular_family(dyadic3)
        out = general_maximal(VecFunction(np.full(8, 3.0)), fam)
        assert np.allclose(out, 3.0)

    def test_delta_matches_brute_force(self, grid8):
        fam = build_regular_family(grid8)
        f = indicator(8, [0])
        out = general_maximal(f, fam)
        vals = fam.kernels @ (f.norms() * grid8.space.weights)
        for x in range(8):
            ids = grid8.balls_containing_atom(x)
            assert out[x] == pytest.approx(vals[ids].max())


class TestSharpBounds:
    def test_sup_sharp_below_pointwise_sharp_max(self, dyadic4, rng):
        f = VecFunction(rng.normal(size=16))
        sharp = sharp_all(f, dyadic4, 1.0)
        sups = sup_sharp_all(f, dyadic4, 1.0)
        assert np.all(sups >= sharp - 1e-12)


class TestGroupedStatistics:
    """The size-grouped kernels against the per-ball loops they replaced."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_sharp_all_equals_per_ball_loop(self, stat_basis, dim, norm_kind, r):
        rng = np.random.default_rng(dim)
        f = VecFunction(rng.normal(size=(stat_basis.n_atoms, dim)), norm_kind)
        assert f.values.flags.c_contiguous
        want = _sharp_all_by_balls(f, stat_basis, r)
        assert np.array_equal(sharp_all(f, stat_basis, r), want)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_sharp_stack_rows_equal_single_calls(self, stat_basis, dim, norm_kind, r):
        stack = np.random.default_rng(dim + 20).normal(size=(5, stat_basis.n_atoms, dim))
        stack[2] = 1.5  # a constant row: every sharp mean is 0
        got = sharp_all_stack(stack, norm_kind, stat_basis, r)
        assert got.shape == (5, stat_basis.n_balls)
        for row, vals in zip(got, stack):
            assert np.array_equal(row, sharp_all(VecFunction(vals, norm_kind),
                                                 stat_basis, r))

    @pytest.mark.parametrize("basis", [build_grid(48), build_dyadic(7)],
                             ids=["grid48", "dyadic7"])
    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    def test_sharp_all_layout_independent(self, basis, norm_kind):
        vals = np.random.default_rng(3).normal(size=(basis.n_atoms, 3))
        c = VecFunction(np.ascontiguousarray(vals), norm_kind)
        fortran = VecFunction(np.asfortranarray(vals), norm_kind)
        assert not fortran.values.flags.c_contiguous
        assert np.array_equal(sharp_all(c, basis), sharp_all(fortran, basis))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_sup_sharp_equals_recursion(self, stat_basis, dim, norm_kind, r):
        rng = np.random.default_rng(dim + 10)
        f = VecFunction(rng.normal(size=(stat_basis.n_atoms, dim)), norm_kind)
        want = _sup_sharp_by_recursion(f, stat_basis, r)
        assert np.array_equal(sup_sharp_all(f, stat_basis, r), want)

    def test_cover_table_equals_per_lo_loop(self, stat_basis):
        assert np.array_equal(stat_basis._cover_table(),
                              _cover_measure_table_by_lo(stat_basis))

    @pytest.mark.parametrize("initial", [0.0, -np.inf])
    def test_scatter_max_equals_per_ball_loop(self, stat_basis, initial):
        """containing_reduce takes a max over float values, as maximal does,
        and a min over int ranks with the no-ball rank n_balls, as the child
        cover does; both equal the per-ball loop."""
        n, nb = stat_basis.n_atoms, stat_basis.n_balls
        rng = np.random.default_rng(4)
        vals = rng.normal(size=nb)
        want = _scatter_by_balls(stat_basis, vals, np.full(n, initial))
        got = stat_basis.containing_reduce(np.maximum, vals, np.full(n, initial))
        assert np.array_equal(got, want)
        rank = rng.permutation(nb)
        rank[rng.random(nb) < 0.5] = nb
        want = _scatter_by_balls(stat_basis, rank, np.full(n, nb), np.minimum)
        got = stat_basis.containing_reduce(np.minimum, rank, np.full(n, nb))
        assert got.dtype == rank.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    def test_maximal_equals_per_ball_loop(self, scatter_basis, norm_kind):
        n = scatter_basis.n_atoms
        f = VecFunction(np.random.default_rng(5).normal(size=(n, 3)), norm_kind)
        for mode, vals in (("fractional_basis", ball_averages_all(f, scatter_basis, CLASSICAL)),
                           ("sharp", sharp_all(f, scatter_basis, CLASSICAL.r))):
            want = _scatter_by_balls(scatter_basis, vals, np.zeros(n))
            assert np.array_equal(maximal(f, scatter_basis, CLASSICAL, mode), want)


def _python_pow(v, exponent):
    """v ** exponent over Python floats, None where that raises (an
    overflow, or 0 to a negative power)."""
    try:
        return float(v) ** exponent
    except (OverflowError, ZeroDivisionError):
        return None


@pytest.mark.parametrize("exponent", [1.0, 1 / 1.5, 0.5, 1 / 3, 2.0, 1.7,
                                      -1.0, -0.5, -0.3, -0.75])
def test_power_equals_scalar_pow(exponent):
    """_power equals, bitwise, the per-value powers it replaced: the sharp
    means' over np.float64 scalars, and the estimator's mu ** -rho over
    Python floats wherever those return; on 30,000 values over some 600
    binades, with 0, inf and the extreme finite values."""
    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.lognormal(sigma=60.0, size=30_000),
                           rng.uniform(0.5, 2.0, 1_000),
                           [0.0, 5e-324, 1.0, 1.7e308, np.inf]])
    with np.errstate(over="ignore", divide="ignore"):
        got = _power(vals, exponent)
        want = np.array([v ** exponent for v in vals])
    assert got.dtype == np.float64
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                        np.signbit(want))
    python = [_python_pow(v, exponent) for v in vals]
    ok = np.array([p is not None for p in python])
    assert ok.sum() > 30_000
    assert np.array_equal(got[ok], np.array([p for p in python if p is not None]))
    assert np.all(np.isinf(got[~ok]))


class TestLevelTail:
    """The early-stopping level_tail equals the all-levels mask bitwise."""

    @pytest.mark.parametrize("top", [0, 3, TAIL_LEVELS, 64])
    def test_equals_mask_of_every_level(self, rng, top):
        x = rng.lognormal(size=(5, 9))
        x[1, 2] = 3.0 * 0.75  # on the level t = 3 of g = 0.75
        x[2] = 0.0            # an all-zero row
        w = rng.uniform(0.5, 2.0, size=(5, 9))
        mu = w.sum(axis=1)
        g = rng.uniform(0.5, 2.0, size=9)
        g[[0, 4]] = 0.0       # atoms above every level wherever x > 0
        cases = [(x, 0.75, w, mu),                   # (m, L) stack, scalar g
                 (x, g, w, mu),                      # per-atom g with zeros
                 (x[0], 0.75, w[0], float(mu[0])),   # one row
                 (x[2], 1.0, w[2], float(mu[2])),    # all zero
                 (np.zeros((3, 4)), 1.0, np.ones((3, 4)), np.full(3, 4.0)),
                 (np.arange(12.0).reshape(3, 4), 1, np.ones((3, 4)),
                  np.full(3, 4.0))]                  # integer levels hit exactly
        for args in cases:
            got = level_tail(*args, top)
            assert got.shape == level_tail_by_mask(*args, top).shape
            assert np.array_equal(got, level_tail_by_mask(*args, top))

    def test_stops_after_last_level_above(self, rng, monkeypatch):
        """A tail that ends below level TAIL_LEVELS builds one chunk of
        levels, not 65."""
        built = []
        where = np.where

        def counting(cond, *args):
            built.append(cond.shape)
            return where(cond, *args)

        monkeypatch.setattr(np, "where", counting)
        x = rng.uniform(0.0, 2.0, size=(4, 6))
        level_tail(x, 1.0, np.ones((4, 6)), np.full(4, 6.0), 64)
        assert built == [(4, TAIL_LEVELS, 6)]


class TestMaxCandidates:
    """max_candidates keeps, of bounds lo <= x <= hi, every position whose
    upper bound reaches its row's largest lower bound within BOUND_MARGIN."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4),
           m=st.integers(1, 30), spread=st.sampled_from([0.0, 1e-12, 1e-3, 0.5]))
    def test_each_row_keeps_its_argmax(self, seed, rows, m, spread):
        rng = np.random.default_rng(seed)
        x = rng.integers(1, 4, (rows, m)).astype(float)  # ties
        lo = x * (1 - spread * rng.random((rows, m)))
        hi = x * (1 + spread * rng.random((rows, m)))
        keep = max_candidates(lo, hi)
        assert np.array_equal(keep, np.unique(keep))
        for r in range(rows):
            assert set(np.flatnonzero(x[r] == x[r].max())) <= set(keep.tolist())
            best = lo[r].max()
            dropped = np.setdiff1d(np.arange(m), keep)
            assert np.all(hi[r, dropped] < best)

    def test_margin_absorbs_rounding_of_the_bounds(self):
        """Bounds computed apart from the exact values may round a few ulps
        past them: an upper bound one ulp below a lower one still keeps its
        position, one far below drops it."""
        one_up = np.nextafter(1.0, 2.0)
        assert max_candidates([1.0, one_up], [1.0, one_up]).tolist() == [0, 1]
        assert max_candidates([[1.0, 1.5]], [[1.0, 1.5]]).tolist() == [1]

    def test_nan_drops_nothing_and_empty_keeps_nothing(self):
        assert max_candidates([np.nan, 1.0], [np.nan, 2.0]).tolist() == [0, 1]
        assert max_candidates([[np.nan, np.nan]], [[1.0, 0.5]]).tolist() == [0, 1]
        assert max_candidates(np.zeros((0, 3)), np.zeros((0, 3))).tolist() == []
        assert max_candidates(np.zeros((2, 0)), np.zeros((2, 0))).tolist() == []
