import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballbasis import (Ball, BallBasis, MeasureSpace, OperatorDescriptor,
                       Params, PostconditionFailure, VecFunction,
                       conditional_expectation, build_dyadic, build_grid,
                       check_axioms, discrete_hilbert, exhausting_sequence,
                       identity_operator, martingale_transform,
                       riesz_potential, sparse_operator, square_function,
                       truncate, zero_operator)
from ballbasis.cli import main
from ballbasis.functional import volume_distance_matrix
from ballbasis.space import BLOCK_ELEMS, as_atom_array

from conftest import (SCATTER_BASES, STAT_BASES, _relabelled, _reweighted,
                      check_axioms_by_loop, containing_by_matrix,
                      membership_by_loop, star_of_set_by_matrix,
                      superset_max_by_matrix)


def ball_by_span(basis, lo, hi):
    ids = np.flatnonzero((basis.lo == lo) & (basis.hi == hi))
    assert ids.size >= 1
    return int(ids[0])


def _volume_distance(basis, x, ball_id):
    """d(x, B), the least measure of a ball holding B and x, ball by ball:
    the reference for volume_distance_matrix."""
    return min((basis.mu[j] for j in basis.supersets(ball_id)
                if x in basis.balls[j].members), default=np.inf)


class TestBuilders:
    def test_dyadic_zero_levels(self):
        b = build_dyadic(0)
        assert b.n_balls == 1
        assert b.n_atoms == 1
        assert int(b.hull[0]) == 0

    def test_dyadic_one_level_star_is_everything(self):
        b = build_dyadic(1)
        assert b.n_balls == 3
        # the left half's star pulls in the parent (measure ratio exactly 2)
        left = ball_by_span(b, 0, 0)
        assert list(b.star_members(left)) == [0, 1]

    def test_dyadic_three_levels_axioms(self, dyadic3):
        assert dyadic3.n_balls == 15
        rep = check_axioms(dyadic3)
        assert rep.passed
        assert rep.k_min == 2.0
        assert rep.eta_min == 2.0

    def test_dyadic_guard(self):
        with pytest.raises(ValueError):
            build_dyadic(21)
        with pytest.raises(ValueError):
            build_dyadic(-1)

    def test_grid_small_star_and_hull(self):
        b = build_grid(4)
        mid = ball_by_span(b, 1, 1)
        star = b.star_members(mid)
        assert list(star) == [0, 1, 2]
        hull = b.balls[b.hull[mid]]
        assert list(hull.members) == [0, 1, 2]
        assert hull.measure / b.mu[mid] == 3.0

    def test_grid_two_atoms(self):
        b = build_grid(2)
        assert b.n_balls == 3
        assert check_axioms(b).b2_pass

    def test_grid_axioms_k_bound(self, grid64):
        rep = check_axioms(grid64)
        assert rep.passed
        assert rep.k_min <= 5.0

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            build_grid(1)
        with pytest.raises(ValueError):
            build_grid(513)

    def test_ball_id_must_be_its_position(self):
        # listed the other way round, member_matrix filled row 0 with ball
        # {0, 2} while balls_containing_atom(1) read position 0, ball 1
        space = MeasureSpace(np.ones(4))
        balls = [Ball(1, np.array([0, 2]), 2.0), Ball(0, np.arange(4), 4.0)]
        with pytest.raises(ValueError, match="ball id 1 listed at position 0"):
            BallBasis(space, balls, [1, 1], K=2.0)
        basis = BallBasis(space, balls[::-1], [0, 0], K=2.0)
        assert basis.balls_containing_atom(1).tolist() == [0]


class TestAsAtomArray:
    @pytest.mark.parametrize("members", [
        np.array([3, 1, 2]), np.array([0, 5, 9], dtype=np.int32), [4, 4, 0, 2, 2],
        range(7), range(10, 2, -3), [9, 8, 7, 1], (2, 2, 2), [], np.array([]),
        np.arange(0), np.array([1.0, 3.0, 3.0]), [np.int64(6), 0],
    ], ids=lambda m: repr(m))
    def test_sorted_unique_int64(self, members):
        # the set-and-sort normalization this one numpy call replaced
        want = np.asarray(sorted(set(int(a) for a in members)), dtype=np.int64)
        got = as_atom_array(members)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestSizeGroups:
    @pytest.mark.parametrize("make", list(STAT_BASES.values()), ids=list(STAT_BASES))
    def test_contract(self, make):
        b = make()
        assert b._size_groups is None  # lazy: set-up does not pay for it
        groups = b.size_groups()
        ids = np.concatenate([g_ids for g_ids, _ in groups])
        assert np.array_equal(np.sort(ids), np.arange(b.n_balls))
        sizes = [idx.shape[1] for _, idx in groups]
        assert sizes == sorted(set(sizes))
        for g_ids, idx in groups:
            assert idx.shape[0] == len(g_ids)
            for i, row in zip(g_ids, idx):
                assert np.array_equal(row, b.balls[i].members)
        assert b.size_groups() is groups


@pytest.mark.parametrize("make", list(SCATTER_BASES.values()), ids=list(SCATTER_BASES))
class TestPairIndex:
    def test_contract(self, make):
        b = make()
        assert b._pair_index is None  # lazy: set-up does not pay for it
        pairs = b.pair_index()
        assert pairs.ball.dtype == np.int32
        assert (pairs.order is None) == b.interval
        for x in range(b.n_atoms):
            got = pairs.ball[pairs.offsets[x]:pairs.offsets[x + 1]]
            want = b.balls_containing_atom(x)
            # size-group order within an atom: by size, then by id
            assert np.array_equal(got, want[np.lexsort((want, b.sizes[want]))])
        assert np.array_equal(pairs.members(0, b.n_atoms),
                              np.repeat(np.arange(b.n_atoms), pairs.counts))
        atoms = np.random.default_rng(0).choice(b.n_atoms, size=5)
        assert np.array_equal(pairs.balls_of(atoms), np.concatenate(
            [pairs.ball[pairs.offsets[x]:pairs.offsets[x + 1]] for x in atoms]))
        if pairs.order is not None:
            flat = [(i, a) for ids, idx in b.size_groups()
                    for i, row in zip(ids, idx) for a in row]
            assert [flat[k] for k in pairs.order] == list(
                zip(pairs.ball, pairs.members(0, b.n_atoms)))
        assert b.pair_index() is pairs

    @pytest.mark.parametrize("d", [1, 3])
    def test_blocks(self, make, d):
        b = make()
        n = b.n_atoms
        pairs = b.pair_index()
        runs = list(pairs.blocks((n + 1) * d, d))
        assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
        assert runs[-1][1] == n

        def cost(lo, hi):
            return ((hi - lo) * (n + 1) + pairs.offsets[hi] - pairs.offsets[lo]) * d

        for lo, hi in runs:
            assert hi == lo + 1 or cost(lo, hi) <= BLOCK_ELEMS
            assert hi == n or cost(lo, hi + 1) > BLOCK_ELEMS
        if n >= 64:
            assert len(runs) > 1


class TestStar:
    def test_star_spans_equal_per_ball_loop(self, scatter_basis):
        lo, hi, mu = scatter_basis.lo, scatter_basis.hi, scatter_basis.mu
        want_lo, want_hi = [], []
        for i in range(scatter_basis.n_balls):
            mask = (mu <= 2 * mu[i]) & (lo <= hi[i]) & (hi >= lo[i])
            want_lo.append(lo[mask].min())
            want_hi.append(hi[mask].max())
        got_lo, got_hi = scatter_basis.star_spans()
        assert np.array_equal(got_lo, want_lo) and np.array_equal(got_hi, want_hi)

    def test_star_lists_equal_matrix_stars(self, scatter_basis):
        _assert_star_lists_by_matrix(scatter_basis)

    @pytest.mark.parametrize("base", [lambda: build_dyadic(10), lambda: build_grid(48)],
                             ids=["dyadic10", "grid48"])
    def test_star_pass_spans_several_blocks(self, base):
        """Relabelled dyadic 10: its L = 1 group, 1,024 rows of a 2,047-ball
        mask, takes many row blocks.  Relabelled grid 48: the full ball's
        star gathers the members of all 1,176 balls (19,600 atoms), more
        than one chunk of BLOCK_ELEMS."""
        basis = _relabelled(base(), seed=3)[0]
        assert not basis.interval
        many_rows = 1024 * basis.n_balls > 8 * BLOCK_ELEMS  # dyadic 10's L = 1
        many_chunks = basis.sizes.sum() > BLOCK_ELEMS        # grid 48's full ball
        assert many_rows or many_chunks
        _assert_star_lists_by_matrix(basis)

    @pytest.mark.parametrize("relabel", [False, True], ids=["interval", "relabelled"])
    def test_star_lists_contract(self, relabel):
        """Built on first use, not with the basis; kept and read-only; the
        offsets step by the star sizes."""
        basis = build_dyadic(5)
        if relabel:
            basis = _relabelled(basis, seed=2)[0]
        assert basis._star_lists is None
        atoms, offsets = basis.star_lists()
        assert basis.star_lists()[0] is atoms
        assert not atoms.flags.writeable and not offsets.flags.writeable
        assert offsets[0] == 0 and offsets[-1] == atoms.size
        assert np.array_equal(np.diff(offsets), [basis.star_members(i).size
                                                 for i in range(basis.n_balls)])

    def test_star_pass_memory(self):
        """Every star of relabelled dyadic 11 and grid 48, from a fresh
        basis, within 4 MB of traced peak allocation."""
        import tracemalloc

        for base in (build_dyadic(11), build_grid(48)):
            basis = _relabelled(base, seed=5)[0]
            tracemalloc.start()
            try:
                basis.star_lists()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20

    @pytest.mark.parametrize("relabel", [False, True], ids=["interval", "relabelled"])
    def test_star_members_unknown_id(self, relabel):
        """An id outside [0, n_balls) is a KeyError on either layout; on an
        interval basis -1 would otherwise wrap to the last ball's star."""
        basis = build_dyadic(3)
        if relabel:
            basis = _relabelled(basis, seed=2)[0]
        for bad in (-1, basis.n_balls):
            with pytest.raises(KeyError, match="unknown ball id"):
                basis.star_members(bad)

    def test_dyadic_smallest_ball_star(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 0)
        assert list(dyadic3.star_members(b)) == [0, 1]

    def test_star_fixed_point(self, dyadic3):
        full = dyadic3.full_ball_id()
        assert len(dyadic3.star_members(full)) == dyadic3.n_atoms
        assert len(dyadic3.star2_members(full)) == dyadic3.n_atoms


class TestCheckAxioms:
    def test_dyadic4_constants(self, dyadic4):
        rep = check_axioms(dyadic4)
        assert rep.passed and rep.k_min == 2.0 and rep.eta_min == 2.0

    def test_zero_weight_atom_flags_b1(self):
        b = build_dyadic(2)
        b.space.weights[0] = 0.0
        rep = check_axioms(b)
        assert not rep.b1_pass
        assert len(rep.b1_failures) > 0

    def test_bad_hull_flags_b4(self, dyadic3):
        # point a small ball's hull at itself; its star is strictly larger
        victim = ball_by_span(dyadic3, 0, 0)
        hull = dyadic3.hull.copy()
        hull[victim] = victim
        broken = BallBasis(dyadic3.space, dyadic3.balls, hull, K=dyadic3.K,
                           eta=dyadic3.eta)
        rep = check_axioms(broken)
        assert not rep.hull_valid
        assert victim in rep.hull_failures

    def test_equals_per_ball_loop(self, scatter_basis):
        assert check_axioms(scatter_basis) == check_axioms_by_loop(scatter_basis)

    @pytest.mark.parametrize("relabel", [False, True], ids=["interval", "relabelled"])
    @pytest.mark.parametrize("case", ["hull_to_self", "zero_weight",
                                      "measure_off", "no_full_ball"])
    def test_failing_basis_equals_per_ball_loop(self, case, relabel):
        basis = _failing_basis(case, relabel)
        assert basis.interval is not relabel
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero-measure ball
            rep = check_axioms(basis)
            assert rep == check_axioms_by_loop(basis)
        assert not rep.passed
        if case == "no_full_ball":
            # every ball lacks a strict superset; the last one is reported
            assert rep.eta_min is None and rep.eta_counterexample == 3
            assert rep.hull_failures == [0, 1, 2, 3]


def _failing_basis(case, relabel):
    """A small hand-built basis that fails the axiom check; relabel moves
    atom a to perm[a] so that no ball of two or more atoms is an interval."""
    if case == "no_full_ball":
        # [0, 1] and [1, 2] overlap and no ball covers their union; [3, 4]
        # and [4, 5] likewise: stars not X with no covering ball, and no
        # ball with a strict superset
        weights = np.ones(6)
        members = [[0, 1], [1, 2], [3, 4], [4, 5]]
        hull = [0, 1, 2, 3]
    else:
        base = build_dyadic(3)
        weights = base.space.weights.copy()
        members = [b.members for b in base.balls]
        hull = base.hull.copy()
    n = len(weights)
    if case == "hull_to_self":
        hull[7] = 7  # a leaf, whose star is its parent
    if case == "zero_weight":
        weights[5] = 0.0  # MeasureSpace refuses it, so it is set below
    perm = np.array([0, 4, 2, 6, 1, 5, 3, 7] if n == 8 else [0, 3, 1, 4, 2, 5])
    if relabel:
        moved = np.empty_like(weights)
        moved[perm] = weights
        weights = moved
        members = [np.sort(perm[np.asarray(m)]) for m in members]
    space = MeasureSpace(np.ones(n))
    space.weights[:] = weights
    balls = [Ball(i, np.asarray(m, dtype=np.int64), space.measure(m))
             for i, m in enumerate(members)]
    if case == "measure_off":
        balls[3] = Ball(3, balls[3].members, balls[3].measure + 1e-9)
    return BallBasis(space, balls, hull, K=2.0, eta=2.0)


class TestVolumeDistance:
    def test_inside_bounded_by_hull(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 1)
        d = volume_distance_matrix(dyadic3)[b, 0]
        assert d <= dyadic3.mu[dyadic3.hull[b]]

    def test_dyadic_far_atom(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 0)
        assert volume_distance_matrix(dyadic3)[b, 5] == 1.0

    def test_grid_span(self, grid8):
        b = ball_by_span(grid8, 0, 1)
        assert volume_distance_matrix(grid8)[b, 5] == 6.0

    def test_no_containing_ball_is_inf(self):
        # {0,1} and {1,2}: no ball holds the ball {0,1} and the atom 2
        balls = [Ball(0, np.array([0, 1]), 2.0), Ball(1, np.array([1, 2]), 2.0)]
        basis = BallBasis(MeasureSpace(np.ones(3)), balls, [0, 1], K=2.0)
        assert volume_distance_matrix(basis).tolist() == [[2.0, 2.0, np.inf],
                                                          [np.inf, 2.0, 2.0]]

    def test_antitone_in_ball(self, grid16):
        # d(x, A) <= d(x, B) whenever A is inside B
        inner = ball_by_span(grid16, 4, 5)
        outer = ball_by_span(grid16, 3, 8)
        dmat = volume_distance_matrix(grid16)
        assert np.all(dmat[inner] <= dmat[outer])


class TestExhaustingSequence:
    def test_dyadic_chain(self, dyadic3):
        chain = exhausting_sequence(dyadic3)
        assert len(chain[-1].members) == dyadic3.n_atoms
        for a, b in zip(chain, chain[1:]):
            assert set(a.members) < set(b.members)

    def test_grid_chain(self):
        chain = exhausting_sequence(build_grid(4))
        assert list(chain[-1].members) == [0, 1, 2, 3]

    def test_ball_escaping_the_chain(self):
        # {0,1} is maximal and its star is X, yet {1,2} is not inside it
        balls = [Ball(0, np.array([0, 1]), 2.0), Ball(1, np.array([1, 2]), 2.0)]
        basis = BallBasis(MeasureSpace(np.ones(3)), balls, [0, 1], K=2.0)
        with pytest.raises(PostconditionFailure, match="escapes") as err:
            exhausting_sequence(basis)
        assert err.value.witness == 1


class TestInvariants:
    def test_star_hull_sandwich(self, dyadic4):
        for i in range(dyadic4.n_balls):
            b = set(int(a) for a in dyadic4.balls[i].members)
            s = set(int(a) for a in dyadic4.star_members(i))
            hull = dyadic4.balls[dyadic4.hull[i]]
            assert b <= s <= set(int(a) for a in hull.members)
            assert hull.measure <= dyadic4.K * dyadic4.mu[i] + 1e-12

    def test_two_balls_relation(self, grid8):
        for i in range(grid8.n_balls):
            star = set(int(a) for a in grid8.star_members(i))
            for j in range(grid8.n_balls):
                meets = grid8.lo[j] <= grid8.hi[i] and grid8.hi[j] >= grid8.lo[i]
                if meets and grid8.mu[j] <= 2 * grid8.mu[i]:
                    assert set(int(a) for a in grid8.balls[j].members) <= star

    def test_far_atom_distance_lower_bound(self, grid8):
        # x outside star(B) and A inside B force d(x, A) >= mu(B)
        dmat = volume_distance_matrix(grid8)
        for bi in range(grid8.n_balls):
            star = set(int(a) for a in grid8.star_members(bi))
            inner = [i for i in range(grid8.n_balls) if grid8.contains(i, bi)]
            for x in range(8):
                if x in star:
                    continue
                for ai in inner:
                    assert dmat[ai, x] >= grid8.mu[bi]


class TestRelabelledQueries:
    """Every ball query on a basis and on its copy with atoms relabelled
    (where balls need not be atom intervals) agrees up to the relabelling."""

    @settings(max_examples=40, deadline=None)
    @given(base=st.one_of(st.integers(2, 24).map(build_grid),
                          st.integers(0, 6).map(build_dyadic)),
           reweight=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_queries_agree(self, base, reweight, seed):
        if reweight:
            base = _reweighted(base, seed)
        rel, perm = _relabelled(base, seed)
        rng = np.random.default_rng(seed)
        n, nb = base.n_atoms, base.n_balls

        for x in range(n):
            assert np.array_equal(base.balls_containing_atom(x),
                                  rel.balls_containing_atom(perm[x]))
        for _ in range(8):
            s = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            assert np.array_equal(base._containing(np.sort(s)[None]),
                                  rel._containing(np.sort(perm[s])[None]))
            assert np.array_equal(np.sort(perm[base.star_of_set(np.sort(s))]),
                                  rel.star_of_set(np.sort(perm[s])))
        for i in range(nb):
            for strict in (False, True):
                assert np.array_equal(base.supersets(i, strict),
                                      rel.supersets(i, strict))
            sup = base.supersets(i, strict=True)
            least = min(sup, key=lambda j: (base.mu[j], j)) if sup.size else None
            assert base.smallest_strict_superset(i) == least
            assert rel.smallest_strict_superset(i) == least
            assert np.array_equal(np.sort(perm[base.star_members(i)]),
                                  rel.star_members(i))
        for i, j in rng.integers(0, nb, size=(32, 2)):
            assert base.contains(i, j) == rel.contains(i, j)
            assert rel.contains(i, j) == (j in rel.supersets(i))
        assert base.full_ball_id() == rel.full_ball_id()
        dmat = volume_distance_matrix(base)
        for i, x in zip(rng.integers(0, nb, 16), rng.integers(0, n, 16)):
            assert dmat[i, x] == _volume_distance(base, x, i)
        assert np.array_equal(volume_distance_matrix(rel)[:, perm],
                              volume_distance_matrix(base))
        a, b = check_axioms(base), check_axioms(rel)
        assert (a.k_min, a.eta_min, a.hull_failures) == (b.k_min, b.eta_min,
                                                         b.hull_failures)

        # positive values, so no sum is the difference of large terms
        mass = rng.uniform(0.5, 2.0, size=(n, 3))
        moved = np.empty_like(mass)
        moved[perm] = mass
        assert np.allclose(rel.ball_integrals(moved[:, 0]),
                           base.ball_integrals(mass[:, 0]), rtol=1e-12, atol=0.0)
        kernel = rng.uniform(0.5, 2.0, size=(n, n))
        moved_kernel = np.empty_like(kernel)
        moved_kernel[np.ix_(perm, perm)] = kernel
        sums = {}
        for basis, k, v in ((base, kernel, mass), (rel, moved_kernel, moved)):
            # (ball, atom, component) array of the star sums at members
            dense = np.full((nb, n, 3), np.nan)
            pairs = basis.pair_index()
            for lo, hi, s in basis.member_star_sums(k, v):
                span = slice(pairs.offsets[lo], pairs.offsets[hi])
                dense[pairs.ball[span], pairs.members(lo, hi)] = s
            sums[basis] = dense
        assert np.array_equal(np.isnan(sums[rel][:, perm]), np.isnan(sums[base]))
        assert np.allclose(sums[rel][:, perm], sums[base], rtol=1e-12, atol=0.0,
                           equal_nan=True)
        vals = rng.normal(size=nb)
        assert np.array_equal(rel.superset_max(vals), base.superset_max(vals))
        assert np.array_equal(base.superset_max(vals),
                              [vals[base.supersets(i)].max() for i in range(nb)])


@st.composite
def non_interval_bases(draw):
    """Random balls over 3 to 12 atoms of random weights: overlapping,
    mostly not nested, repeats possible, a full ball present or absent, and
    at least one ball not an atom interval; random hull map."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets = [np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9))
            for _ in range(draw(st.integers(1, 14)))]
    sets = [s for s in sets if 0 < s.size < n]
    if all(s[-1] - s[0] + 1 == s.size for s in sets):
        sets.append(np.array([0, n - 1]))
    if draw(st.booleans()):
        sets.insert(int(rng.integers(0, len(sets) + 1)), np.arange(n))
    space = MeasureSpace(rng.uniform(0.5, 2.0, n))
    balls = [Ball(i, s, space.measure(s)) for i, s in enumerate(sets)]
    return BallBasis(space, balls, rng.integers(0, len(balls), len(balls)), K=3.0)


class TestPairIndexContainment:
    """On non-interval bases containment and stars come from the pair
    index; they must equal the membership-matrix answers."""

    @settings(max_examples=80, deadline=None)
    @given(basis=non_interval_bases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_membership_matrix(self, basis, seed):
        assert not basis.interval
        rng = np.random.default_rng(seed)
        n, nb = basis.n_atoms, basis.n_balls
        for i, b in enumerate(basis.balls):
            inside = containing_by_matrix(basis, b.members[None])[0]
            for strict in (False, True):
                want = inside & (basis.sizes > basis.sizes[i]) if strict else inside
                assert np.array_equal(basis.supersets(i, strict), np.flatnonzero(want))
            for j in range(nb):
                assert basis.contains(i, j) == inside[j]
            assert np.array_equal(basis.star_members(i),
                                  star_of_set_by_matrix(basis, b.members))
        _assert_star_lists_by_matrix(basis)
        _assert_ball_integrals_by_matrix(basis, rng)
        for x in range(n):
            assert np.array_equal(basis.balls_containing_atom(x), np.flatnonzero(
                containing_by_matrix(basis, np.array([[x]]))[0]))
        for _ in range(6):
            size = int(rng.integers(1, n + 1))
            idx = np.sort(np.stack([rng.choice(n, size, replace=False)
                                    for _ in range(3)]), axis=1)
            order = rng.permutation(nb)
            assert np.array_equal(basis._containing(idx, order),
                                  containing_by_matrix(basis, idx, order))
            assert np.array_equal(basis.star_of_set(idx[0]),
                                  star_of_set_by_matrix(basis, idx[0]))
        vals = rng.normal(size=nb)
        for strict in (False, True):
            assert np.array_equal(basis.superset_max(vals, strict=strict),
                                  superset_max_by_matrix(basis, vals, strict))
        assert check_axioms(basis) == check_axioms_by_loop(basis)

    def test_no_membership_matrix(self, monkeypatch, rng):
        """Containment, stars and the kernel, sparse, identity and zero
        truncations never build the membership matrix; the axiom check and
        the ball sums read one kept float64 0/1 array."""
        basis = _relabelled(build_dyadic(7), seed=5)[0]
        member_matrix = BallBasis.member_matrix
        monkeypatch.setattr(BallBasis, "member_matrix", _refuse_membership)
        _query_without_membership(basis, rng)
        kernel = OperatorDescriptor("kernel", basis, Params.classical_profile(1.0),
                                    kernel=rng.normal(size=(basis.n_atoms,) * 2))
        f = VecFunction(rng.normal(size=(basis.n_atoms, 2)))
        for T in (kernel, sparse_operator(basis, rng.choice(basis.n_balls, 8)),
                  identity_operator(basis), zero_operator(basis)):
            truncate(T).apply(f)

        read = []

        def recording(self):
            read.append(member_matrix(self))
            return read[-1]

        monkeypatch.setattr(BallBasis, "member_matrix", recording)
        check_axioms(basis)
        for _ in range(2):
            basis.ball_integrals(rng.normal(size=basis.n_atoms))
        assert len(read) == 3 and all(m is read[0] for m in read)
        assert read[0].dtype == np.float64 and not read[0].flags.writeable
        assert np.array_equal(read[0], membership_by_loop(basis).astype(np.float64))

    def test_no_star_of_set_per_ball(self, monkeypatch, rng):
        """The axiom check and the first truncated sparse apply read every
        star from star_lists(), not one star_of_set per ball."""
        basis = _relabelled(build_dyadic(7), seed=5)[0]
        calls = []
        star_of_set = BallBasis.star_of_set

        def counting(self, members):
            calls.append(len(members))
            return star_of_set(self, members)

        monkeypatch.setattr(BallBasis, "star_of_set", counting)
        check_axioms(basis)
        f = VecFunction(rng.normal(size=(basis.n_atoms, 2)))
        truncate(sparse_operator(basis, rng.choice(basis.n_balls, 8))).apply(f)
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: _relabelled(build_dyadic(7), seed=5)[0],
        lambda: _relabelled(_reweighted(build_grid(24), seed=7), seed=4)[0]],
        ids=["dyadic7", "grid24_weighted"])
    def test_ball_integrals_equal_cast_matrix(self, make, rng):
        basis = make()
        assert not basis.interval
        _assert_ball_integrals_by_matrix(basis, rng)


def _assert_star_lists_by_matrix(basis):
    """star_lists() holds, ball by ball, the membership-matrix star."""
    atoms, offsets = basis.star_lists()
    for i, b in enumerate(basis.balls):
        assert np.array_equal(atoms[offsets[i]:offsets[i + 1]],
                              star_of_set_by_matrix(basis, b.members))


def _assert_ball_integrals_by_matrix(basis, rng):
    """ball_integrals on a non-interval basis equals the gemv over the cast
    reference membership matrix bitwise, on the first call and on the kept
    matrix."""
    for _ in range(2):
        mass = rng.normal(size=basis.n_atoms)
        assert np.array_equal(basis.ball_integrals(mass),
                              membership_by_loop(basis).astype(np.float64) @ mass)


def _refuse_membership(self):
    raise AssertionError("membership matrix built")


def _query_without_membership(basis, rng):
    """Containment, superset maxima, stars of sets and star2_members on a
    few balls of basis."""
    for i in (0, 3, 100, basis.n_balls - 1):
        basis.supersets(i)
        basis.supersets(i, strict=True)
        basis.contains(i, 0)
        basis.star_of_set(basis.balls[i].members)
        basis.star2_members(i)
    basis.balls_containing_atom(5)
    basis.superset_max(rng.normal(size=basis.n_balls), strict=True)


@st.composite
def interval_bases(draw):
    """build_dyadic(0-7), build_grid(2-24), a grid over random atom weights,
    or random atom spans (repeats possible, most spans missing, a full ball
    present or not) over 1 to 16 atoms of random weights."""
    kind = draw(st.sampled_from(["dyadic", "grid", "reweighted", "spans"]))
    if kind == "dyadic":
        return build_dyadic(draw(st.integers(0, 7)))
    if kind == "grid":
        return build_grid(draw(st.integers(2, 24)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "reweighted":
        return _reweighted(build_grid(draw(st.integers(2, 24))), seed)
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 16))
    space = MeasureSpace(rng.uniform(0.5, 2.0, n))
    spans = np.sort(rng.integers(0, n, size=(draw(st.integers(1, 20)), 2)), axis=1)
    balls = [Ball(i, np.arange(lo, hi + 1), space.measure(np.arange(lo, hi + 1)))
             for i, (lo, hi) in enumerate(spans)]
    return BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)


class TestIntervalStarOfSet:
    """On interval bases a star of a set comes from the ball spans; it must
    equal the membership-matrix star, whatever the set's order and
    repeats."""

    @settings(max_examples=120, deadline=None)
    @given(basis=interval_bases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_membership_matrix(self, basis, seed):
        assert basis.interval
        rng = np.random.default_rng(seed)
        n = basis.n_atoms
        lo = int(rng.integers(0, n))
        gapped = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False))
        sets = [np.arange(lo, int(rng.integers(lo, n)) + 1),  # contiguous
                gapped, gapped[::2],
                [int(rng.integers(0, n))],  # one atom
                np.arange(n),  # all atoms
                rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))),
                list(gapped[::-1]) * 2]  # unsorted, repeated
        for s in sets:
            got = basis.star_of_set(s)
            assert got.dtype == np.int64
            assert np.array_equal(got, star_of_set_by_matrix(basis, s))
        for i in rng.integers(0, basis.n_balls, size=4):
            assert np.array_equal(basis.star2_members(i), star_of_set_by_matrix(
                basis, star_of_set_by_matrix(basis, basis.balls[i].members)))

    @pytest.mark.parametrize("make", [lambda: build_dyadic(7),
                                      lambda: build_grid(24)],
                             ids=["dyadic7", "grid24"])
    def test_no_membership_matrix(self, make, monkeypatch, rng):
        """On an interval basis with a full ball, the axiom check, ball sums,
        containment, stars of sets, star2_members and the kernel, sparse,
        identity, zero and square-function truncations never build the
        membership matrix."""
        basis = make()
        assert basis.interval and basis.full_ball_id() is not None
        monkeypatch.setattr(BallBasis, "member_matrix", _refuse_membership)
        check_axioms(basis)
        basis.ball_integrals(rng.normal(size=basis.n_atoms))
        _query_without_membership(basis, rng)
        n = basis.n_atoms
        if basis.kind == "dyadic":
            ops = [martingale_transform(basis, rng.choice([-1.0, 1.0], n - 1)),
                   conditional_expectation(basis, 2), square_function(basis)]
        else:
            ops = [discrete_hilbert(basis), riesz_potential(basis, 0.5)]
        ops += [sparse_operator(basis, rng.choice(basis.n_balls, 8)),
                identity_operator(basis), zero_operator(basis)]
        f = VecFunction(rng.normal(size=(n, 2)))
        for T in ops:
            truncate(T).apply(f)

    @pytest.mark.parametrize("config", ["dyadic-martingale", "grid-hilbert"])
    def test_no_stage_builds_membership_matrix(self, config, monkeypatch,
                                               tmp_path):
        """Every stage of `all` on the shipped configs (interval bases with
        a full ball) runs without the membership matrix."""
        monkeypatch.setattr(BallBasis, "member_matrix", _refuse_membership)
        path = Path(__file__).parents[1] / "configs" / f"{config}.json"
        assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_star2_members_memory(self):
        """star2_members on build_dyadic(11) (2,048 atoms, 4,095 balls) holds
        no n_balls x n_atoms array: a traced peak under 1 MB for the full
        ball and for a leaf.  The kept star spans are built beforehand."""
        basis = build_dyadic(11)
        basis.star_spans()
        for ball_id in (0, basis.n_balls - 1):
            tracemalloc.start()
            try:
                basis.star2_members(ball_id)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (ball_id, peak)


# Outside space.py, code reads the basis layout (interval flag, star spans,
# membership matrix) only here:
LAYOUT_ATTRS = {"interval", "star_spans", "member_matrix"}
LAYOUT_READS = sorted([
    # the dyadic operators index balls by generation, so check that layout
    ("operators", "dyadic_levels", "interval"),
    # the exact L1 pass runs on interval bases only (peak memory)
    ("operators", "estimate_bo_constants", "interval"),
    # star generations are star-span widths (dyadic_levels checked the layout)
    ("operators", "square_function", "star_spans"),
    # the cover table is indexed by atom spans
    ("functional", "volume_distance_matrix", "interval"),
])


def test_layout_reads_stay_in_space():
    reads = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "space.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRS:
                    reads.append((path.stem, getattr(top, "name", "<module>"),
                                  node.attr))
    assert sorted(reads) == LAYOUT_READS


# Outside space.py, the per-ball containment queries are called only here;
# everything else takes containing balls one size group at a time.
CONTAINMENT_QUERIES = {"balls_containing_atom", "supersets",
                       "smallest_strict_superset"}
CONTAINMENT_CALLS = sorted([
    # repair of the few atoms the tolerant tree left uncovered
    ("domination", "lerner_decompose", "balls_containing_atom"),
    # the non-interval distance rows (the interval path reads the cover table)
    ("functional", "volume_distance_matrix", "supersets"),
    # the growth condition is checked per (ball, superset) pair
    ("functional", "build_regular_family", "supersets"),
    # the Monte-Carlo L1 pass and the L2 pass, per sampled ball
    ("operators", "estimate_bo_constants", "supersets"),
    ("operators", "estimate_bo_constants", "smallest_strict_superset"),
    # the doubling growth and the half-density postcondition, per output ball
    ("sparsify", "child_cover", "smallest_strict_superset"),
    ("sparsify", "child_cover", "supersets"),
    # the half-density postcondition, per tree node
    ("sparsify", "_verify_sparse_tree", "supersets"),
])


def test_containment_calls_stay_listed():
    calls = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "space.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in CONTAINMENT_QUERIES:
                    calls.append((path.stem, getattr(top, "name", "<module>"),
                                  node.attr))
    assert sorted(calls) == CONTAINMENT_CALLS


# Every def and class in src/ballbasis serves the paper's results: a name is
# reached from cli.main or from a name the acceptance tests import from
# ballbasis, following the names each reached body mentions (matched by name
# alone; a reached class brings its class body and dunder methods).  Module
# code other than imports counts as reached.  Matching by name has a blind
# spot: a method shares the fate of every def of its name, so a second
# to_json would hide behind Report.to_json, today the only one.
UNREACHED = sorted([
    # the benchmark's tracer (perfbench/tracer.py) looks it up by name
    "mean_oscillation",
])


def test_every_definition_is_reached():
    defs, todo = {}, ["main"]
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                todo += _names(top)
                continue
            methods = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top] + [m for m in methods if isinstance(m, ast.FunctionDef)]:
                defs.setdefault(node.name, []).append(node)
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    todo += [a.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("ballbasis") for a in node.names]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            if isinstance(node, ast.ClassDef):
                todo += [n for s in node.body if not isinstance(s, ast.FunctionDef)
                         or s.name.startswith("__") for n in _names(s)]
            else:
                todo += _names(node)
    assert sorted(n for n in defs if n not in seen and not n.startswith("__")) == UNREACHED


# Every field of a dataclass in src/ballbasis is read as an attribute in src
# or in the acceptance tests (matched by name alone, like the test above), or
# is listed here with the reason it is kept.
UNREAD_FIELDS = sorted([
    # ROADMAP Item 8 is to emit the BO witnesses, the axiom failures and the
    # tree transcript; the tests read them today
    ("operators", "BOConstants", "witnesses"),
    ("space", "AxiomReport", "b1_failures"),
    ("space", "AxiomReport", "hull_failures"),
    ("space", "AxiomReport", "eta_counterexample"),
    ("sparsify", "SparseTree", "transcript"),
    # the overlap tail the exponential rate is fitted to
    ("domination", "VerificationReport", "tail"),
    # the regularity constants the family is built and checked with
    ("functional", "RegularFamily", "c1"),
    ("functional", "RegularFamily", "c2"),
    ("functional", "RegularFamily", "growth_measured"),
    # the ball each witness keeps half the mass of (tests/test_sparsify.py)
    ("sparsify", "SparseTree", "underlying"),
])


def test_every_field_is_read():
    src = sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py"))
    fields, reads = [], set()
    for path in src + [Path(__file__).parent / "test_acceptance.py"]:
        tree = ast.parse(path.read_text())
        reads |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        if path in src:
            fields += [(path.stem, cls.name, s.target.id) for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef)
                       and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                       for s in cls.body
                       if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    assert sorted(f for f in fields if f[2] not in reads) == UNREAD_FIELDS


def _names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_import_loads_no_scipy():
    src = Path(__file__).parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ballbasis; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "[]"


# The set-theoretic layer works on boolean atom rows: no per-pair set
# operation, i.e. no np.intersect1d or np.setdiff1d inside two nested loops.
LOOP_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)


def _looped_calls(names, min_depth, files, function=None):
    """(module, line) of each call of one of names, as a function or a
    method, that sits inside at least min_depth loops or comprehensions;
    with function, only calls inside the top-level defs of that name."""
    found = []

    def visit(node, depth, path):
        for child in ast.iter_child_nodes(node):
            d = depth + isinstance(child, LOOP_NODES)
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and d >= min_depth and names
                    & {getattr(func, "id", None), getattr(func, "attr", None)}):
                found.append((path.stem, child.lineno))
            visit(child, d, path)

    for path in files:
        tree = ast.parse(path.read_text())
        for top in tree.body if function else [tree]:
            if function is None or getattr(top, "name", None) == function:
                visit(top, 0, path)
    return found


def test_no_set_operations_in_nested_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"intersect1d", "setdiff1d"}, 2,
                         [src / "sparsify.py", src / "domination.py"]) == []


# A median is a per-set statistic with a stacked form (functional.medians):
# no median( call sits inside a loop or comprehension in src/ballbasis.
def test_no_median_in_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"median"}, 1, sorted(src.glob("*.py"))) == []


# A reduction over the balls containing each atom is one gather and one
# ufunc.reduceat over BallBasis.pair_index(): no ufunc.at( call sits inside a
# loop or comprehension in src/ballbasis.
def test_no_scatter_at_in_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"at"}, 1, sorted(src.glob("*.py"))) == []


# The BMO norms of a stack of functions are one functional.sharp_all_stack
# pass: no bmo_norm( or sharp_all( call sits inside a loop or comprehension
# in src/ballbasis.
def test_no_sharp_statistics_in_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"bmo_norm", "sharp_all"}, 1, sorted(src.glob("*.py"))) == []


# check_axioms reads containment from the cover table or one stacked test per
# group (superset_max): no per-ball containment query sits in a loop inside
# it.  exhausting_sequence's chain walk is per ball by nature.
def test_no_containment_queries_in_axiom_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    names = {"_containing", "supersets", "smallest_strict_superset"}
    assert _looped_calls(names, 1, [src / "space.py"], "check_axioms") == []
    assert _looped_calls(names, 1, [src / "space.py"], "exhausting_sequence") != []


# A defaulted parameter that no call sets is a constant in disguise: every
# default of a def in src/ballbasis must be passed, by keyword or position, by
# some call in these directories; a call from a test alone does not count.
# Calls are matched by name alone, and a call of a class counts for its
# __init__.
CALLER_DIRS = ("src", "scripts", "perfbench")
UNSET_DEFAULTS = sorted([
    # the seam the tests drive the command line through
    ("cli", "main", "argv"),
    # the exhaustive oracle that acceptance criterion 03 compares against
    ("functional", "alpha_oscillation", "method"),
    ("functional", "median", "method"),
])


def _defaulted_params():
    """(module, def name, parameter, positional index or None if keyword-only)
    for every defaulted parameter; a method's index skips self or cls."""
    out = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            pos = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            skip = 1 if id(fn) in owner else 0
            first = len(pos) - len(fn.args.defaults)
            out += [(path.stem, name, pos[i], i - skip) for i in range(first, len(pos))]
            out += [(path.stem, name, a.arg, None)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None]
    return out


def _call_arguments():
    """Per called name: the most positional arguments of any call (up to the
    first *args), and every keyword any call passes."""
    n_pos, keywords = {}, {}
    for top in CALLER_DIRS:
        for path in sorted((Path(__file__).parents[1] / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = [isinstance(a, ast.Starred) for a in node.args]
                count = starred.index(True) if any(starred) else len(starred)
                n_pos[name] = max(n_pos.get(name, 0), count)
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords if k.arg is not None)
    return n_pos, keywords


def test_every_default_is_set_by_a_caller():
    n_pos, keywords = _call_arguments()
    unset = [(mod, fn, arg) for mod, fn, arg, i in _defaulted_params()
             if arg not in keywords.get(fn, ())
             and (i is None or n_pos.get(fn, 0) <= i)]
    assert sorted(unset) == UNSET_DEFAULTS
