import ast
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballbasis import (Ball, BallBasis, MeasureSpace, OperatorDescriptor,
                       Params, PostconditionFailure, VecFunction,
                       conditional_expectation, build_dyadic, build_grid,
                       check_axioms, discrete_hilbert, exhausting_sequence,
                       identity_operator, martingale_transform,
                       riesz_potential, sparse_operator, square_function,
                       truncate, zero_operator)
from ballbasis.cli import main
from ballbasis.functional import sharp_all, volume_distance_matrix
from ballbasis.space import BLOCK_ELEMS, PairIndex, _ranges, as_atom_array

from conftest import (SCATTER_BASES, STAT_BASES, _relabelled, _reweighted,
                      check_axioms_by_loop, containing_by_matrix, dyadic_by_balls,
                      grid_by_balls, grid_hull_by_dict, membership_by_loop,
                      span_bases, span_index_by_pairs, star_of_set_by_matrix,
                      star_spans_by_mask,
                      superset_max_by_argmax, superset_max_by_matrix,
                      tied_values)


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

    def test_grid_builds_basis_once(self, monkeypatch):
        """build_grid makes one BallBasis, its balls listed by i, then j, and
        its hull map equals the dict lookup over a first basis."""
        inits = _count_inits(monkeypatch)
        for n in [*range(2, 70), 128, 200]:
            before = len(inits)
            b = build_grid(n)
            assert inits[before:] == [b]
            lo, hi = np.triu_indices(n)
            assert np.array_equal(b.lo, lo) and np.array_equal(b.hi, hi)
            assert np.array_equal(b.hull, grid_hull_by_dict(n)), n

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


class TestMalformedInput:
    """Each ball's atoms strictly increase within [0, n_atoms) and each hull
    id is a ball id, or the constructor raises ValueError; ball 0 of the
    4-atom space below is full."""
    SPACE = MeasureSpace(np.ones(4))
    FULL = Ball(0, np.arange(4), 4.0)

    @pytest.mark.parametrize("members", [
        [0, 0, 1],  # B1 would sum the repeated atom and pass measure 3
        [2, 0, 1],  # unsorted: lo would be 2 and hi 1
        [-1, 0],  # atoms outside the space would index past the weights
        [3, 4],
    ], ids=str)
    def test_ball_rejected(self, members):
        ball = Ball(1, np.array(members), float(len(members)))
        with pytest.raises(ValueError, match="^ball 1"):
            BallBasis(self.SPACE, [self.FULL, ball], [0, 0], K=2.0)

    @pytest.mark.parametrize("hull", [
        [0, -2],  # would wrap to ball 0 and pass the axioms
        [0, 7],
    ], ids=str)
    def test_hull_rejected(self, hull):
        balls = [self.FULL, Ball(1, np.array([1, 2]), 2.0)]
        with pytest.raises(ValueError, match=f"^ball 1: hull id {hull[1]} "):
            BallBasis(self.SPACE, balls, hull, K=2.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0, -np.inf], ids=str)
    def test_weight_rejected(self, bad):
        """An inf weight once passed `w > 0`; ball sums, and the error
        bounds of approx_ball_sums that scale with the total, need finite
        ones."""
        weights = np.ones(4)
        weights[2] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            MeasureSpace(weights)


def _same_basis(got, want):
    """got and want hold the same balls, constants and derived indexes."""
    for name in ("lo", "hi", "sizes", "mu", "hull"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert ((got.interval, got.K, got.eta, got.dyadic_levels())
            == (want.interval, want.K, want.eta, want.dyadic_levels()))
    for i in range(want.n_balls):
        assert np.array_equal(got.members(i), want.members(i)), i
    assert len(got.size_groups()) == len(want.size_groups())
    for (g_ids, g_idx), (w_ids, w_idx) in zip(got.size_groups(), want.size_groups()):
        assert np.array_equal(g_ids, w_ids) and np.array_equal(g_idx, w_idx)
    assert np.array_equal(got.pair_index().ball, want.pair_index().ball)


class TestArrayEntry:
    """build_dyadic and build_grid pass arrays to from_spans; the basis
    equals the one the Ball-list entry makes from their balls."""

    @pytest.mark.parametrize("levels", range(11))
    def test_dyadic_matches_ball_list(self, levels):
        _same_basis(build_dyadic(levels), dyadic_by_balls(levels))

    @pytest.mark.parametrize("n", [*range(2, 70), 128])
    def test_grid_matches_ball_list(self, n):
        _same_basis(build_grid(n), grid_by_balls(n))

    @pytest.mark.parametrize("make, seed", [(lambda: build_dyadic(7), 5),
                                            (lambda: build_grid(12), 3)])
    def test_relabelled_members_are_the_input(self, make, seed):
        base = make()
        rel, perm = _relabelled(base, seed)
        for i in range(base.n_balls):
            assert np.array_equal(rel.members(i), np.sort(perm[base.members(i)]))

    def test_members_unknown_id(self, dyadic3):
        for bad in (-1, dyadic3.n_balls):
            with pytest.raises(KeyError):
                dyadic3.members(bad)

    def test_grid_store_memory(self):
        """build_grid(256) and its size groups keep under 28 MiB traced:
        the store's 2,829,056 int64 atoms are 21.6 MiB, and members(i) is
        a view of it."""
        tracemalloc.start()
        try:
            basis = build_grid(256)
            basis.size_groups()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 28 << 20, kept
        assert np.shares_memory(basis.members(basis.n_balls // 2), basis._atoms)


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

    @pytest.mark.parametrize("members", [
        np.arange(0, 30, 4), np.array([1, 5, 6], dtype=np.int32), [0, 3, 8],
        range(2, 9), np.array([7]), build_dyadic(4).members(20),
    ], ids=lambda m: repr(m))
    def test_sorted_input_copied(self, members):
        """A strictly increasing input skips the sort: the result equals
        np.unique, is int64, and is a writable array of its own."""
        got = as_atom_array(members)
        assert got.dtype == np.int64 and got.flags.writeable
        assert np.array_equal(got, np.unique(np.asarray(members)))
        if isinstance(members, np.ndarray):
            assert not np.shares_memory(got, members)


class TestSizeGroups:
    @pytest.mark.parametrize("make", list(STAT_BASES.values()), ids=list(STAT_BASES))
    def test_contract(self, make):
        b = make()
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
        # the members are stored once: every group matrix and members(i) is
        # a read-only view of its slice of the one flat array, by size, then
        # by id
        atoms, start = b._atoms, b._start
        assert len(atoms) == b.sizes.sum()
        for g_ids, idx in groups:
            assert np.shares_memory(idx, atoms) and not idx.flags.writeable
            assert np.array_equal(idx.ravel(), atoms[start[g_ids[0]]:][:idx.size])
        order = np.lexsort((np.arange(b.n_balls), b.sizes))
        assert np.array_equal(start[order], np.cumsum(b.sizes[order]) - b.sizes[order])
        for i in range(b.n_balls):
            assert np.array_equal(atoms[start[i]:start[i] + b.sizes[i]],
                                  b.balls[i].members)
            got = b.members(i)
            assert np.shares_memory(got, atoms) and not got.flags.writeable
            assert np.array_equal(got, atoms[start[i]:start[i] + b.sizes[i]])


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


def _assert_span_index_by_pairs(b):
    """star_sum_index() on interval basis b, built from the spans without
    the pair index, equals the pair-walk reference array for array."""
    index = b.star_sum_index()
    assert b._pair_index is None
    for got, want in zip((index.lo, index.hi, index.counts), span_index_by_pairs(b)):
        assert np.array_equal(got, want)
    assert np.array_equal(index.offsets, np.concatenate([[0], np.cumsum(index.counts)]))


class TestSpanIndex:
    """On interval bases star_sum_index() holds, for each atom, the distinct
    star spans of the balls containing it, sorted; on others it is the pair
    index."""

    @pytest.mark.parametrize("make", list(SCATTER_BASES.values()), ids=list(SCATTER_BASES))
    def test_contract(self, make):
        b = make()
        if not b.interval:
            assert b.star_sum_index() is b.pair_index()
            return
        b.star_spans()
        assert b._span_index is None  # lazy: the star spans do not pay for it
        index = b.star_sum_index()
        assert index.lo.dtype == index.hi.dtype == np.int32
        assert not any(a.flags.writeable
                       for a in (index.lo, index.hi, index.counts, index.offsets))
        slo, shi = b.star_spans()
        for x in range(b.n_atoms):
            balls = b.balls_containing_atom(x)
            span = slice(index.offsets[x], index.offsets[x + 1])
            assert list(zip(index.lo[span].tolist(), index.hi[span].tolist())) == \
                sorted(set(zip(slo[balls].tolist(), shi[balls].tolist())))
        assert np.array_equal(index.members(0, b.n_atoms),
                              np.repeat(np.arange(b.n_atoms), index.counts))
        assert b.star_sum_index() is index
        _assert_span_index_by_pairs(b)

    @settings(max_examples=150, deadline=None)
    @given(basis=st.deferred(lambda: interval_bases()))
    def test_equals_pair_walk(self, basis):
        """On random interval bases (grid, dyadic, reweighted grid, random
        spans with repeats and atoms in no ball) the span-built index
        equals the pair walk."""
        _assert_span_index_by_pairs(basis)

    @pytest.mark.parametrize("make", [lambda: build_grid(256), lambda: build_dyadic(12)],
                             ids=["grid256", "dyadic12"])
    def test_equals_pair_walk_at_size(self, make):
        """The build's blocks split these atoms into several runs
        (151,766 and 49,152 entries), and still equal the pair walk."""
        b = make()
        assert len(list(b.star_sum_index().blocks(0, 1))) > 1
        _assert_span_index_by_pairs(b)

    @pytest.mark.parametrize("make, n_pairs, n_entries",
                             [(lambda: build_grid(64), 45_760, 4_110),
                              (lambda: build_dyadic(8), 2_304, 2_048)],
                             ids=["grid64", "dyadic8"])
    def test_entry_counts(self, make, n_pairs, n_entries):
        b = make()
        assert len(b.pair_index().ball) == n_pairs
        index = b.star_sum_index()
        assert len(index.lo) == len(index.hi) == index.offsets[-1] == n_entries

    def test_spans_shared_by_repeated_balls(self):
        """Balls listed twice, and balls of one star span, add no entry: the
        stars of [1, 2] and [0, 3] are both [0, 3].  An atom in no ball has
        none."""
        space = MeasureSpace(np.ones(5))
        spans = [(0, 0), (0, 0), (1, 2), (1, 2), (0, 3)]
        balls = [Ball(i, np.arange(lo, hi + 1), float(hi - lo + 1))
                 for i, (lo, hi) in enumerate(spans)]
        b = BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)
        index = b.star_sum_index()
        assert b.star_spans()[0].tolist() == [0] * 5
        assert b.star_spans()[1].tolist() == [0, 0, 3, 3, 3]
        assert index.counts.tolist() == [2, 1, 1, 1, 0]
        assert list(zip(index.lo.tolist(), index.hi.tolist())) == \
            [(0, 0), (0, 3), (0, 3), (0, 3), (0, 3)]
        assert len(b.pair_index().ball) == 10


def _assert_star_spans_by_mask(basis):
    got, want = basis.star_spans(), star_spans_by_mask(basis)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@st.composite
def star_rule_bases(draw):
    """Random atom spans over 1 to 12 atoms of weights in {0.5, 1, 2}, so
    that mu(A) = 2 mu(B) ties occur: repeats possible, a full ball present
    or not, and in some bases balls stored with measure 0, -1, -3 or NaN
    (a ball of measure -1 or NaN is outside its own star rule, and one of
    -3 is inside the rule of one of -1)."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    space = MeasureSpace(rng.choice([0.5, 1.0, 2.0], n))
    spans = np.sort(rng.integers(0, n, size=(draw(st.integers(1, 20)), 2)), axis=1)
    mu = np.array([space.measure(np.arange(lo, hi + 1)) for lo, hi in spans])
    odd = rng.random(len(mu)) < draw(st.sampled_from([0.0, 0.3]))
    mu[odd] = rng.choice([0.0, -1.0, -3.0, np.nan], int(odd.sum()))
    balls = [Ball(i, np.arange(lo, hi + 1), float(m))
             for i, ((lo, hi), m) in enumerate(zip(spans, mu))]
    return BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)


class TestStar:
    def test_star_spans_equal_per_ball_loop(self, scatter_basis):
        _assert_star_spans_by_mask(scatter_basis)

    @settings(max_examples=150, deadline=None)
    @given(basis=star_rule_bases())
    def test_star_spans_equal_mask_on_random_spans(self, basis):
        _assert_star_spans_by_mask(basis)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_star_spans_equal_mask_on_reweighted_grids(self, n, seed):
        """Random atom weights give more distinct measures than atoms, so
        the sweep's rows (measure ranks) outnumber its columns (atoms)."""
        basis = _reweighted(build_grid(n), seed)
        assert len(np.unique(basis.mu)) > n
        _assert_star_spans_by_mask(basis)

    def test_star_spans_memory(self):
        """The spans of build_dyadic(12) (4,096 atoms, 8,191 balls) hold no
        (m, n_balls) star-rule mask: a traced peak under 4 MiB."""
        basis = build_dyadic(12)
        tracemalloc.start()
        try:
            basis.star_spans()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

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

    @pytest.mark.parametrize("make", [
        lambda: build_grid(24), lambda: _reweighted(build_grid(24), seed=7),
        lambda: build_dyadic(7), lambda: _relabelled(build_dyadic(7), seed=5)[0]],
        ids=["grid24", "grid24_weighted", "dyadic7", "dyadic7_relabelled"])
    def test_rows_equal_matrix_rows(self, make, rng):
        """BallBasis.volume_distance_rows equals the same rows of the full
        matrix, for any ids (unsorted, repeated, one, none); neither is
        kept."""
        basis = make()
        dmat = volume_distance_matrix(basis)
        nb = basis.n_balls
        for ids in (rng.permutation(nb)[:40], rng.integers(0, nb, size=30),
                    np.array([nb - 1]), np.arange(nb), np.array([], dtype=np.int64)):
            assert np.array_equal(basis.volume_distance_rows(ids), dmat[ids])
        assert _kept_ball_by_atom_arrays(basis) == []

    def test_antitone_in_ball(self, grid16):
        # d(x, A) <= d(x, B) whenever A is inside B
        inner = ball_by_span(grid16, 4, 5)
        outer = ball_by_span(grid16, 3, 8)
        dmat = volume_distance_matrix(grid16)
        assert np.all(dmat[inner] <= dmat[outer])


class TestExhaustingSequence:
    def test_dyadic_chain(self, dyadic3):
        chain = exhausting_sequence(dyadic3)
        assert all(type(i) is int for i in chain)
        assert len(dyadic3.members(chain[-1])) == dyadic3.n_atoms
        for a, b in zip(chain, chain[1:]):
            assert set(dyadic3.members(a)) < set(dyadic3.members(b))

    def test_grid_chain(self):
        grid = build_grid(4)
        chain = exhausting_sequence(grid)
        assert list(grid.members(chain[-1])) == [0, 1, 2, 3]

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


def _pair_star_sums(basis, kernel, v):
    """The row of member_star_sums for every (ball, member) pair of
    pair_index(), in its order.  On interval bases the rows are one per
    star_sum_index() entry, so each pair's row is looked up by its atom and
    its ball's star span, and every pair must find one."""
    def rows_of(rows):
        return kernel[rows]

    rows = np.concatenate([s for _, _, s in basis.member_star_sums(rows_of, v)])
    if not basis.interval:
        return rows
    n = basis.n_atoms
    index, pairs = basis.star_sum_index(), basis.pair_index()
    slo, shi = basis.star_spans()

    def key(atom, lo, hi):  # ascends with (atom, lo, hi), as the entries do
        return (atom * (n + 1) + lo) * (n + 1) + hi + 1

    keys = key(index.members(0, n), index.lo.astype(np.int64),
               index.hi.astype(np.int64))
    assert np.all(np.diff(keys) > 0)
    want = key(pairs.members(0, n), slo[pairs.ball], shi[pairs.ball])
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    assert np.array_equal(keys[at], want)
    return rows[at]


def _star_groups(basis):
    """Every ball's star as a row, grouped by star size (rows that are not
    atom intervals off interval bases)."""
    atoms, offsets = basis.star_lists()
    size = np.diff(offsets)
    return [(ids, atoms[_ranges(offsets[ids], size[ids])].reshape(-1, k))
            for k in np.unique(size) for ids in [np.flatnonzero(size == k)]]


def _k_min_by_argmax(basis):
    """check_axioms's k_min, each star's cover measure taken by
    superset_max_by_argmax over the star groups."""
    cover = -superset_max_by_argmax(basis, -basis.mu, _star_groups(basis))
    covered = np.isfinite(cover)
    return float(np.fmax.reduce(cover[covered] / basis.mu[covered], initial=0.0))


def _with_hulls(basis, ids, targets):
    """basis with the hull of each ball of ids pointed at targets."""
    hull = basis.hull.copy()
    hull[ids] = targets
    return BallBasis(basis.space, basis.balls, hull, K=basis.K, eta=basis.eta)


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
            dense[pairs.ball, pairs.members(0, n)] = _pair_star_sums(basis, k, v)
            sums[basis] = dense
        assert np.array_equal(np.isnan(sums[rel][:, perm]), np.isnan(sums[base]))
        assert np.allclose(sums[rel][:, perm], sums[base], rtol=1e-12, atol=0.0,
                           equal_nan=True)
        vals = rng.normal(size=nb)
        assert np.array_equal(rel.superset_max(vals), base.superset_max(vals))
        assert np.array_equal(base.superset_max(vals),
                              [vals[base.supersets(i)].max() for i in range(nb)])

    @settings(max_examples=60, deadline=None)
    @given(base=span_bases(min_atoms=3), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_spans_agree(self, base, seed):
        """Random interval bases (repeated spans, random weights, atoms in no
        ball) against their relabelled copies: the queries that take the
        span paths on one and the pair index on the other answer alike."""
        rel, perm = _relabelled(base, seed)
        assume(not rel.interval)
        rng = np.random.default_rng(seed)
        n, nb = base.n_atoms, base.n_balls
        vals = rng.normal(size=nb)
        vals[rng.integers(0, nb)] = vals[0]  # a tie
        sets = [np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                for _ in range(nb)]
        by_size = {}
        for i, s in enumerate(sets):
            by_size.setdefault(len(s), []).append(i)
        groups = [(np.array(ids), np.array([sets[i] for i in ids]))
                  for ids in by_size.values()]
        moved = [(ids, np.sort(perm[idx], axis=1)) for ids, idx in groups]
        for strict in (False, True):
            want = base.superset_max(vals, strict=strict)
            assert np.array_equal(rel.superset_max(vals, strict=strict), want)
            assert np.array_equal(want, superset_max_by_matrix(base, vals, strict=strict))
            assert np.array_equal(superset_max_by_argmax(rel, vals, moved, strict),
                                  superset_max_by_argmax(base, vals, groups, strict))
        report = check_axioms(rel)
        assert report == check_axioms_by_loop(rel)
        assert report.k_min == _k_min_by_argmax(rel) == check_axioms(base).k_min
        for ufunc, start in ((np.maximum, -np.inf), (np.minimum, np.inf)):
            got = rel.containing_reduce(ufunc, vals, np.full(n, start))
            assert np.array_equal(got[perm],
                                  base.containing_reduce(ufunc, vals, np.full(n, start)))
        (b_atoms, b_off), (r_atoms, r_off) = base.star_lists(), rel.star_lists()
        assert np.array_equal(b_off, r_off)
        for i in range(nb):
            assert np.array_equal(np.sort(perm[b_atoms[b_off[i]:b_off[i + 1]]]),
                                  r_atoms[r_off[i]:r_off[i + 1]])
            for strict in (False, True):
                assert np.array_equal(base.supersets(i, strict), rel.supersets(i, strict))
            assert base.smallest_strict_superset(i) == rel.smallest_strict_superset(i)
        ids = rng.integers(0, nb, size=2 * nb)
        want = base.volume_distance_rows(ids)
        assert np.array_equal(rel.volume_distance_rows(ids)[:, perm], want)
        for row, i in enumerate(ids[:8].tolist()):
            x = int(rng.integers(0, n))
            assert want[row, x] == _volume_distance(base, x, i)


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
    index, and per-atom reductions from the member store; they must equal
    the membership-matrix answers."""

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
            assert np.array_equal(basis._containing(idx),
                                  containing_by_matrix(basis, idx))
            assert np.array_equal(basis.star_of_set(idx[0]),
                                  star_of_set_by_matrix(basis, idx[0]))
        vals = rng.normal(size=nb)
        member = membership_by_loop(basis)
        by_ball = np.broadcast_to(vals[:, None], member.shape)
        assert np.array_equal(basis.containing_reduce(np.maximum, vals, np.zeros(n)),
                              np.max(by_ball, axis=0, where=member, initial=0.0))
        rank = rng.integers(0, nb + 1, nb)
        by_ball = np.broadcast_to(rank[:, None], member.shape)
        assert np.array_equal(basis.containing_reduce(np.minimum, rank, np.full(n, nb)),
                              np.min(by_ball, axis=0, where=member, initial=nb))
        for strict in (False, True):
            assert np.array_equal(basis.superset_max(vals, strict=strict),
                                  superset_max_by_matrix(basis, vals, strict))
        # the stars' covers through k_min, and the hull check with the hulls
        # of up to three balls pointed at seeded balls
        ids = np.arange(min(3, nb))
        for b in (basis, _with_hulls(basis, ids, rng.integers(0, nb, len(ids)))):
            report = check_axioms(b)
            assert report == check_axioms_by_loop(b)
            assert report.k_min == _k_min_by_argmax(b)

    def test_no_membership_matrix(self, monkeypatch, rng):
        """With a full ball, the axiom check, the ball sums, containment,
        stars and the kernel, sparse, identity and zero truncations never
        build the membership matrix; member_matrix() itself is a float64
        0/1 array built on each call and not kept."""
        basis = _relabelled(build_dyadic(7), seed=5)[0]
        assert basis.full_ball_id() is not None
        member_matrix = BallBasis.member_matrix
        monkeypatch.setattr(BallBasis, "member_matrix", _refuse_membership)
        check_axioms(basis)
        basis.ball_integrals(rng.normal(size=basis.n_atoms))
        _query_without_membership(basis, rng)
        kernel = OperatorDescriptor("kernel", basis, Params.classical_profile(1.0),
                                    kernel=rng.normal(size=(basis.n_atoms,) * 2))
        f = VecFunction(rng.normal(size=(basis.n_atoms, 2)))
        for T in (kernel, sparse_operator(basis, rng.choice(basis.n_balls, 8)),
                  identity_operator(basis), zero_operator(basis)):
            truncate(T).apply(f)

        built = member_matrix(basis)
        assert member_matrix(basis) is not built
        assert _kept_ball_by_atom_arrays(basis) == []
        assert built.dtype == np.float64
        assert np.array_equal(built, membership_by_loop(basis).astype(np.float64))

    def test_relabelled_queries_keep_no_ball_by_atom_array(self, rng):
        """On a relabelled basis with no full ball, the axiom check (its B2
        scan reads the membership matrix) and a kernel truncation (its star
        mask) keep no n_balls x n_atoms array."""
        base = build_dyadic(7)
        balls = [Ball(i, b.members, b.measure) for i, b in enumerate(base.balls[1:])]
        basis = _relabelled(BallBasis(base.space, balls, np.zeros(len(balls),
                                                                  dtype=np.int64),
                                      K=3.0), seed=5)[0]
        assert not basis.interval and basis.full_ball_id() is None
        check_axioms(basis)
        kernel = OperatorDescriptor("kernel", basis, Params.classical_profile(1.0),
                                    kernel=rng.normal(size=(basis.n_atoms,) * 2))
        truncate(kernel).apply(VecFunction(rng.normal(size=(basis.n_atoms, 2))))
        assert _kept_ball_by_atom_arrays(basis) == []

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
    def test_ball_integrals_equal_exact_sums(self, make, rng):
        basis = make()
        assert not basis.interval
        _assert_ball_integrals_by_matrix(basis, rng)

    def test_ball_integrals_memory(self, rng):
        """Ball sums on permuted dyadic 11 (2,048 atoms, 4,095 balls) hold
        no n_balls x n_atoms array (64 MiB as float64), on the first call
        or kept after it: a traced peak under 1 MiB."""
        basis = _relabelled(build_dyadic(11), seed=3)[0]
        mass = rng.normal(size=basis.n_atoms)
        tracemalloc.start()
        try:
            basis.ball_integrals(mass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def _assert_star_lists_by_matrix(basis):
    """star_lists() holds, ball by ball, the membership-matrix star."""
    atoms, offsets = basis.star_lists()
    for i, b in enumerate(basis.balls):
        assert np.array_equal(atoms[offsets[i]:offsets[i + 1]],
                              star_of_set_by_matrix(basis, b.members))


def _assert_ball_integrals_by_matrix(basis, rng):
    """ball_integrals on a non-interval basis equals, ball by ball, the
    correctly rounded sum (math.fsum) of the masses of the reference
    membership matrix's row, to within L * 2**-52 * sum |mass| for a ball of
    L atoms: the rounding any order of L - 1 additions can reach, plus the
    reference's own rounding.  A wrong or missing atom moves a sum by a
    whole mass."""
    member = membership_by_loop(basis)
    for scale in (1.0, 1e-170, 1e170):
        mass = scale * rng.normal(size=basis.n_atoms) * rng.lognormal(
            sigma=2.0, size=basis.n_atoms)
        got = basis.ball_integrals(mass)
        for i, row in enumerate(member):
            x = mass[row]
            bound = len(x) * 2.0 ** -52 * math.fsum(np.abs(x))
            assert abs(got[i] - math.fsum(x)) <= bound, (i, got[i], math.fsum(x))


def _refuse_membership(self):
    raise AssertionError("membership matrix built")


def _refuse_pair_index(self, basis):
    raise AssertionError("pair index built")


def _count_inits(monkeypatch):
    """The list every BallBasis made from now on is appended to: both
    entries (the Ball list and from_spans) run the shared initialiser."""
    made = []
    init = BallBasis._store

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(BallBasis, "_store", recording)
    return made


def _kept_ball_by_atom_arrays(basis):
    """The attributes of basis that hold an (n_balls, n_atoms) array, alone
    or inside tuples and lists."""
    shape = (basis.n_balls, basis.n_atoms)

    def arrays(val):
        if isinstance(val, (tuple, list)):
            return [a for v in val for a in arrays(v)]
        return [val] if isinstance(val, np.ndarray) else []

    return [name for name, val in vars(basis).items()
            if any(a.shape == shape for a in arrays(val))]


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


def _duplicate_spans_basis(seed):
    """Seeded atom spans over 13 atoms of random weights, none of them every
    atom, the first six listed twice: an interval basis with repeated spans
    and no full ball."""
    rng = np.random.default_rng(seed)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 13))
    spans = np.sort(rng.integers(0, 13, size=(30, 2)), axis=1)
    spans = spans[spans[:, 1] - spans[:, 0] < 12]
    spans = np.concatenate([spans, spans[:6]])
    balls = [Ball(i, np.arange(lo, hi + 1), space.measure(np.arange(lo, hi + 1)))
             for i, (lo, hi) in enumerate(spans)]
    return BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)


SWEEP_BASES = {
    "grid31": lambda: build_grid(31),
    "grid32": lambda: build_grid(32),
    "dyadic7": lambda: build_dyadic(7),
    "duplicate_spans": lambda: _duplicate_spans_basis(3),
    "grid24_weighted": lambda: _reweighted(build_grid(24), seed=7),
    "dyadic7_permuted": lambda: _relabelled(build_dyadic(7), seed=5)[0],
}


class TestSupersetMaxSweep:
    """Interval bases take superset maxima by one sweep over lo, the other
    bases by one masked max per size group: both equal the argmax reference
    bitwise.  check_axioms's star covers (through k_min) equal it too, and
    its hull check the per-ball loop."""

    @pytest.mark.parametrize("name", sorted(SWEEP_BASES))
    @pytest.mark.parametrize("strict", [False, True])
    def test_equals_argmax_reference(self, name, strict):
        basis = SWEEP_BASES[name]()
        rng = np.random.default_rng(4)
        sharp = sharp_all(VecFunction(tied_values(basis.n_atoms, 1)), basis)
        assert (sharp == 0).any() and len(np.unique(sharp)) < basis.n_balls
        for vals in (np.round(rng.normal(size=basis.n_balls), 1), sharp, -basis.mu):
            assert np.array_equal(basis.superset_max(vals, strict=strict),
                                  superset_max_by_argmax(basis, vals, strict=strict))
        # the hulls of 16 seeded balls pointed at seeded balls, too
        ids = rng.permutation(basis.n_balls)[:16]
        for b in (basis, _with_hulls(basis, ids, rng.integers(0, basis.n_balls, len(ids)))):
            report = check_axioms(b)
            assert report.k_min == _k_min_by_argmax(b)
            assert report == check_axioms_by_loop(b)

    @pytest.mark.parametrize("levels", [9, 11])
    def test_permuted_dyadic_axioms(self, levels, monkeypatch):
        """check_axioms on permuted dyadic bases (containment masks) equals
        the interval basis (the sweeps) and the per-ball loop; its k_min
        and strict superset maxima equal the argmax reference."""
        base = build_dyadic(levels)
        rel = _relabelled(base, seed=0)[0]
        got = check_axioms(rel)
        assert got == check_axioms(base) == check_axioms_by_loop(rel)
        assert got.k_min == _k_min_by_argmax(rel)
        monkeypatch.setattr(BallBasis, "superset_max", superset_max_by_argmax)
        assert got == check_axioms(rel) == check_axioms(base)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_permuted_dyadic_hull_can_fail(self, seed):
        """On the dyadic-permuted benchmark layout, a leaf's hull pointed at
        the leaf itself, which misses one atom of its star (the parent),
        fails the hull check for that ball alone."""
        rel = _relabelled(build_dyadic(9), seed)[0]
        leaf = 700
        assert np.setdiff1d(rel.star_members(leaf), rel.members(leaf)).size == 1
        broken = _with_hulls(rel, [leaf], [leaf])
        report = check_axioms(broken)
        assert not report.hull_valid and report.hull_failures == [leaf]
        assert report == check_axioms_by_loop(broken)

    def test_grid256_memory(self):
        """superset_max on build_grid(256) (32,896 balls) builds no mask
        over the balls: a traced peak under 4 MB, strict or not."""
        basis = build_grid(256)
        vals = np.random.default_rng(0).normal(size=basis.n_balls)
        basis.superset_max(vals)
        for strict in (False, True):
            tracemalloc.start()
            try:
                basis.superset_max(vals, strict=strict)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (strict, peak)


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
        if basis.dyadic_levels() is not None:
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
    def test_no_stage_keeps_ball_by_atom_array(self, config, monkeypatch,
                                               tmp_path):
        """After every stage of `all` on the shipped configs, no basis the
        run made keeps an n_balls x n_atoms array."""
        made = _count_inits(monkeypatch)
        path = Path(__file__).parents[1] / "configs" / f"{config}.json"
        assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert made and all(_kept_ball_by_atom_arrays(b) == [] for b in made)

    @pytest.mark.parametrize("config", ["dyadic-martingale", "grid-hilbert"])
    def test_no_stage_makes_a_ball(self, config, monkeypatch, tmp_path):
        """Every stage of `all` on the shipped configs reads balls by id:
        no `Ball` is constructed."""
        made = []
        init = Ball.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Ball, "__init__", recording)
        path = Path(__file__).parents[1] / "configs" / f"{config}.json"
        assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert made == []
        Ball(0, np.zeros(1, dtype=np.int64), 1.0)
        assert len(made) == 1  # the patch counts

    @pytest.mark.parametrize("config", ["dyadic-martingale", "grid-hilbert"])
    def test_no_stage_builds_membership_matrix(self, config, monkeypatch,
                                               tmp_path):
        """Every stage of `all` on the shipped configs (interval bases with
        a full ball) runs without the membership matrix and without the
        pair index: per-atom maxima read the member store, and the span
        index is built from the spans."""
        monkeypatch.setattr(BallBasis, "member_matrix", _refuse_membership)
        monkeypatch.setattr(PairIndex, "__init__", _refuse_pair_index)
        path = Path(__file__).parents[1] / "configs" / f"{config}.json"
        assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_star2_members_memory(self):
        """star2_members on build_dyadic(11) (2,048 atoms, 4,095 balls) holds
        no n_balls x n_atoms array: a traced peak under 1 MB for the full
        ball and for a leaf.  The kept star spans are built beforehand,
        since building them peaks at about 0.7 MiB here."""
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
# membership matrix, size groups) only here:
LAYOUT_ATTRS = {"interval", "star_spans", "member_matrix", "size_groups"}
LAYOUT_READS = sorted([
    # the median cores of every ball, a block of size groups per medians call
    ("functional", "ball_medians", "size_groups"),
    # the lower kernel bound c1 gathers each ball's members, a size group at a time
    ("functional", "build_regular_family", "size_groups"),
    # <f>_{#,B} of every ball gathers its members, a size group at a time
    ("functional", "sharp_all_stack", "size_groups"),
    # the exact L1/R4 pass gathers kernel rows, a size group at a time
    ("operators", "estimate_bo_constants", "size_groups"),
    # the grid kernels need every ball an atom interval
    ("operators", "_require_grid", "interval"),
    # the exact L1 pass runs on interval bases only (peak memory)
    ("operators", "estimate_bo_constants", "interval"),
    # the exact L1 pass masks each ball's star span, a size group at a time
    ("operators", "estimate_bo_constants", "star_spans"),
    # star ids are read off star spans (dyadic_levels checked the layout)
    ("operators", "square_function", "star_spans"),
    # the John-Nirenberg tails of every ball, a size group at a time
    ("verify", "john_nirenberg_report", "size_groups"),
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


def test_kernel_reads_stay_in_descriptor():
    """Outside the OperatorDescriptor class, no src line reads `.kernel`: the
    exact passes read kernel entries through `kernel_block` only, so an
    operator that declares its kernel by structure needs no dense array."""
    reads = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and top.name == "OperatorDescriptor":
                continue
            reads += [(path.stem, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "kernel"]
    assert reads == []


def test_store_reads_stay_in_basis():
    """Outside the BallBasis and PairIndex classes, no src line reads
    `._atoms`, `._start` or `._order`: the member store's layout stays
    behind the class that builds it."""
    reads = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and top.name in ("BallBasis", "PairIndex"):
                continue
            reads += [(path.stem, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("_atoms", "_start", "_order")]
    assert reads == []


def test_src_reads_balls_by_id():
    """Outside space.py, no module reads `.balls` or constructs a `Ball`:
    a ball's members are read by id, `basis.members(i)`."""
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "balls"
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "Ball"):
                found.append((path.stem, node.lineno))
    assert found == []


def _is_basis(node):
    """A name ending in basis, or an attribute called basis (T.basis)."""
    return (isinstance(node, ast.Name) and node.id.endswith("basis")
            or isinstance(node, ast.Attribute) and node.attr == "basis")


def test_basis_attributes_set_only_in_space():
    """Outside space.py, no statement assigns to an attribute of a basis (or
    into one, basis.x[i] = ...) or calls setattr on one: what a basis keeps
    is built and owned by space.py."""
    writes = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and node.args
                  and _is_basis(node.args[0])):
                writes.append((path.stem, node.lineno))
                continue
            else:
                continue
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets += t.elts
                    continue
                while isinstance(t, (ast.Subscript, ast.Starred)):
                    t = t.value
                if isinstance(t, ast.Attribute) and _is_basis(t.value):
                    writes.append((path.stem, node.lineno))
    assert writes == []


# Outside space.py, the per-ball containment queries are called only here;
# everything else takes containing balls one size group at a time.
CONTAINMENT_QUERIES = {"balls_containing_atom", "supersets",
                       "smallest_strict_superset"}
CONTAINMENT_CALLS = sorted([
    # repair of the few atoms the tolerant tree left uncovered
    ("domination", "lerner_decompose", "balls_containing_atom"),
    # the growth condition is checked per (ball, superset) pair
    ("functional", "build_regular_family", "supersets"),
    # the one pass per sampled ball
    ("operators", "estimate_bo_constants", "supersets"),
    # the doubling growth and the half-density postcondition, per output ball
    ("sparsify", "child_cover", "smallest_strict_superset"),
    ("sparsify", "child_cover", "supersets"),
    # the half-density postcondition, per tree node
    ("sparsify", "_verify_sparse_tree", "supersets"),
])


# Outside space.py, only the sparse operator's truncation builds the pair
# index (its (pairs x k) maximum is one reduceat); every other per-atom
# reduction is BallBasis.containing_reduce over the member store.
PAIR_INDEX_CALLS = [("operators", "sparse_operator")]


def test_pair_index_callers_stay_listed():
    calls = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py")):
        if path.name == "space.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "pair_index"):
                    calls.add((path.stem, getattr(top, "name", "<module>")))
    assert sorted(calls) == PAIR_INDEX_CALLS


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


def test_traced_names_resolve():
    """Every name perfbench/tracer.py wraps (its TRACED table, read with ast
    and not imported), and the two it patches by hand, resolves to a
    callable in ballbasis: deleting or renaming one fails here, not in the
    traced benchmark run."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    traced = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    names = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns]
    assert "functional.volume_distance_matrix" in names
    for name in names + ["operators.OperatorDescriptor.apply", "operators.truncate"]:
        mod, *attrs = name.split(".")
        obj = importlib.import_module(f"ballbasis.{mod}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name


# Every def and class in src/ballbasis serves the paper's results: a name is
# reached from cli.main or from a name the acceptance tests import from
# ballbasis, following the names each reached body mentions (matched by name
# alone; a reached class brings its class body and dunder methods).  Module
# code other than imports counts as reached.  Matching by name has a blind
# spot: a method shares the fate of every def of its name, so a second
# to_dict would hide behind Report.to_dict, today the only one.
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


# Every string key src writes into a details or constants dict (a dict display
# passed as details= or assigned to constants, or a subscript store) is read in
# src or the tests by a string subscript or .get("key"), or is listed here
# with the reason it is kept.
UNREAD_KEYS = sorted([
    # ROADMAP Item 8 is to emit the family sizes and the truncated-operator
    # constant of each sparse bound in report.json
    "constant_truncated",
    "nodes",
])


def _str_key(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value


def _dict_name(node):
    """The name a dict is held under: details for details and bound.details."""
    return getattr(node, "id", getattr(node, "attr", None))


def test_every_key_is_read():
    src = sorted((Path(__file__).parents[1] / "src" / "ballbasis").glob("*.py"))
    writes, reads = set(), set()
    for path in src + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                reads.add(_str_key(node.slice))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
                  and node.args):
                reads.add(_str_key(node.args[0]))
            if path not in src:
                continue
            if isinstance(node, ast.keyword) and node.arg == "details":
                writes.update(_str_key(k) for k in getattr(node.value, "keys", []))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                if any(_dict_name(t) == "constants" for t in targets):
                    writes.update(_str_key(k) for k in getattr(node.value, "keys", []))
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and _dict_name(node.value) in ("details", "constants")):
                writes.add(_str_key(node.slice))
    assert "lambda" in writes and "child_mass_ratio" in writes
    assert sorted(writes - reads - {None}) == UNREAD_KEYS


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


# Every ball's median representative comes from one functional.ball_medians
# call: no medians( call sits inside a loop or comprehension in verify.py.
def test_no_medians_in_verify_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"medians"}, 1, [src / "verify.py"]) == []


# A reduction over the balls containing each atom is one ufunc.at over the
# member store (BallBasis.containing_reduce) or one ufunc.reduceat over an
# atom index: no ufunc.at( call sits inside a loop or comprehension in
# src/ballbasis.
def test_no_scatter_at_in_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"at"}, 1, sorted(src.glob("*.py"))) == []


# The BMO norms of a stack of functions are one functional.sharp_all_stack
# pass: no bmo_norm( or sharp_all( call sits inside a loop or comprehension
# in src/ballbasis.
def test_no_sharp_statistics_in_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    assert _looped_calls({"bmo_norm", "sharp_all"}, 1, sorted(src.glob("*.py"))) == []


# check_axioms reads containment from the sweeps or one stacked test per star
# size: no per-ball containment query sits in a loop inside it, and no
# stacked one in a nested loop.  exhausting_sequence's chain walk is per ball
# by nature.
def test_no_containment_queries_in_axiom_loops():
    src = Path(__file__).parents[1] / "src" / "ballbasis"
    names = {"supersets", "smallest_strict_superset", "contains",
             "balls_containing_atom"}
    assert _looped_calls(names, 1, [src / "space.py"], "check_axioms") == []
    assert _looped_calls({"_containing"}, 2, [src / "space.py"], "check_axioms") == []
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
