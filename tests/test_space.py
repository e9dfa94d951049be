import json

import numpy as np
import pytest

from ballbasis import (BallBasis, NoContainingBall, build_dyadic, build_grid,
                       check_axioms, doubling_chain, enlarge,
                       exhausting_sequence, volume_distance)

from conftest import STAT_BASES


def ball_by_span(basis, lo, hi):
    ids = np.flatnonzero((basis.lo == lo) & (basis.hi == hi))
    assert ids.size >= 1
    return int(ids[0])


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
        assert list(enlarge(b, left, "star")) == [0, 1]

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
        star = enlarge(b, mid, "star")
        assert list(star) == [0, 1, 2]
        hull = enlarge(b, mid, "hull")
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


class TestEnlarge:
    def test_dyadic_smallest_ball_star(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 0)
        assert list(enlarge(dyadic3, b, "star")) == [0, 1]

    def test_star_fixed_point(self, dyadic3):
        full = dyadic3.full_ball_id()
        star = enlarge(dyadic3, full, "star")
        assert len(star) == dyadic3.n_atoms
        assert len(enlarge(dyadic3, full, "star2")) == dyadic3.n_atoms

    def test_hull2_capped_by_space(self, grid8):
        b = ball_by_span(grid8, 3, 4)
        h2 = enlarge(grid8, b, "hull2")
        assert h2.measure <= 8.0

    def test_unknown_mode(self, dyadic3):
        with pytest.raises(ValueError):
            enlarge(dyadic3, 0, "megahull")


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
        doc = json.loads(dyadic3.to_json())
        # point a small ball's hull at itself; its star is strictly larger
        victim = ball_by_span(dyadic3, 0, 0)
        doc["hull"][victim] = victim
        broken = BallBasis.from_json(json.dumps(doc))
        rep = check_axioms(broken)
        assert not rep.hull_valid
        assert victim in rep.hull_failures


class TestVolumeDistance:
    def test_inside_bounded_by_hull(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 1)
        d = volume_distance(dyadic3, 0, b)
        assert d <= dyadic3.hull_ball(b).measure

    def test_dyadic_far_atom(self, dyadic3):
        b = ball_by_span(dyadic3, 0, 0)
        assert volume_distance(dyadic3, 5, b) == 1.0

    def test_grid_span(self, grid8):
        b = ball_by_span(grid8, 0, 1)
        assert volume_distance(grid8, 5, b) == 6.0

    def test_bad_atom(self, grid8):
        with pytest.raises(NoContainingBall):
            volume_distance(grid8, 99, 0)

    def test_antitone_in_ball(self, grid16):
        # d(x, A) <= d(x, B) whenever A is inside B
        inner = ball_by_span(grid16, 4, 5)
        outer = ball_by_span(grid16, 3, 8)
        for x in range(16):
            assert (volume_distance(grid16, x, inner)
                    <= volume_distance(grid16, x, outer))


class TestExhaustingSequence:
    def test_dyadic_chain(self, dyadic3):
        chain = exhausting_sequence(dyadic3)
        assert len(chain[-1].members) == dyadic3.n_atoms
        for a, b in zip(chain, chain[1:]):
            assert set(a.members) < set(b.members)

    def test_grid_chain(self):
        chain = exhausting_sequence(build_grid(4))
        assert list(chain[-1].members) == [0, 1, 2, 3]


class TestDoublingChain:
    def test_degenerate(self, dyadic3):
        full = dyadic3.full_ball_id()
        out = doubling_chain(dyadic3, full, full)
        assert out["max_ratio"] <= dyadic3.K

    def test_dyadic_atom_to_root(self, dyadic6):
        a = ball_by_span(dyadic6, 0, 0)
        root = dyadic6.full_ball_id()
        out = doubling_chain(dyadic6, a, root)
        assert out["length"] == 6
        for x, y in zip(out["chain"], out["chain"][1:]):
            assert y.measure / x.measure == 2.0

    def test_grid_ratio_bound(self, grid64):
        a = ball_by_span(grid64, 0, 0)
        b = ball_by_span(grid64, 0, 63)
        out = doubling_chain(grid64, a, b)
        assert out["max_ratio"] <= out["ratio_bound"] + 1e-12


class TestInvariants:
    def test_star_hull_sandwich(self, dyadic4):
        for i in range(dyadic4.n_balls):
            b = set(int(a) for a in dyadic4.balls[i].members)
            s = set(int(a) for a in dyadic4.star_members(i))
            h = set(int(a) for a in dyadic4.hull_ball(i).members)
            assert b <= s <= h
            assert dyadic4.hull_ball(i).measure <= dyadic4.K * dyadic4.mu[i] + 1e-12

    def test_two_balls_relation(self, grid8):
        for i in range(grid8.n_balls):
            star = set(int(a) for a in grid8.star_members(i))
            for j in range(grid8.n_balls):
                meets = grid8.lo[j] <= grid8.hi[i] and grid8.hi[j] >= grid8.lo[i]
                if meets and grid8.mu[j] <= 2 * grid8.mu[i]:
                    assert set(int(a) for a in grid8.balls[j].members) <= star

    def test_far_atom_distance_lower_bound(self, grid8):
        # x outside star(B) and A inside B force d(x, A) >= mu(B)
        for bi in range(grid8.n_balls):
            star = set(int(a) for a in grid8.star_members(bi))
            inner = [i for i in range(grid8.n_balls) if grid8.contains(i, bi)]
            for x in range(8):
                if x in star:
                    continue
                for ai in inner:
                    assert volume_distance(grid8, x, ai) >= grid8.mu[bi]


class TestSerialization:
    def test_round_trip(self, dyadic3):
        text = dyadic3.to_json()
        again = BallBasis.from_json(text)
        assert again.to_json() == text
        assert again.n_balls == dyadic3.n_balls
        assert np.array_equal(again.hull, dyadic3.hull)
