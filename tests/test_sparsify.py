import re

import numpy as np
import pytest

import ballbasis.sparsify
from ballbasis import (BallBasis, ConstructionFailure, NestingViolated,
                       NotACover, PostconditionFailure, build_dyadic,
                       build_grid, child_cover, disjointify, sparsify_tree,
                       vitali_cover)
from ballbasis.cli import make_f_family
from ballbasis.sparsify import _dense_ranks, _half_dense, _verify_sparse_tree

from conftest import (_relabelled, _reweighted, dense_ranks_by_groups,
                      f_family_by_loop)


def span_ball(basis, lo, hi):
    return int(np.flatnonzero((basis.lo == lo) & (basis.hi == hi))[0])


class TestVitali:
    def test_single_ball(self, dyadic3):
        full = dyadic3.full_ball_id()
        assert vitali_cover(dyadic3, range(8), [full]) == [full]

    def test_atom_balls_all_kept(self, dyadic3):
        atoms = [span_ball(dyadic3, i, i) for i in range(8)]
        got = vitali_cover(dyadic3, range(8), atoms)
        assert sorted(got) == sorted(atoms)

    def test_grid_overlapping_family(self, grid16):
        fam = [span_ball(grid16, lo, min(lo + 2, 15)) for lo in range(0, 16, 2)]
        got = vitali_cover(grid16, range(16), fam)
        used = np.zeros(16, dtype=bool)
        for g in got:
            m = grid16.balls[g].members
            assert not used[m].any()
            used[m] = True
        stars = np.zeros(16, dtype=bool)
        for g in got:
            stars[grid16.star_members(g)] = True
        assert stars.all()

    def test_not_a_cover(self, dyadic3):
        with pytest.raises(NotACover):
            vitali_cover(dyadic3, range(8), [span_ball(dyadic3, 0, 3)])


class TestChildCover:
    def test_empty_target(self, dyadic3):
        assert child_cover(dyadic3, [0, 1], []) == []

    def test_vitali_star_cover_checked(self, grid16, monkeypatch):
        """The Vitali step checks its star cover on the atoms of E in a
        picked ball: with each star cut down to its ball, atom 8 of
        E = F = {2, 5, 8} lies in a picked ball outside every star."""
        child_cover(grid16, [2, 5, 8], [2, 5, 8])
        monkeypatch.setattr(BallBasis, "star_members",
                            lambda self, b: self.balls[b].members)
        with pytest.raises(PostconditionFailure,
                           match="stars of the selection") as err:
            child_cover(grid16, [2, 5, 8], [2, 5, 8])
        assert err.value.witness == [8]

    def test_single_atom(self, dyadic6):
        got = child_cover(dyadic6, [5], [5])
        w = dyadic6.space.weights
        total = sum(float(w[dyadic6.balls[g].members].sum()) for g in got)
        assert total <= 2 * dyadic6.K * float(w[5]) + 1e-12
        covered = set()
        for g in got:
            covered.update(int(a) for a in dyadic6.balls[g].members)
        assert 5 in covered

    def test_random_sets_mass_bound(self, dyadic8, rng):
        w = dyadic8.space.weights
        for _ in range(20):
            F = np.flatnonzero(rng.random(256) < 0.15)
            if F.size == 0:
                continue
            E = F[rng.random(F.size) < 0.5]
            got = child_cover(dyadic8, F, E)
            covered = np.zeros(256, dtype=bool)
            total = 0.0
            for g in got:
                m = dyadic8.balls[g].members
                covered[m] = True
                total += float(w[m].sum())
            assert covered[E].all()
            mu_f = float(w[F].sum())
            eta = 2.0
            assert total <= 2 * eta * dyadic8.K * mu_f + 1e-12


def _child_cover_picks_by_atoms(basis, F, E):
    """The removed per-atom scan of child_cover: for each atom of E, among the
    balls containing it that meet F in at least half their measure, the one
    least in (-mu, id) order."""
    w = basis.space.weights
    f_mask = np.zeros(basis.n_atoms, dtype=bool)
    f_mask[F] = True
    picked = set()
    for x in E:
        keys = []
        for c in basis.balls_containing_atom(int(x)):
            m = basis.balls[c].members
            if float(w[m[f_mask[m]]].sum()) >= basis.mu[c] / 2.0:
                keys.append((-basis.mu[c], int(c)))
        if keys:
            picked.add(min(keys)[1])
    return np.array(sorted(picked), dtype=np.int64)


class TestChildCoverPicks:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_atom_scan(self, stat_basis, seed, monkeypatch):
        picks = []
        vitali = ballbasis.sparsify.vitali_cover
        monkeypatch.setattr(ballbasis.sparsify, "vitali_cover",
                            lambda b, E, G: picks.append(np.sort(G)) or vitali(b, E, G))
        rng = np.random.default_rng(seed)
        for density in (0.05, 0.2, 0.5):
            F = np.flatnonzero(rng.random(stat_basis.n_atoms) < density)
            if F.size == 0:
                continue
            E = F[rng.random(F.size) < 0.5]
            if E.size == 0:
                continue
            picks.clear()
            try:
                child_cover(stat_basis, F, E)
            except PostconditionFailure:
                pass  # the picks are made before any postcondition
            assert len(picks) == 1
            assert np.array_equal(picks[0], _child_cover_picks_by_atoms(stat_basis, F, E))


class TestDenseRanks:
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_per_group_scatter(self, scatter_basis, seed, monkeypatch):
        basis = scatter_basis
        rng = np.random.default_rng(seed)
        F = np.flatnonzero(rng.random(basis.n_atoms) < 0.3)
        E = F[rng.random(F.size) < 0.5]
        for dense in (rng.random(basis.n_balls) < 0.2, _half_dense(basis, F),
                      np.zeros(basis.n_balls, dtype=bool)):
            got, want = _dense_ranks(basis, dense), dense_ranks_by_groups(basis, dense)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        covers = []
        for ranks in (_dense_ranks, dense_ranks_by_groups):
            monkeypatch.setattr(ballbasis.sparsify, "_dense_ranks", ranks)
            try:
                covers.append(child_cover(basis, F, E))
            except PostconditionFailure as exc:
                covers.append(str(exc))
        assert covers[0] == covers[1]


class TestHalfDensityPostconditions:
    """dyadic 3: ball 1 = [0, 4), 3 = [0, 2), 7 = {0}; with F = {0, 1} the
    balls 7, 3 and 1 meet F in at least half their measure."""

    def test_child_cover_dense_above_cover_ball(self, dyadic3):
        # hull(1) pointed at 7, inside ball 1: 7 is dense, so it grows to 3,
        # which ball 1 still contains
        hull = dyadic3.hull.copy()
        hull[1] = 7
        broken = BallBasis(dyadic3.space, dyadic3.balls, hull, K=dyadic3.K,
                           eta=dyadic3.eta)
        with pytest.raises(PostconditionFailure, match="half-density persists") as err:
            child_cover(broken, [0, 1], [0])
        assert err.value.witness == (3, 1)
        assert child_cover(dyadic3, [0, 1], [0]) == [0]

    def test_sparse_tree_dense_above_child_node(self, dyadic3):
        # a hand-built tree: root node 0 with F = {0, 1} and child node 3;
        # nesting, coverage and the child mass bound hold, ball 1 is dense
        f_sets = {0: np.array([0, 1]), 3: np.array([], dtype=np.int64)}
        args = ([0, 3], [0, 3], [None, 0], [[1], []], [0, -2],
                [np.arange(2, 8), np.arange(2)], f_sets.__getitem__, 0.01, {})
        with pytest.raises(ConstructionFailure, match="above child node 1"):
            _verify_sparse_tree(dyadic3, *args)
        f_sets[0] = np.array([0])  # ball 1 is no longer dense: the tree passes
        _verify_sparse_tree(dyadic3, *args)


class TestSparsifyTree:
    def test_no_exceptions_single_node(self, dyadic8):
        tree = sparsify_tree(dyadic8, lambda b: np.array([], dtype=np.int64),
                             dyadic8.full_ball_id(), 1e-4)
        assert tree.n_nodes == 1
        assert tree.parent == [None]
        # the sole node is the double hull of the seed
        root = dyadic8.full_ball_id()
        assert tree.nodes[0] == int(dyadic8.hull[int(dyadic8.hull[root])])
        assert tree.sparseness_certified

    def test_strict_mode_invariants(self):
        basis = build_dyadic(12)
        a0 = basis.full_ball_id()
        alpha = 1.0 / 2000.0
        for seed in range(3):
            f_map = make_f_family(basis, alpha, seed)
            tree = sparsify_tree(basis, f_map, a0, alpha)
            assert tree.sparseness_certified
            assert tree.admissible
            w = basis.space.weights
            # every witness keeps at least half its node's underlying mass
            for j in range(tree.n_nodes):
                mu_b = basis.mu[tree.underlying[j]]
                assert float(w[tree.witness[j]].sum()) >= mu_b / 2.0 - 1e-12
            # children nest inside parent hull-nodes
            for j, p in enumerate(tree.parent):
                if p is None:
                    continue
                inner = set(int(a) for a in basis.balls[tree.nodes[j]].members)
                outer = set(int(a) for a in basis.balls[tree.nodes[p]].members)
                assert inner <= outer

    def test_large_alpha_warns(self, dyadic6):
        with pytest.warns(UserWarning, match="guaranteed threshold"):
            sparsify_tree(dyadic6, lambda b: np.array([], dtype=np.int64),
                          dyadic6.full_ball_id(), 0.2, tolerant=True)

    def test_tolerant_reports_coverage(self, dyadic6):
        with pytest.warns(UserWarning):
            tree = sparsify_tree(dyadic6, make_f_family(dyadic6, 0.3, 1),
                                 dyadic6.full_ball_id(), 0.3, tolerant=True)
        assert not tree.sparseness_certified
        assert "uncovered" in tree.constants
        assert tree.constants["coverage_certified"] == (
            len(tree.constants["uncovered"]) == 0)


class TestFFamily:
    @pytest.mark.parametrize("base", [
        lambda: build_dyadic(6), lambda: build_grid(24),
        lambda: _reweighted(build_grid(24), seed=4),
        lambda: _relabelled(build_dyadic(7), seed=5)[0],
        lambda: _reweighted(build_dyadic(6), seed=6),
    ], ids=["dyadic6", "grid24", "grid24_weighted", "dyadic7_relabelled",
            "dyadic6_weighted"])
    def test_equals_atom_loop(self, base):
        """One cumsum per ball takes the same atoms, as int64, as the loop
        that adds them one at a time."""
        basis = base()
        for alpha in (1 / 2000, 0.002, 0.1, 0.5, 0.999, 1.0):
            got = make_f_family(basis, alpha, 3)
            want = f_family_by_loop(basis, alpha, 3)
            for b in range(basis.n_balls):
                g = got(b)
                assert g.dtype == np.int64 and np.array_equal(g, want(b))


class TestDisjointify:
    def test_chain(self):
        sets = [np.arange(8), np.arange(4)]
        parent = [None, 0]
        E = [np.array([0, 1]), np.array([], dtype=np.int64)]
        fam = disjointify(sets, parent, E)
        assert list(fam.shrink[0]) == [0, 1]
        assert list(fam.shrink[1]) == []

    def test_all_empty_exceptional(self):
        sets = [np.arange(8), np.arange(4), np.arange(4, 8)]
        parent = [None, 0, 0]
        E = [np.array([], dtype=np.int64)] * 3
        fam = disjointify(sets, parent, E)
        assert all(s.size == 0 for s in fam.shrink)

    def test_disjoint_siblings_untouched(self):
        sets = [np.arange(8), np.arange(4), np.arange(4, 8)]
        parent = [None, 0, 0]
        E = [np.array([], dtype=np.int64), np.arange(4), np.arange(4, 8)]
        fam = disjointify(sets, parent, E)
        assert list(fam.shrink[1]) == [0, 1, 2, 3]
        assert list(fam.shrink[2]) == [4, 5, 6, 7]

    def test_random_trees_invariants(self, rng):
        for _ in range(40):
            n_atoms, sets, parent, E = _random_tree(rng)
            fam = disjointify(sets, parent, E)
            # postconditions are asserted inside; spot check disjointness of
            # the claimed pieces once more from the outside
            claimed = np.zeros(n_atoms, dtype=bool)
            for i, s in enumerate(fam.shrink):
                piece = np.intersect1d(s, E[i])
                assert not claimed[piece].any()
                claimed[piece] = True
            want = np.zeros(n_atoms, dtype=bool)
            for e in E:
                want[e] = True
            assert np.array_equal(claimed, want)

    def test_nesting_violated(self):
        with pytest.raises(NestingViolated):
            disjointify([np.arange(4), np.array([5])], [None, 0],
                        [np.array([], dtype=np.int64)] * 2)


# -- the removed per-pair loops, kept as references ------------------------------


def _cluster_family(basis, alpha, seed):
    """Seeded exceptional sets of one to three runs of consecutive members
    per ball, with mu(F_B) < alpha mu(B); the runs make deep trees."""
    w = basis.space.weights

    def f_map(b):
        ms = basis.balls[int(b)].members
        rng = np.random.default_rng([seed, int(b)])
        left = int(alpha * basis.mu[int(b)] / w[ms].max() - 1e-9)
        out = []
        for _ in range(int(rng.integers(1, 4))):
            if left <= 0:
                break
            run = int(rng.integers(1, left + 1)) if rng.random() < 0.5 else max(1, left // 8)
            start = int(rng.integers(0, len(ms)))
            out += ms[start:start + run].tolist()
            left -= run
        return np.array(sorted(set(out)), dtype=np.int64)

    return f_map


def _sparsify_tree_by_pairs(basis, F_map, a0, alpha):
    """The removed strict-mode sparsify_tree, with its per-pair wedge scan,
    disjointing pass and witness cut.  Returns the tree's fields (or the
    failure's message and transcript) and the removals of each pass."""
    get_f = lambda b: ballbasis.sparsify.as_atom_array(F_map(int(b)))
    und, parent, children, transcript = [int(a0)], [None], [[]], []
    removed = {"wedge": 0, "disjointing": 0}
    queue = [0]
    try:
        while queue:
            i = queue.pop(0)
            a = und[i]
            fs = get_f(basis.hull[basis.hull[a]])
            e = np.intersect1d(basis.balls[int(basis.hull[a])].members, fs)
            if e.size == 0:
                continue
            for g in child_cover(basis, fs, e):
                if basis.mu[g] >= basis.mu[a]:
                    raise ConstructionFailure(
                        f"child ball {g} does not shrink below its parent {a}; "
                        "alpha too large", transcript=transcript)
                und.append(int(g))
                parent.append(i)
                children.append([])
                children[i].append(len(und) - 1)
                queue.append(len(und) - 1)
        rank = [ballbasis.sparsify._node_rank(basis, b, basis.K ** 2) for b in und]
        for i, p in enumerate(parent):
            if p is not None and rank[i] >= rank[p]:
                raise ConstructionFailure(f"rank did not drop from node {p} to {i}",
                                          transcript=transcript)
    except ConstructionFailure as err:
        return {"error": str(err), "transcript": err.transcript}, removed
    alive = [True] * len(und)

    def kill(i):
        alive[i] = False
        for j in children[i]:
            if alive[j]:
                kill(j)

    def bucket_of(k):
        return sorted((i for i in range(len(und)) if alive[i] and rank[i] == k),
                      key=lambda i: (-basis.mu[und[i]], und[i], i))

    for k in range(rank[0] - 1, min(rank) - 1, -1):
        for i in bucket_of(k):
            hit, anc = False, i
            while parent[anc] is not None and not hit:
                lo_rank, hi_rank = rank[anc], rank[parent[anc]]
                if hi_rank - lo_rank > 3:
                    s2 = basis.star2_members(und[i])
                    for b in range(len(und)):
                        if (alive[b] and b != i and lo_rank + 2 <= rank[b] <= hi_rank - 2
                                and np.intersect1d(s2, basis.balls[und[b]].members).size):
                            hit = True
                            break
                anc = parent[anc]
            if hit:
                removed["wedge"] += 1
                kill(i)
        blocked = np.zeros(basis.n_atoms, dtype=bool)
        for i in bucket_of(k):
            m = basis.balls[und[i]].members
            if blocked[m].any():
                removed["disjointing"] += 1
                kill(i)
            else:
                blocked[m] = True
    keep = [i for i in range(len(und)) if alive[i]]
    n_parent = [None if parent[i] is None else keep.index(parent[i]) for i in keep]
    n_und = [und[i] for i in keep]
    witness = []
    for j in keep:
        m = basis.balls[und[j]].members
        cut = np.zeros(basis.n_atoms, dtype=bool)
        for j2 in keep:
            if rank[j2] < rank[j] - 1:
                cut[basis.balls[und[j2]].members] = True
        witness.append(m[~cut[m]])
    return {"nodes": [int(basis.hull[basis.hull[b]]) for b in n_und],
            "underlying": n_und, "parent": n_parent, "witness": witness}, removed


def _witness_clash_by_pairs(rank, witness):
    for j in range(len(witness)):
        for j2 in range(j + 1, len(witness)):
            if rank[j] == rank[j2] or abs(rank[j] - rank[j2]) > 1:
                if np.intersect1d(witness[j], witness[j2]).size:
                    return f"witnesses of nodes {j},{j2} overlap"
    return None


def _disjointify_by_pairs(sets, parent, E):
    """The removed disjointify carving: per-node ancestor sets and one pass
    over all nodes per stage, in decreasing size, ties by index."""
    n = len(sets)
    n_atoms = 1 + max((int(s.max()) for s in sets if s.size), default=0)
    desc = [set() for _ in range(n)]
    for i, p in enumerate(parent):
        while p is not None:
            desc[p].add(i)
            p = parent[p]
    union = np.zeros(n_atoms, dtype=bool)
    for e in E:
        union[e] = True
    cur, e_masks = [], []
    for s, e in zip(sets, E):
        m = np.zeros(n_atoms, dtype=bool)
        m[s] = True
        cur.append(m & union)
        m = np.zeros(n_atoms, dtype=bool)
        m[e] = True
        e_masks.append(m)
    for stage in sorted(range(n), key=lambda i: (-len(sets[i]), i)):
        carve = cur[stage] & e_masks[stage]
        for a in range(n):
            if a != stage and stage not in desc[a]:
                cur[a] &= ~carve
    for i in range(n):
        for j in range(i + 1, n):
            if j not in desc[i] and i not in desc[j]:
                assert not (cur[i] & cur[j]).any()
    return [np.flatnonzero(m) for m in cur]


def _random_tree(rng):
    """A random nested family with random E sets (test_random_trees_invariants)."""
    n_atoms = int(rng.integers(6, 30))
    sets, parent = [np.arange(n_atoms)], [None]
    for _ in range(int(rng.integers(1, 5)) * 2):
        p = int(rng.integers(0, len(sets)))
        if sets[p].size == 0:
            continue
        sets.append(sets[p][rng.random(sets[p].size) < 0.6])
        parent.append(p)
    E = [s[rng.random(s.size) < 0.4] if s.size else s for s in sets]
    return n_atoms, sets, parent, E


# both removal passes fire on each (levels, alpha, seed) of PAIR_CASES; a
# wedge window one rank wider changes the tree on the first two (at its lower
# end) and on the last (at its upper end); FAILING_CASES fail before the
# removals
PAIR_CASES = [(10, 0.04, 130), (11, 0.04, 130), (12, 0.02, 2), (12, 0.08, 129)]
FAILING_CASES = [(11, 0.25, 0), (12, 0.5, 1)]


class TestSetRowsEqualPairLoops:
    @pytest.mark.parametrize("levels,alpha,seed", PAIR_CASES + FAILING_CASES)
    def test_sparsify_tree(self, levels, alpha, seed):
        basis = build_dyadic(levels)
        f_map = _cluster_family(basis, alpha, seed)
        want, removed = _sparsify_tree_by_pairs(basis, f_map, basis.full_ball_id(), alpha)
        with pytest.warns(UserWarning, match="guaranteed threshold"):
            try:
                tree = sparsify_tree(basis, f_map, basis.full_ball_id(), alpha)
            except ConstructionFailure as err:
                assert {"error": str(err), "transcript": err.transcript} == want
                assert (levels, alpha, seed) in FAILING_CASES
                return
        assert (levels, alpha, seed) in PAIR_CASES
        assert removed["wedge"] >= 1 and removed["disjointing"] >= 1
        for key in ("nodes", "underlying", "parent"):
            assert getattr(tree, key) == want[key]
        assert len(tree.witness) == len(want["witness"])
        for got, ref in zip(tree.witness, want["witness"]):
            assert np.array_equal(got, ref)
        assert tree.constants["child_mass_ratio"] >= 0.0

    @pytest.mark.parametrize("levels,alpha,seed", PAIR_CASES)
    def test_transcript_counts_removals(self, levels, alpha, seed):
        basis = build_dyadic(levels)
        f_map = _cluster_family(basis, alpha, seed)
        _, removed = _sparsify_tree_by_pairs(basis, f_map, basis.full_ball_id(), alpha)
        with pytest.warns(UserWarning, match="guaranteed threshold"):
            tree = sparsify_tree(basis, f_map, basis.full_ball_id(), alpha)
        for name in ("wedge", "disjointing"):
            lines = [ln for ln in tree.transcript
                     if ln.startswith(f"{name} pass removed node ")]
            assert len(lines) == removed[name]

    @pytest.mark.parametrize("levels,alpha,seed", FAILING_CASES)
    def test_tolerant_transcript_names_dropped_children(self, levels, alpha, seed):
        # the child that stops the strict construction is the first one the
        # tolerant construction drops; alpha is inadmissible, so no removal
        # pass runs and every line is a dropped child
        basis = build_dyadic(levels)
        f_map = _cluster_family(basis, alpha, seed)
        want, _ = _sparsify_tree_by_pairs(basis, f_map, basis.full_ball_id(), alpha)
        with pytest.warns(UserWarning, match="guaranteed threshold"):
            tree = sparsify_tree(basis, f_map, basis.full_ball_id(), alpha,
                                 tolerant=True)
        dropped = [re.fullmatch(r"dropped non-shrinking child (\d+) of (\d+)", ln)
                   for ln in tree.transcript]
        assert dropped and all(dropped)
        g, a = dropped[0].groups()
        assert want["error"].startswith(f"child ball {g} does not shrink below "
                                        f"its parent {a};")
        assert all(basis.mu[int(m[1])] >= basis.mu[int(m[2])] for m in dropped)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_parity(self, dyadic3, seed):
        # a star of nodes on ball 0 over the atom balls 7..14: nesting,
        # coverage, child mass and half-density hold, so only the witness
        # checks can fail; seeds 4 and 5 pass, the others clash
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        und = [7 + int(a) for a in rng.choice(8, size=n, replace=False)]
        rank = rng.integers(0, 3, size=n).tolist()
        witness = [np.union1d(np.flatnonzero(rng.random(8) < 0.12), [u - 7])
                   for u in und]
        args = (und, [0] * n, [None] + [0] * (n - 1), [list(range(1, n))] + [[]] * (n - 1),
                rank, witness, lambda b: np.array([], dtype=np.int64), 10.0, {})
        want = _witness_clash_by_pairs(rank, witness)
        assert (want is None) == (seed in (4, 5))
        if want is None:
            _verify_sparse_tree(dyadic3, *args)
        else:
            with pytest.raises(ConstructionFailure) as err:
                _verify_sparse_tree(dyadic3, *args)
            assert str(err.value) == want

    def test_disjointify(self, rng):
        # the random trees of TestDisjointify.test_random_trees_invariants
        for _ in range(40):
            _, sets, parent, E = _random_tree(rng)
            got = disjointify(sets, parent, E).shrink
            want = _disjointify_by_pairs(sets, parent, E)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
