"""Finite atomic measure spaces with explicit ball-bases.

A space is a list of positively weighted atoms 0..N-1.  A basis is a list of
balls (atom subsets) together with a stored hull map B -> [B] and the constants
K (hull constant) and eta (doubling constant, optional).  The star of a ball,

    star(B) = union of all balls A with mu(A) <= 2 mu(B) and A
              intersecting B,

is computed exactly.

Every ball query is answered by `BallBasis` on top of one containment test,
taken for a stack of equal-size atom sets at once.  Interval bases (every
ball a contiguous atom range; both shipped builders) answer it from atom
spans: a ball contains a set when its span [lo, hi] covers the set's span.
They answer ball sums and stars from atom spans too, and the axiom check
from the cover table (the least measure of a ball covering each atom span).

Any other basis (relabelled atoms, hand-built) answers containment and
stars from `PairIndex`, every (ball, member) pair sorted by atom: a ball
contains an L-atom set when L of its pairs fall in the set, and the balls
that meet a set are the balls of its atoms' pairs.  The same index serves a
per-atom reduction over the balls containing each atom (maximal functions,
T*, child covers): one gather and one `ufunc.reduceat`.

Every ball's star is kept as one CSR, `star_lists()`, built on first use:
from the star spans on interval bases, otherwise by the star rule for a
stack of atom sets over the pair index, taken per size group in row blocks.
The axiom check, the sparse operator's truncation and `star_members` read
the CSR.  `star_of_set` is the one-row star rule on non-interval bases; on
interval bases it finds the balls meeting the set by `searchsorted` on
their spans and unions them with a difference array.

`member_matrix()` is the one membership matrix, float64 0/1, built on first
use and kept: the non-interval ball sums and hull check read it, and so
does the B2 scan on a basis with no full ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PostconditionFailure


def as_atom_array(members) -> np.ndarray:
    """Normalize an atom collection to a sorted unique int array."""
    return np.unique(np.asarray(members, dtype=np.int64))


@dataclass(frozen=True)
class MeasureSpace:
    weights: np.ndarray  # positive weight per atom, index = atom id

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("need a nonempty 1-d weight vector")
        if not np.all(w > 0):
            raise ValueError("atom weights must be strictly positive")

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def measure(self, members) -> float:
        arr = np.asarray(members, dtype=np.int64)
        if arr.size == 0:
            return 0.0
        return float(self.weights[arr].sum())


# Bound on the elements of any array one block of star sums builds (the
# prefix rows of the block's atoms plus its (ball, member) pairs, times d),
# and of the index arrays of one block of volume-distance rows.
BLOCK_ELEMS = 1 << 14


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i] + k for 0 <= k < counts[i], for each i in turn."""
    ends = np.cumsum(counts)
    return np.arange(int(counts.sum())) - np.repeat(ends - counts - starts, counts)


def _blocks(cost: np.ndarray):
    """Runs (lo, hi) covering range(len(cost)), cost the running total of
    the elements each item builds, each run within BLOCK_ELEMS (one item at
    least)."""
    lo = 0
    while lo < len(cost):
        spent = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, spent + BLOCK_ELEMS,
                                             side="right")))
        yield lo, hi
        lo = hi


def _scatter_rows(atoms: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set row i of the zero matrix out to 1 at atoms[offsets[i]:offsets[i+1]],
    for every row; returns out."""
    rows, n = out.shape
    out.ravel()[np.repeat(np.arange(rows) * n, np.diff(offsets)) + atoms] = 1
    return out


class PairIndex:
    """Every (ball, member) pair of `BallBasis.size_groups()`, stably sorted
    by atom: the balls containing atom x are ball[offsets[x]:offsets[x+1]].

    `order[k]` is the position of pair k in the flat size-group order (each
    group's (m, L) matrix row by row, groups in turn); it is kept only for
    non-interval bases, whose star sums come in that order.
    """

    def __init__(self, groups, n_atoms: int, keep_order: bool):
        atom = np.concatenate([idx.ravel().astype(np.int32) for _, idx in groups])
        self.counts = np.bincount(atom, minlength=n_atoms)
        order = np.argsort(atom, kind="stable")
        del atom  # int32 keys, freed before the gather: a smaller transient peak
        self.ball = np.concatenate([np.repeat(ids.astype(np.int32), idx.shape[1])
                                    for ids, idx in groups])[order]
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.order = order if keep_order else None
        for a in (self.ball, self.counts, self.offsets, order):
            a.setflags(write=False)

    def members(self, lo: int, hi: int) -> np.ndarray:
        """The atom of each pair of the atoms lo <= x < hi."""
        return np.repeat(np.arange(lo, hi), self.counts[lo:hi])

    def balls_of(self, atoms: np.ndarray) -> np.ndarray:
        """The ball of each pair of each of atoms, atom by atom."""
        return self.ball[_ranges(self.offsets[atoms], self.counts[atoms])]

    def reduce(self, ufunc, vals: np.ndarray, out: np.ndarray, lo: int,
               hi: int) -> np.ndarray:
        """out[x] = ufunc(out[x], ufunc of vals over the pairs of x) for
        lo <= x < hi; vals holds the pairs of exactly those atoms, in order."""
        live = self.counts[lo:hi] > 0
        block = out[lo:hi]
        block[live] = ufunc(block[live], ufunc.reduceat(
            vals, self.offsets[lo:hi][live] - self.offsets[lo]))
        return out

    def blocks(self, row_elems: int, pair_elems: int):
        """Runs (lo, hi) of whole atoms covering every atom, each as long as
        row_elems per atom plus pair_elems per pair stay within BLOCK_ELEMS
        (one atom at least)."""
        return _blocks(np.cumsum(row_elems + pair_elems * self.counts))


@dataclass(frozen=True)
class Ball:
    id: int
    members: np.ndarray  # sorted atom ids
    measure: float


class BallBasis:
    """Immutable ball-basis over a finite atomic measure space."""

    def __init__(self, space: MeasureSpace, balls: list[Ball], hull: list[int],
                 K: float, eta: float | None = None, kind: str | None = None):
        self.space = space
        self.kind = kind  # builder family ("dyadic", "grid"); None if hand-built
        self.balls = list(balls)
        self.hull = np.asarray(hull, dtype=np.int64)
        self.K = float(K)
        self.eta = None if eta is None else float(eta)
        if len(self.hull) != len(self.balls):
            raise ValueError("hull map must cover every ball")
        for pos, b in enumerate(self.balls):
            if b.id != pos:
                raise ValueError(f"ball id {b.id} listed at position {pos}")
            if len(b.members) == 0:
                raise ValueError(f"ball {b.id} is empty (axiom B1)")

        n = space.n_atoms
        self.n_balls = len(self.balls)
        self.mu = np.array([b.measure for b in self.balls])
        lo = np.array([b.members[0] for b in self.balls], dtype=np.int64)
        hi = np.array([b.members[-1] for b in self.balls], dtype=np.int64)
        self.sizes = np.array([len(b.members) for b in self.balls], dtype=np.int64)
        self.interval = bool(np.all(hi - lo + 1 == self.sizes))
        self.lo = lo
        self.hi = hi
        # complete unit grid: every span present exactly once, unit weights
        self.complete_grid = bool(
            self.interval
            and np.all(space.weights == 1.0)
            and self.n_balls == n * (n + 1) // 2
            and len({(int(a), int(b)) for a, b in zip(lo, hi)}) == self.n_balls
        )
        self._member_matrix = None
        self._star_matrix = None
        self._size_groups = None
        self._pair_index = None
        self._cover_table = None
        self._star_lo = None
        self._star_hi = None
        self._star_lists = None
        self._member_csr = None
        self._vdist_matrix = None  # functional.volume_distance_matrix

    # -- basic accessors -------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms

    def ball(self, ball_id: int) -> Ball:
        if not (0 <= ball_id < self.n_balls):
            raise KeyError(f"unknown ball id {ball_id}")
        return self.balls[ball_id]

    def measure(self, members) -> float:
        return self.space.measure(members)

    def member_matrix(self) -> np.ndarray:
        """(n_balls, n_atoms) float64 0/1: row i is ball i's indicator.
        Scattered from the member lists on first use and kept; read-only."""
        if self._member_matrix is None:
            m = _scatter_rows(*self._member_lists(),
                              np.zeros((self.n_balls, self.n_atoms)))
            m.setflags(write=False)
            self._member_matrix = m
        return self._member_matrix

    def _member_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """(atoms, offsets): ball i's members are atoms[offsets[i]:offsets[i+1]].
        Built on first use and kept; read-only."""
        if self._member_csr is None:
            atoms = np.concatenate([b.members for b in self.balls])
            offsets = np.concatenate([[0], np.cumsum(self.sizes)])
            for a in (atoms, offsets):
                a.setflags(write=False)
            self._member_csr = atoms, offsets
        return self._member_csr

    def size_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(ball ids, (m, L) matrix of their member atoms) for each distinct
        ball size L, in increasing L; row k lists the members of ball ids[k].

        Built on first use and kept; the arrays are read-only.
        """
        if self._size_groups is None:
            groups = []
            for size in np.unique(self.sizes):
                ids = np.flatnonzero(self.sizes == size)
                idx = np.stack([self.balls[i].members for i in ids])
                ids.setflags(write=False)
                idx.setflags(write=False)
                groups.append((ids, idx))
            self._size_groups = groups
        return self._size_groups

    def pair_index(self) -> PairIndex:
        """The (ball, member) pairs of size_groups() in atom order; built on
        first use and kept."""
        if self._pair_index is None:
            self._pair_index = PairIndex(self.size_groups(), self.n_atoms,
                                         keep_order=not self.interval)
        return self._pair_index

    def cover_table(self) -> np.ndarray:
        """table[a, b] = least measure of a ball whose span covers the atom
        span [a, b], inf where none does (on interval bases: of a ball
        containing [a, b]).  Built on first use and kept; read-only."""
        if self._cover_table is None:
            table = np.full((self.n_atoms, self.n_atoms), np.inf)
            np.minimum.at(table, (self.lo, self.hi), self.mu)
            # min over balls with lo <= a, then over those with hi >= b; in
            # place, so the build holds one n_atoms x n_atoms array
            np.minimum.accumulate(table, axis=0, out=table)
            np.minimum.accumulate(table[:, ::-1], axis=1, out=table[:, ::-1])
            table.setflags(write=False)
            self._cover_table = table
        return self._cover_table

    # -- sums over balls and stars ------------------------------------------

    def ball_integrals(self, mass: np.ndarray) -> np.ndarray:
        """sum over x in B of mass[x], for every ball at once."""
        if self.interval:
            pre = np.concatenate([[0.0], np.cumsum(mass)])
            return pre[self.hi + 1] - pre[self.lo]
        return self.member_matrix() @ mass

    def member_star_sums(self, kernel: np.ndarray, v: np.ndarray):
        """Yield (lo, hi, sums) over runs of whole atoms lo <= x < hi: row k
        of sums is the sum over y in star(B) of kernel[x, y] v[y] for the k-th
        (ball B, member x) pair of those atoms in pair_index() order.  v has
        one row per atom and the components of a function on its last axis;
        axes between stack several functions, and sums has them too.

        Interval bases build, block by block, only the prefix rows of the
        block's atoms, for every function at once; other bases take one
        star-masked product per size group and function, as a single block,
        so each function's sums round as they do alone."""
        pairs = self.pair_index()
        n = self.n_atoms
        if self.interval:
            c = v[0].size
            cols = v.reshape(n, c)
            slo, shi = self.star_spans()
            for lo, hi in pairs.blocks((n + 1) * c, c):
                pre = np.zeros((hi - lo, n + 1, c))
                np.multiply(kernel[lo:hi, :, None], cols[None], out=pre[:, 1:])
                np.cumsum(pre[:, 1:], axis=1, out=pre[:, 1:])  # in place
                rows = pairs.members(lo, hi) - lo
                ball = pairs.ball[pairs.offsets[lo]:pairs.offsets[hi]]
                sums = pre[rows, shi[ball] + 1]
                sums -= pre[rows, slo[ball]]
                yield lo, hi, sums.reshape((-1,) + v.shape[1:])
            return
        if self._star_matrix is None:
            self._star_matrix = _scatter_rows(*self.star_lists(),
                                              np.zeros((self.n_balls, n), dtype=bool))
        d = v.shape[-1]
        funcs = v.reshape(n, -1, d)
        sums = np.stack([np.concatenate([
            np.matmul(kernel[idx], self._star_matrix[ids, :, None] * funcs[:, j]).reshape(-1, d)
            for ids, idx in self.size_groups()]) for j in range(funcs.shape[1])], axis=1)
        yield 0, n, sums[pairs.order].reshape((-1,) + v.shape[1:])

    def superset_max(self, vals: np.ndarray, groups=None,
                     strict: bool = False) -> np.ndarray:
        """out[ids] = max of vals[A] over the balls A containing each row of
        idx, for each (ids, idx) of groups ((m, L) stacks of sorted atom
        sets; size_groups() by default, so out[i] is the max over the
        supersets of ball i), over balls of more than L atoms only if strict;
        -inf where no ball qualifies.  One _containing test per group."""
        # balls in decreasing vals, so a row's first containing ball is its max
        order = np.argsort(-vals, kind="stable")
        out = np.full(self.n_balls, -np.inf)
        for ids, idx in self.size_groups() if groups is None else groups:
            mask = self._containing(idx, order)
            if strict:
                mask &= self.sizes[order] > idx.shape[1]
            first = mask.argmax(axis=1)
            found = mask[np.arange(len(ids)), first]
            out[ids] = np.where(found, vals[order[first]], -np.inf)
        return out

    # -- star / hull -----------------------------------------------------

    def star_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) atom span of every ball's star (interval bases)."""
        if self._star_lo is not None:
            return self._star_lo, self._star_hi
        n = self.n_atoms
        if self.complete_grid:
            length = np.minimum(np.floor(2 * self.mu).astype(np.int64), n)
            self._star_lo = np.maximum(0, self.lo - length + 1)
            self._star_hi = np.minimum(n - 1, self.hi + length - 1)
            return self._star_lo, self._star_hi
        star_lo = np.empty(self.n_balls, dtype=np.int64)
        star_hi = np.empty(self.n_balls, dtype=np.int64)
        lo, hi, mu = self.lo, self.hi, self.mu
        for ids, _ in self.size_groups():
            # (m, n_balls): the balls A in the star rule of each ball of the group
            mask = ((mu <= 2 * mu[ids, None]) & (lo <= hi[ids, None])
                    & (hi >= lo[ids, None]))
            star_lo[ids] = np.min(np.broadcast_to(lo, mask.shape), axis=1,
                                  where=mask, initial=n)
            star_hi[ids] = np.max(np.broadcast_to(hi, mask.shape), axis=1,
                                  where=mask, initial=-1)
        self._star_lo = star_lo
        self._star_hi = star_hi
        return star_lo, star_hi

    def star_members(self, ball_id: int) -> np.ndarray:
        """Exact star B* as a sorted atom array."""
        self.ball(ball_id)  # KeyError on an unknown id
        if self.interval:
            slo, shi = self.star_spans()
            return np.arange(slo[ball_id], shi[ball_id] + 1)
        atoms, offsets = self.star_lists()
        return atoms[offsets[ball_id]:offsets[ball_id + 1]]

    def star_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """(atoms, offsets): star(B_i) is atoms[offsets[i]:offsets[i+1]],
        sorted.  Built on first use and kept; read-only.

        Interval bases read it off the star spans.  Other bases pass each
        size group's member rows to _star_rows in blocks within
        BLOCK_ELEMS."""
        if self._star_lists is None:
            if self.interval:
                slo, shi = self.star_spans()
                size = shi - slo + 1
                atoms = _ranges(slo, size)
            else:
                size, atoms = self._star_pass()
            offsets = np.concatenate([[0], np.cumsum(size)])
            for a in (atoms, offsets):
                a.setflags(write=False)
            self._star_lists = atoms, offsets
        return self._star_lists

    def _star_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """(star size of every ball, the atoms of every star) on a
        non-interval basis: each size group's member rows go through
        _star_rows in row blocks, and the atoms come ball after ball in id
        order."""
        n, nb = self.n_atoms, self.n_balls
        counts = self.pair_index().counts
        size = np.empty(nb, dtype=np.int64)
        done, parts = [], []  # ball ids and star atoms, block by block
        for ids, idx in self.size_groups():
            # a block's ball mask, star mask and pair keys each stay within
            # BLOCK_ELEMS
            npairs = counts[idx].sum(axis=1)
            for r0, r1 in _blocks(np.cumsum(np.maximum(npairs, max(nb, n)))):
                row, atom = self._star_rows(idx[r0:r1])
                size[ids[r0:r1]] = np.bincount(row, minlength=r1 - r0)
                done.append(ids[r0:r1])
                parts.append(atom)
        done = np.concatenate(done)
        ends = np.cumsum(size)
        atoms = np.empty(int(ends[-1]), dtype=np.int64)
        atoms[_ranges(ends[done] - size[done], size[done])] = np.concatenate(parts)
        return size, atoms

    def _star_rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, atom) of every atom in the star rule of each row of idx, an
        (m, L) stack of atom sets, in row then atom order (non-interval
        bases): the row with every ball A that meets it and has mu(A) at most
        twice the row's measure."""
        n, nb = self.n_atoms, self.n_balls
        m = len(idx)
        pairs = self.pair_index()
        members, starts = self._member_lists()
        twice = 2 * self.space.weights[idx].sum(axis=1)
        # (row, ball) and (row, atom) masks, flat; the 1-d nonzero is many
        # times faster than the 2-d one
        meets = np.zeros(m * nb, dtype=bool)
        meets[np.repeat(np.arange(0, m * nb, nb), pairs.counts[idx].sum(axis=1))
              + pairs.balls_of(idx.ravel())] = True
        row, ball = np.divmod(meets.nonzero()[0], nb)
        keep = self.mu[ball] <= twice[row]
        row, ball = row[keep], ball[keep]
        star = np.zeros(m * n, dtype=bool)
        star[np.arange(0, m * n, n)[:, None] + idx] = True
        span = self.sizes[ball]
        for c0, c1 in _blocks(np.cumsum(span)):
            star[np.repeat(row[c0:c1] * n, span[c0:c1])
                 + members[_ranges(starts[ball[c0:c1]], span[c0:c1])]] = True
        return np.divmod(star.nonzero()[0], n)

    def star_of_set(self, members) -> np.ndarray:
        """The star rule applied to an arbitrary set S:
        S together with every ball A such that mu(A) <= 2 mu(S), A meets S."""
        arr = as_atom_array(members)
        if arr.size == 0:
            return arr
        if not self.interval:
            return self._star_rows(arr[None, :])[1]
        # [lo, hi] meets S iff the first atom of S at or after lo is <= hi
        n = self.n_atoms
        first = np.append(arr, n)[np.searchsorted(arr, self.lo)]
        keep = (first <= self.hi) & (self.mu <= 2 * self.measure(arr))
        # the union of the kept spans: +1 at each lo, -1 past each hi
        cover = np.cumsum(np.bincount(self.lo[keep], minlength=n)
                          - np.bincount(self.hi[keep] + 1, minlength=n + 1)[:n])
        cover[arr] = 1
        return np.flatnonzero(cover)

    def star2_members(self, ball_id: int) -> np.ndarray:
        """(B*)* -- the star rule iterated once on the set B*."""
        return self.star_of_set(self.star_members(ball_id))

    # -- containment queries ----------------------------------------------

    def _containing(self, idx: np.ndarray, balls=slice(None)) -> np.ndarray:
        """(m, k) mask: whether ball balls[j] (every ball, in id order, by
        default) contains every atom of row r of idx, an (m, L) stack of
        sorted atom sets."""
        if self.interval:
            return (self.lo[balls] <= idx[:, :1]) & (self.hi[balls] >= idx[:, -1:])
        # A ball contains an L-atom set iff L of its pairs fall in the set:
        # a (row, ball) key sorted, each run of L equal keys is a containment
        pairs = self.pair_index()
        m, size = idx.shape
        key = np.repeat(np.arange(m) * self.n_balls,
                        pairs.counts[idx].sum(axis=1)) + pairs.balls_of(idx.ravel())
        key.sort()
        runs = key[size - 1:]
        mask = np.zeros(m * self.n_balls, dtype=bool)
        mask[runs[runs == key[:len(runs)]]] = True
        return mask.reshape(m, self.n_balls)[:, balls]

    def balls_containing_atom(self, atom: int) -> np.ndarray:
        return np.flatnonzero(self._containing(np.array([[atom]]))[0])

    def supersets(self, ball_id: int, strict: bool = False) -> np.ndarray:
        ids = np.flatnonzero(self._containing(self.balls[ball_id].members[None])[0])
        if strict:
            ids = ids[self.sizes[ids] > self.sizes[ball_id]]
        return ids

    def smallest_strict_superset(self, ball_id: int) -> int | None:
        """The strict superset of least measure (least id among ties), or
        None if no ball strictly contains this one."""
        ids = self.supersets(ball_id, strict=True)
        return int(ids[np.argmin(self.mu[ids])]) if ids.size else None

    def contains(self, inner_id: int, outer_id: int) -> bool:
        """True iff ball inner is a subset of ball outer."""
        return bool(self._containing(self.balls[inner_id].members[None])[0, outer_id])

    def full_ball_id(self) -> int | None:
        """A ball containing every atom, if one exists."""
        ids = np.flatnonzero(self.sizes == self.n_atoms)
        return int(ids[0]) if ids.size else None


# -- builders ---------------------------------------------------------------


def build_dyadic(levels: int) -> BallBasis:
    """Dyadic martingale basis on [0,1): 2^levels atoms, all dyadic intervals."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if levels > 20:
        raise ValueError("levels > 20 rejected (ball count guard)")
    n = 1 << levels
    space = MeasureSpace(np.full(n, 1.0 / n))
    balls = []
    hull = []
    for g in range(levels + 1):
        width = n >> g
        for j in range(1 << g):
            bid = (1 << g) - 1 + j
            members = np.arange(j * width, (j + 1) * width, dtype=np.int64)
            balls.append(Ball(bid, members, width / n))
            hull.append(bid if g == 0 else ((1 << (g - 1)) - 1 + j // 2))
    return BallBasis(space, balls, hull, K=2.0, eta=2.0, kind="dyadic")


def build_grid(n: int) -> BallBasis:
    """All discrete intervals [i,j] on n unit-weight atoms."""
    if not (2 <= n <= 512):
        raise ValueError("grid size must be in [2, 512]")
    space = MeasureSpace(np.ones(n))
    balls = []
    spans = {}
    bid = 0
    for i in range(n):
        for j in range(i, n):
            balls.append(Ball(bid, np.arange(i, j + 1, dtype=np.int64), float(j - i + 1)))
            spans[(i, j)] = bid
            bid += 1
    basis = BallBasis(space, balls, list(range(bid)), K=5.0, eta=2.0)
    # hull = the interval equal to star(B) (always present in a complete grid)
    hull = [spans[(int(a), int(b))] for a, b in zip(*basis.star_spans())]
    return BallBasis(space, balls, hull, K=5.0, eta=2.0, kind="grid")


# -- operations ---------------------------------------------------------------


@dataclass
class AxiomReport:
    b1_pass: bool
    b1_failures: list
    b2_pass: bool
    k_min: float
    hull_valid: bool
    hull_failures: list
    eta_min: float | None
    eta_counterexample: int | None

    @property
    def passed(self) -> bool:
        return self.b1_pass and self.b2_pass and self.hull_valid


def check_axioms(basis: BallBasis) -> AxiomReport:
    """Recompute B1/B2/B4 and the doubling constant from scratch."""
    mu, h, n = basis.mu, basis.hull, basis.n_atoms
    # B1: each stored measure against its recomputed row sum, as math.isclose
    # with rel_tol 1e-12 and abs_tol 0 would compare them
    sums = np.empty(basis.n_balls)
    for ids, idx in basis.size_groups():
        sums[ids] = basis.space.weights[idx].sum(axis=1)
    diff = np.abs(sums - mu)
    close = (mu == sums) | (np.isfinite(mu) & np.isfinite(sums) & (
        (diff <= np.abs(1e-12 * sums)) | (diff <= np.abs(1e-12 * mu))))
    b1_failures = np.flatnonzero((mu <= 0) | ~close).tolist()
    b1_pass = not b1_failures and bool(np.all(basis.space.weights > 0))

    # B2: a full ball settles it; otherwise do the pairwise scan (desk scale)
    if basis.full_ball_id() is not None:
        b2_pass = True
    else:
        m = basis.member_matrix()
        common = m.T @ m  # atoms x atoms: number of shared balls
        b2_pass = bool(np.all(common > 0))

    # Per ball: the least measure of a ball containing the star (inf if
    # none), whether the stored hull contains the star, whether the star is
    # X, and the least measure of a strict superset (inf if none).
    if basis.interval:
        table = basis.cover_table()
        slo, shi = basis.star_spans()
        cover_mu = table[slo, shi]
        hull_ok = (basis.lo[h] <= slo) & (basis.hi[h] >= shi)
        star_full = shi - slo + 1 == n
        # a strict superset of [lo, hi] covers [lo - 1, hi] or [lo, hi + 1]
        # (the indices wrap at the ends, where np.where drops them)
        lo, hi = basis.lo, basis.hi
        next_mu = np.minimum(np.where(lo > 0, table[lo - 1, hi], np.inf),
                             np.where(hi < n - 1, table[lo, (hi + 1) % n], np.inf))
    else:
        atoms, offsets = basis.star_lists()
        star_size = np.diff(offsets)
        star_groups = []
        for size in np.unique(star_size):
            ids = np.flatnonzero(star_size == size)
            star_groups.append(
                (ids, atoms[_ranges(offsets[ids], star_size[ids])].reshape(-1, size)))
        # least measure = -(max of -mu) over the containing balls
        cover_mu = -basis.superset_max(-mu, star_groups)
        members = basis.member_matrix()
        hull_ok = np.empty(basis.n_balls, dtype=bool)
        for ids, idx in star_groups:
            hull_ok[ids] = members[h[ids, None], idx].all(axis=1)
        star_full = star_size == n
        next_mu = -basis.superset_max(-mu, basis.size_groups(), strict=True)

    # B4: the stored hull must contain the star with mu(hull) <= K mu(B), and
    # k_min is what the best possible hull assignment would achieve.
    covered = np.isfinite(cover_mu)
    hull_failures = np.flatnonzero(
        ~(hull_ok & (mu[h] <= basis.K * mu + 1e-12)) | ~covered).tolist()
    # fmax skips a 0/0 ratio (a zero-measure ball), as a running max from 0 does
    k_min = float(np.fmax.reduce(cover_mu[covered] / mu[covered], initial=0.0))
    # Doubling: the largest mu(A)/mu(B), A the smallest strict superset of B,
    # over the balls B whose star is not X; the last ball with no strict
    # superset is the counterexample.
    open_ = ~star_full
    stuck = np.flatnonzero(open_ & np.isinf(next_mu))
    eta_counterexample = int(stuck[-1]) if stuck.size else None
    eta_min = None if stuck.size else float(
        np.fmax.reduce(next_mu[open_] / mu[open_], initial=0.0))

    return AxiomReport(
        b1_pass=b1_pass, b1_failures=b1_failures, b2_pass=b2_pass,
        k_min=k_min, hull_valid=not hull_failures,
        hull_failures=hull_failures, eta_min=eta_min,
        eta_counterexample=eta_counterexample,
    )


def exhausting_sequence(basis: BallBasis) -> list[Ball]:
    """Increasing ball chain whose last element has star = X.

    Grown by minimal-measure strict supersets from the smallest ball
    containing atom 0; verified to end at a ball containing every other ball.
    """
    start_ids = basis.balls_containing_atom(0)
    chain = [int(start_ids[np.argmin(basis.mu[start_ids])])]
    while (nxt := basis.smallest_strict_superset(chain[-1])) is not None:
        chain.append(nxt)
    last = chain[-1]
    star = basis.star_members(last)
    if len(star) != basis.n_atoms:
        raise PostconditionFailure("exhausting sequence does not reach a star covering X",
                                   witness=last)
    # star(last) = X, so every ball lies inside last iff last is X itself
    if basis.sizes[last] != basis.n_atoms:
        i = next(i for i in range(basis.n_balls) if not basis.contains(i, last))
        raise PostconditionFailure("a ball escapes every chain element", witness=i)
    return [basis.balls[i] for i in chain]
