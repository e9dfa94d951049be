"""Finite atomic measure spaces with explicit ball-bases.

A space is a list of positively weighted atoms 0..N-1.  A basis is a list of
balls (atom subsets) with a stored hull map B -> [B] and the constants K
(hull constant) and eta (doubling constant, optional).  The star of a ball,
star(B) = the union of the balls A with mu(A) <= 2 mu(B) that meet B, is
computed exactly.

Each ball's members are stored once, in one flat array by size, then id,
built with the basis: `members(i)` and each size group's (m, L) matrix are
views of it.  The builders pass atom spans to `BallBasis.from_spans` and
make no `Ball`.  The basis keeps no n_balls x n_atoms array: the B2 scan's
`member_matrix()` and non-interval star masks are built per call.

Every ball query rests on one containment test, taken for a stack of
equal-size atom sets at once.  Interval bases (every ball a contiguous atom
range; both builders) answer it, and ball sums, from atom spans: a ball
contains a set when its span [lo, hi] covers the set's.  One prefix-max
sweep, `_sweep_max`, answers their superset maxima and the axiom check's
cover queries (run over lo) and their star spans (over the measure rank).

Other bases (relabelled atoms, hand-built) answer containment and stars
from `PairIndex`, every (ball, member) pair sorted by atom: a ball contains
an L-atom set when L of its pairs fall in the set, and the balls meeting a
set are those of its atoms' pairs.  A reduction over the balls containing
each atom (maximal functions, child covers) is one `ufunc.at` over the
member store on any basis, `containing_reduce`.  On interval bases the star
sums of T* read `SpanIndex`, built from the spans: the distinct star spans
of the balls containing each atom, each sum taken once per (atom, span).

Every ball's star is kept as one CSR, `star_lists()`, built on first use:
from the star spans on interval bases, otherwise by the star rule over the
pair index, per size group in row blocks.  The axiom check, the sparse
operator's truncation and `star_members` read it.  `star_of_set` is the
one-row star rule on non-interval bases; on interval bases it unions the
spans of the balls meeting the set (found by `searchsorted`) with a
difference array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PostconditionFailure


def as_atom_array(members) -> np.ndarray:
    """Normalize an atom collection to a sorted unique int64 array, never
    the input itself; a strictly increasing 1-d one is only copied."""
    arr = np.array(members, dtype=np.int64)
    return arr if arr.ndim == 1 and (arr[1:] > arr[:-1]).all() else np.unique(arr)


@dataclass(frozen=True)
class MeasureSpace:
    weights: np.ndarray  # positive weight per atom, index = atom id

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("need a nonempty 1-d weight vector")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("atom weights must be finite and strictly positive")

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def measure(self, members) -> float:
        arr = np.asarray(members, dtype=np.int64)
        if arr.size == 0:
            return 0.0
        return float(self.weights[arr].sum())


# Bound on the elements of any array one block of star sums builds (the
# prefix rows of the block's atoms plus its star_sum_index() entries, times
# d), and of the index arrays of one block of volume-distance rows.
BLOCK_ELEMS = 1 << 14

# Two float sums of the same m <= n nonnegative terms, taken in any orders,
# differ by at most n * SUM_ERROR * t, for t the exact sum S or a float sum
# of a longer nonnegative row of total at least S.  With u = 2**-53 and
# g = n u / (1 - n u), a sum of S's terms in any order (a BLAS product with
# a 0/1 mask too) lies within g S of S (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., eq. 4.6), so two of them lie within 2 g t.
# A difference of two sequential prefix sums of the longer row, each within
# g t of its exact value, lies within (2 g + u (1 + 2 g)) t of S, so within
# (3 g + u (1 + 2 g)) t of a float sum of S's terms.  For n u < 1/100 each
# bound is below 5 n u t, and a float total t' of the row is at least
# (1 - g) t > 0.98 t, so 8 n u t' bounds each.
SUM_ERROR = 4 * 2.0 ** -52


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


def _sweep_max(x: np.ndarray, y: np.ndarray, vals: np.ndarray, a: np.ndarray,
               b: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Per query k, the max of vals[j] over the points j with x[j] <= a[k]
    and y[j] >= b[k] (0 <= x < nx; 0 <= y < ny; 0 <= b <= ny), -inf where
    none; a query with a[k] outside [0, nx) is never read and gets -inf.  A
    sweep over x upward keeps a prefix max over the columns ny - y; a block
    is a run of x values, a row each, over the columns its points and
    queries use, within BLOCK_ELEMS."""
    # one value per distinct (x, y), so a block's writes never collide
    key, pair = np.unique(x * ny + y, return_inverse=True)
    top = np.full(len(key), -np.inf)
    np.maximum.at(top, pair, vals)
    x, col = key // ny, ny - key % ny
    queries = np.argsort(a, kind="stable")  # those with a < 0 come first, unread
    pair_start = np.searchsorted(x, np.arange(nx + 1))
    query_start = np.searchsorted(a[queries], np.arange(nx + 1))
    events = pair_start + query_start
    out = np.full(len(a), -np.inf)
    carry = np.full(ny + 1, -np.inf)
    s = 0
    while s < nx:
        ends = np.arange(s + 1, min(nx, s + BLOCK_ELEMS) + 1)
        cost = (ends - s) * np.minimum(ny + 1, events[ends] - events[s])
        e = int(ends[max(0, np.searchsorted(cost, BLOCK_ELEMS, side="right") - 1)])
        p = slice(pair_start[s], pair_start[e])
        q = queries[query_start[s]:query_start[e]]
        used = np.zeros(ny + 1, dtype=bool)
        used[col[p]] = used[ny - b[q]] = True
        cols, rank = np.flatnonzero(used), np.cumsum(used) - 1
        block = np.full((e - s, len(cols)), -np.inf)
        block[x[p] - s, rank[col[p]]] = top[p]
        np.maximum(block[0], carry[cols], out=block[0])
        np.maximum.accumulate(block, axis=0, out=block)
        np.maximum.accumulate(block, axis=1, out=block)
        out[q] = block[a[q] - s, rank[ny - b[q]]]
        carry[cols] = block[-1]  # each at least the carry it replaces
        np.maximum.accumulate(carry, out=carry)
        s = e
    return out


class AtomIndex:
    """Entries sorted by atom, counts[x] of them for atom x: atom x's are
    entries offsets[x]:offsets[x+1]."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.offsets = np.concatenate([[0], np.cumsum(counts)])

    def members(self, lo: int, hi: int) -> np.ndarray:
        """The atom of each entry of the atoms lo <= x < hi."""
        return np.repeat(np.arange(lo, hi), self.counts[lo:hi])

    def reduce(self, ufunc, vals: np.ndarray, out: np.ndarray, lo: int,
               hi: int) -> np.ndarray:
        """out[x] = ufunc(out[x], ufunc of vals over the entries of x) for
        lo <= x < hi; vals holds the entries of exactly those atoms, in
        order."""
        live = self.counts[lo:hi] > 0
        block = out[lo:hi]
        block[live] = ufunc(block[live], ufunc.reduceat(
            vals, self.offsets[lo:hi][live] - self.offsets[lo]))
        return out

    def blocks(self, row_elems: int, entry_elems: int):
        """Runs (lo, hi) of whole atoms covering every atom, each as long as
        row_elems per atom plus entry_elems per entry stay within
        BLOCK_ELEMS (one atom at least)."""
        return _blocks(np.cumsum(row_elems + entry_elems * self.counts))


class PairIndex(AtomIndex):
    """Every (ball, member) pair of `BallBasis.size_groups()`, stably sorted
    by atom: the balls containing atom x are ball[offsets[x]:offsets[x+1]].
    Non-interval bases and the sparse operator's T* build it; nothing else.

    `order[k]` is the position of pair k in the basis's member store; it is
    kept only for non-interval bases, whose star sums come in that order."""

    def __init__(self, basis: BallBasis):
        atom = basis._atoms.astype(np.int32)
        super().__init__(np.bincount(atom, minlength=basis.n_atoms))
        order = np.argsort(atom, kind="stable")
        del atom  # int32 keys, freed before the gather: a smaller transient peak
        by_size = basis._order
        self.ball = np.repeat(by_size.astype(np.int32), basis.sizes[by_size])[order]
        self.order = None if basis.interval else order
        for a in (self.ball, self.counts, self.offsets, order):
            a.setflags(write=False)

    def balls_of(self, atoms: np.ndarray) -> np.ndarray:
        """The ball of each pair of each of atoms, atom by atom."""
        return self.ball[_ranges(self.offsets[atoms], self.counts[atoms])]


class SpanIndex(AtomIndex):
    """The distinct star spans [lo, hi] of the balls containing each atom
    of an interval basis, sorted by atom, then by (lo, hi), as int32: a
    value that depends on a ball only through its star span is taken once
    per entry instead of once per (ball, member) pair.

    Built from the spans: the balls of one star span, in order of lo, merge
    into disjoint atom runs, and an atom's entries are the runs covering
    it, emitted one block of whole atoms at a time."""

    def __init__(self, basis: BallBasis):
        n = basis.n_atoms
        slo, shi = basis.star_spans()
        spans, span_id = np.unique(slo * (n + 1) + shi + 1, return_inverse=True)
        m = len(spans)
        # balls by (span, lo); keys span * (n + 1) + atom order them too, and
        # a run starts past the furthest hi its span's earlier balls reach
        by_span = np.lexsort((basis.lo, span_id))
        run_id = span_id[by_span]
        start = run_id * (n + 1) + basis.lo[by_span]
        reach = np.maximum.accumulate(run_id * (n + 1) + basis.hi[by_span])
        first = np.flatnonzero(np.concatenate([[True], start[1:] > reach[:-1] + 1]))
        run_lo, run_id = start[first] % (n + 1), run_id[first]
        run_hi = reach[np.append(first[1:], len(start)) - 1] % (n + 1)
        del span_id, by_span, start, reach  # per ball: freed before the blocks
        super().__init__(np.cumsum(np.bincount(run_lo, minlength=n + 1)
                                   - np.bincount(run_hi + 1, minlength=n + 1))[:n])
        ids = np.empty(self.offsets[-1], dtype=np.int32)
        for lo, hi in self.blocks(0, 1):
            live = (run_lo < hi) & (run_hi >= lo)
            a = np.maximum(run_lo[live], lo)
            width = np.minimum(run_hi[live], hi - 1) - a + 1
            key = _ranges(a - lo, width) * m + np.repeat(run_id[live], width)
            key.sort()
            ids[self.offsets[lo]:self.offsets[hi]] = key % m
        self.lo = (spans // (n + 1)).astype(np.int32)[ids]
        self.hi = (spans % (n + 1) - 1).astype(np.int32)[ids]
        for a in (self.lo, self.hi, self.counts, self.offsets):
            a.setflags(write=False)


def _star_spans(lo: np.ndarray, hi: np.ndarray, mu: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) atom span of the star of each ball [lo, hi] of measure mu
    over n atoms, (n, -1) where no ball of its star rule meets the ball.
    With a(B) the last rank of the sorted distinct measures
    at most 2 mu(B), two _sweep_max runs over the balls A of rank <= a(B)
    take the least lo(A) with hi(A) >= lo(B) and the greatest hi(A) with
    lo(A) <= hi(B); if that least lo is <= hi(B), its ball meets B."""
    levels, rank = np.unique(mu, return_inverse=True)
    # no measure is at most a NaN; searchsorted would place it last
    a = np.where(np.isnan(mu), -1, np.searchsorted(levels, 2 * mu, side="right") - 1)
    m = len(levels)
    first = -_sweep_max(rank, hi, -lo.astype(float), a, lo, m, n)
    last = _sweep_max(rank, n - 1 - lo, hi.astype(float), a, n - 1 - hi, m, n)
    meets = first <= hi
    return (np.where(meets, first, n).astype(np.int64),
            np.where(meets, last, -1).astype(np.int64))


def _heap_spans(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, width) of ball 2^g - 1 + j, for each generation g <= levels and
    j < 2^g: the atoms [j n/2^g, (j+1) n/2^g) of n = 2^levels, in id order."""
    gen = np.repeat(np.arange(levels + 1), 1 << np.arange(levels + 1))
    width = (1 << levels) >> gen
    return (np.arange(len(gen)) + 1 - (1 << gen)) * width, width


@dataclass(frozen=True)
class Ball:
    """A ball as a record: what the hand-built entry takes and `balls` lists."""
    id: int
    members: np.ndarray  # sorted atom ids
    measure: float


class BallBasis:
    """Immutable ball-basis over a finite atomic measure space.

    Built from a list of `Ball`s (hand-built bases) or, by `from_spans`, from
    atom ranges (the builders).  Either way every ball's members go into one
    flat array ordered by size, then id; ball i's is the view `members(i)`.
    """

    def __init__(self, space: MeasureSpace, balls: list[Ball], hull: list[int],
                 K: float, eta: float | None = None):
        balls = list(balls)
        for pos, b in enumerate(balls):
            if b.id != pos:
                raise ValueError(f"ball id {b.id} listed at position {pos}")
        sizes = np.array([len(b.members) for b in balls], dtype=np.int64)
        order = np.argsort(sizes, kind="stable")
        atoms = np.concatenate([np.asarray(balls[i].members, dtype=np.int64)
                                for i in order.tolist()])
        self._store(space, atoms, order, sizes, [b.measure for b in balls], hull,
                    K, eta)

    @classmethod
    def from_spans(cls, space: MeasureSpace, lo: np.ndarray, sizes: np.ndarray,
                   mu: np.ndarray, hull: np.ndarray, K: float,
                   eta: float | None) -> BallBasis:
        """Ball i spans atoms lo[i] .. lo[i] + sizes[i] - 1, measure mu[i]."""
        basis = cls.__new__(cls)
        order = np.argsort(sizes, kind="stable")
        basis._store(space, _ranges(lo[order], sizes[order]), order, sizes, mu,
                     hull, K, eta)
        return basis

    def _store(self, space, atoms, order, sizes, mu, hull, K, eta):
        """The initialiser both entries share: atoms holds the members of
        ball order[0], then of order[1], ..., order the stable sort of sizes.
        ValueError unless each ball's atoms strictly increase within
        [0, n_atoms) and each hull id lies in [0, n_balls)."""
        self.space = space
        self.K, self.eta = float(K), None if eta is None else float(eta)
        self.n_atoms, self.n_balls = space.n_atoms, len(sizes)
        nb = self.n_balls
        self.sizes, self.mu = sizes, np.asarray(mu, dtype=float)
        self.hull = np.asarray(hull, dtype=np.int64)
        if self.hull.shape != (nb,):
            raise ValueError("hull map must cover every ball")
        if (bad := np.flatnonzero(sizes == 0)).size:
            raise ValueError(f"ball {bad[0]} is empty (axiom B1)")
        ends = np.cumsum(sizes[order])
        rise = np.diff(atoms) > 0
        rise[ends[:-1] - 1] = True  # a ball's first atom after another's last
        if (bad := np.flatnonzero(~rise)).size:
            i = order[np.searchsorted(ends, bad[0], side="right")]
            raise ValueError(f"ball {i}: members must strictly increase")
        start = np.empty(nb, dtype=np.int64)
        start[order] = ends - sizes[order]
        self.lo, self.hi = atoms[start], atoms[start + sizes - 1]
        if (bad := np.flatnonzero((self.lo < 0) | (self.hi >= space.n_atoms))).size:
            raise ValueError(f"ball {bad[0]} has an atom outside [0, n_atoms)")
        if (bad := np.flatnonzero((self.hull < 0) | (self.hull >= nb))).size:
            raise ValueError(f"ball {bad[0]}: hull id {self.hull[bad[0]]} is no ball")
        self.interval = bool(np.all(self.hi - self.lo + 1 == sizes))
        for a in (order, atoms, start):
            a.setflags(write=False)
        self._atoms, self._start, self._order = atoms, start, order
        size, first, count = np.unique(sizes[order], return_index=True,
                                       return_counts=True)
        self._size_groups = [
            (order[g:g + m], atoms[ends[g] - s:ends[g] - s + m * s].reshape(m, s))
            for s, g, m in zip(size.tolist(), first.tolist(), count.tolist())]
        self._pair_index = self._span_index = self._cover = None
        self._star_spans = self._star_lists = None

    # -- basic accessors -------------------------------------------------

    def members(self, ball_id: int) -> np.ndarray:
        """Ball ball_id's sorted atoms: a read-only view of the store."""
        if not 0 <= ball_id < self.n_balls:
            raise KeyError(f"unknown ball id {ball_id}")
        return self._atoms[self._start[ball_id]:][:self.sizes[ball_id]]

    @cached_property
    def balls(self) -> list[Ball]:
        """A `Ball` over members(i) per ball; built on first access and kept."""
        return [Ball(i, self.members(i), m) for i, m in enumerate(self.mu.tolist())]

    def measure(self, members) -> float:
        return self.space.measure(members)

    def member_matrix(self) -> np.ndarray:
        """(n_balls, n_atoms) float64 0/1: row i is ball i's indicator.
        Scattered from the store on each call; nothing keeps it."""
        m = np.zeros((self.n_balls, self.n_atoms))
        m[np.repeat(self._order, self.sizes[self._order]), self._atoms] = 1.0
        return m

    def size_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(ball ids, (m, L) matrix of their member atoms) for each distinct
        ball size L, in increasing L; row k lists the members of ball ids[k].
        Each matrix is a read-only view of its slice of the store."""
        return self._size_groups

    def pair_index(self) -> PairIndex:
        """The (ball, member) pairs of size_groups() in atom order; built on
        first use and kept."""
        if self._pair_index is None:
            self._pair_index = PairIndex(self)
        return self._pair_index

    def star_sum_index(self) -> AtomIndex:
        """The entries member_star_sums yields a row for: on interval bases
        the distinct (atom, star span) entries (`SpanIndex`, built on first
        use and kept), on others pair_index()."""
        if not self.interval:
            return self.pair_index()
        if self._span_index is None:
            self._span_index = SpanIndex(self)
        return self._span_index

    def _cover_table(self) -> np.ndarray:
        """table[a, b] = least measure of a ball whose span covers the atom
        span [a, b], inf where none does (on interval bases: of a ball
        containing [a, b]).  Built on first use and kept; read-only."""
        if self._cover is None:
            table = np.full((self.n_atoms, self.n_atoms), np.inf)
            np.minimum.at(table, (self.lo, self.hi), self.mu)
            # min over balls with lo <= a, then over those with hi >= b; in
            # place, so the build holds one n_atoms x n_atoms array
            np.minimum.accumulate(table, axis=0, out=table)
            np.minimum.accumulate(table[:, ::-1], axis=1, out=table[:, ::-1])
            table.setflags(write=False)
            self._cover = table
        return self._cover

    def volume_distance_rows(self, ids: np.ndarray) -> np.ndarray:
        """d(x, B) for every atom x (columns) and each ball B of ids (rows),
        the least measure of a ball containing both; inf where none does."""
        n = self.n_atoms
        if self.interval:
            # the least ball holding B and x covers the span of both: one
            # gather from the cover table
            xs = np.arange(n)
            return self._cover_table()[np.minimum(xs, self.lo[ids, None]),
                                       np.maximum(xs, self.hi[ids, None])]
        out = np.full((len(ids), n), np.inf)
        for row, i in zip(out, np.asarray(ids).tolist()):
            sup = self._containing(self.members(i)[None])[0]
            self.containing_reduce(np.minimum, np.where(sup, self.mu, np.inf), row)
        return out

    # -- sums over balls and stars ------------------------------------------

    def ball_integrals(self, mass: np.ndarray) -> np.ndarray:
        """sum over x in B of mass[x], for every ball at once."""
        if self.interval:
            pre = np.concatenate([[0.0], np.cumsum(mass)])
            return pre[self.hi + 1] - pre[self.lo]
        out = np.empty(self.n_balls)
        out[self._order] = np.add.reduceat(mass[self._atoms], self._start[self._order])
        return out

    def approx_ball_sums(self, mass: np.ndarray, ids: np.ndarray):
        """(sums, err): sums[:, j] the sum of each row of a nonnegative (k,
        n_atoms) mass over ball ids[j], within err (one bound per row, see
        SUM_ERROR) of that sum taken over the ball's members in any order.
        From one prefix row per row of mass on interval bases; None on
        others, which have no spans to difference."""
        if not self.interval:
            return None
        pre = np.zeros((len(mass), self.n_atoms + 1))
        np.cumsum(mass, axis=1, out=pre[:, 1:])
        sums = pre[:, self.hi[ids] + 1]
        sums -= pre[:, self.lo[ids]]
        return sums, self.n_atoms * SUM_ERROR * pre[:, -1]

    def containing_reduce(self, ufunc, vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[x] = ufunc(out[x], ufunc of vals[B] over the balls B containing
        x), for every atom x: one ufunc.at over the member store."""
        ufunc.at(out, self._atoms, np.repeat(vals[self._order], self.sizes[self._order]))
        return out

    def member_star_sums(self, kernel_block, v: np.ndarray):
        """Yield (lo, hi, sums) over runs of whole atoms lo <= x < hi: row k
        of sums is the sum over y in S of K[x, y] v[y] for the k-th
        entry of those atoms in star_sum_index(), S the entry's star span
        on interval bases and the star of the entry's ball on others.  v
        has one row per atom and the components of a function on its last
        axis; axes between stack several functions, and sums has them too.
        The kernel K is read only as whole rows, kernel_block(rows) = K[rows]
        (see OperatorDescriptor), a slice of atoms or a stack of atom sets.

        Interval bases build, block by block, only the prefix rows of the
        block's atoms, for every function at once, and take one difference
        of them per distinct (atom, star span); other bases take one
        star-masked product per size group and function, as a single block,
        so each function's sums round as they do alone."""
        n = self.n_atoms
        if self.interval:
            index = self.star_sum_index()
            c = v[0].size
            cols = v.reshape(n, c)
            for lo, hi in index.blocks((n + 1) * c, c):
                pre = np.zeros((hi - lo, n + 1, c))
                np.multiply(kernel_block(slice(lo, hi))[:, :, None], cols[None],
                            out=pre[:, 1:])
                np.cumsum(pre[:, 1:], axis=1, out=pre[:, 1:])  # in place
                rows = index.members(lo, hi) - lo
                span = slice(index.offsets[lo], index.offsets[hi])
                sums = pre[rows, index.hi[span] + 1]
                sums -= pre[rows, index.lo[span]]
                yield lo, hi, sums.reshape((-1,) + v.shape[1:])
            return
        atoms, offsets = self.star_lists()
        star = np.zeros((self.n_balls, n), dtype=bool)
        star[np.repeat(np.arange(self.n_balls), np.diff(offsets)), atoms] = True
        d = v.shape[-1]
        funcs = v.reshape(n, -1, d)
        sums = np.stack([np.concatenate([
            np.matmul(kernel_block(idx), star[ids, :, None] * funcs[:, j]).reshape(-1, d)
            for ids, idx in self.size_groups()]) for j in range(funcs.shape[1])], axis=1)
        yield 0, n, sums[self.pair_index().order].reshape((-1,) + v.shape[1:])

    def superset_max(self, vals: np.ndarray, strict: bool = False) -> np.ndarray:
        """out[i] = max of vals[A] over the balls A containing ball i, over
        balls of more atoms than i only if strict; -inf where no ball
        qualifies.

        On interval bases one _sweep_max over (lo, hi): the strict supersets
        of [a, b] cover [a - 1, b] or [a, b + 1].  Other bases take a
        containment mask per size group."""
        n = self.n_atoms
        if self.interval:
            best = _sweep_max(self.lo, self.hi, vals, self.lo - strict, self.hi, n, n)
            if strict:
                np.maximum(best, _sweep_max(self.lo, self.hi, vals, self.lo,
                                            self.hi + 1, n, n), out=best)
            return best
        out = np.full(self.n_balls, -np.inf)
        for ids, idx in self.size_groups():
            mask = self._containing(idx)
            if strict:
                mask &= self.sizes > idx.shape[1]
            out[ids] = np.max(np.broadcast_to(vals, mask.shape), axis=-1,
                              where=mask, initial=-np.inf)
        return out

    # -- star / hull -----------------------------------------------------

    def star_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """`_star_spans` of every ball (interval bases); built on first use
        and kept."""
        if self._star_spans is None:
            self._star_spans = _star_spans(self.lo, self.hi, self.mu, self.n_atoms)
        return self._star_spans

    def star_members(self, ball_id: int) -> np.ndarray:
        """Exact star B* as a sorted atom array."""
        self.members(ball_id)  # KeyError on an unknown id
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
        _star_rows in row blocks, so the blocks' balls come in store order,
        and the atoms come ball after ball in id order."""
        n, nb = self.n_atoms, self.n_balls
        counts = self.pair_index().counts
        size = np.empty(nb, dtype=np.int64)
        parts = []  # star atoms, block by block
        for ids, idx in self.size_groups():
            # a block's ball mask, star mask and pair keys each stay within
            # BLOCK_ELEMS
            npairs = counts[idx].sum(axis=1)
            for r0, r1 in _blocks(np.cumsum(np.maximum(npairs, max(nb, n)))):
                row, atom = self._star_rows(idx[r0:r1])
                size[ids[r0:r1]] = np.bincount(row, minlength=r1 - r0)
                parts.append(atom)
        ends = np.cumsum(size)
        atoms = np.empty(int(ends[-1]), dtype=np.int64)
        o = self._order  # the blocks' balls, in turn
        atoms[_ranges(ends[o] - size[o], size[o])] = np.concatenate(parts)
        return size, atoms

    def _star_rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, atom) of every atom in the star rule of each row of idx, an
        (m, L) stack of atom sets, in row then atom order (non-interval
        bases): the row with every ball A that meets it and has mu(A) at most
        twice the row's measure."""
        n, nb = self.n_atoms, self.n_balls
        m = len(idx)
        pairs = self.pair_index()
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
                 + self._atoms[_ranges(self._start[ball[c0:c1]], span[c0:c1])]] = True
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

    def _containing(self, idx: np.ndarray) -> np.ndarray:
        """(m, n_balls) mask: whether ball j contains every atom of row r of
        idx, an (m, L) stack of sorted atom sets."""
        if self.interval:
            return (self.lo <= idx[:, :1]) & (self.hi >= idx[:, -1:])
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
        return mask.reshape(m, self.n_balls)

    def balls_containing_atom(self, atom: int) -> np.ndarray:
        return np.flatnonzero(self._containing(np.array([[atom]]))[0])

    def supersets(self, ball_id: int, strict: bool = False) -> np.ndarray:
        ids = np.flatnonzero(self._containing(self.members(ball_id)[None])[0])
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
        return bool(self._containing(self.members(inner_id)[None])[0, outer_id])

    def full_ball_id(self) -> int | None:
        """A ball containing every atom, if one exists."""
        ids = np.flatnonzero(self.sizes == self.n_atoms)
        return int(ids[0]) if ids.size else None

    def dyadic_levels(self) -> int | None:
        """The generations below the root if the balls are laid out as
        build_dyadic lays them out (see _heap_spans), else None."""
        n, levels = self.n_atoms, self.n_atoms.bit_length() - 1
        if n != 1 << levels or self.n_balls != 2 * n - 1 or not self.interval:
            return None
        lo, width = _heap_spans(levels)
        same = np.array_equal(self.lo, lo) and np.array_equal(self.sizes, width)
        return levels if same else None


# -- builders ---------------------------------------------------------------


def build_dyadic(levels: int) -> BallBasis:
    """Dyadic martingale basis on [0,1): 2^levels atoms, all dyadic intervals;
    ball 2^g - 1 + j is the j-th of width n / 2^g, its hull its parent."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if levels > 20:
        raise ValueError("levels > 20 rejected (ball count guard)")
    n = 1 << levels
    lo, width = _heap_spans(levels)
    return BallBasis.from_spans(MeasureSpace(np.full(n, 1.0 / n)), lo, width,
                                width / n, np.maximum(np.arange(len(lo)) - 1, 0) // 2,
                                K=2.0, eta=2.0)


def build_grid(n: int) -> BallBasis:
    """All discrete intervals [i,j] on n unit-weight atoms, listed by i, then
    j: [i, j] has id i*n - i(i-1)/2 + (j - i)."""
    if not (2 <= n <= 512):
        raise ValueError("grid size must be in [2, 512]")
    space = MeasureSpace(np.ones(n))
    lo, hi = np.triu_indices(n)
    sizes = hi - lo + 1
    mu = sizes.astype(float)
    # hull = the interval equal to star(B) (always present in a complete grid)
    slo, shi = _star_spans(lo, hi, mu, n)
    hull = slo * n - slo * (slo - 1) // 2 + (shi - slo)
    return BallBasis.from_spans(space, lo, sizes, mu, hull, K=5.0, eta=2.0)


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
    # X, and the least measure of a strict superset (inf if none); a sweep
    # or superset_max gives a least measure as -(max of -mu).
    if basis.interval:
        slo, shi = basis.star_spans()
        cover_mu = -_sweep_max(basis.lo, basis.hi, -mu, slo, shi, n, n)
        hull_ok = (basis.lo[h] <= slo) & (basis.hi[h] >= shi)
        star_full = shi - slo + 1 == n
    else:
        # one containment mask per star size: its masked min of mu is the
        # cover, its entry at the stored hull the hull check
        atoms, offsets = basis.star_lists()
        star_size = np.diff(offsets)
        cover_mu = np.empty(basis.n_balls)
        hull_ok = np.empty(basis.n_balls, dtype=bool)
        for size in np.unique(star_size):
            ids = np.flatnonzero(star_size == size)
            mask = basis._containing(
                atoms[_ranges(offsets[ids], star_size[ids])].reshape(-1, size))
            cover_mu[ids] = np.min(np.broadcast_to(mu, mask.shape), axis=-1,
                                   where=mask, initial=np.inf)
            hull_ok[ids] = mask[np.arange(len(ids)), h[ids]]
        star_full = star_size == n
    next_mu = -basis.superset_max(-mu, strict=True)

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


def exhausting_sequence(basis: BallBasis) -> list[int]:
    """Ids of an increasing ball chain whose last ball has star = X.

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
    return chain
