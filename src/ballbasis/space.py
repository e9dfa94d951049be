"""Finite atomic measure spaces with explicit ball-bases.

A space is a list of positively weighted atoms 0..N-1.  A basis is a list of
balls (atom subsets) together with a stored hull map B -> [B] and the constants
K (hull constant) and eta (doubling constant, optional).  The star of a ball,

    star(B) = union of all balls A with mu(A) <= 2 mu(B) and A
              intersecting B,

is computed exactly.

Every ball query is answered by `BallBasis` on top of one containment test:
a ball contains a set when its atom span [lo, hi] covers the set's span and,
unless every ball is a contiguous atom range (`interval`), its row of the
n_balls x n_atoms boolean membership matrix covers the set; the matrix is
built on first use.  Interval bases (both shipped builders) answer
containment, ball sums and stars from atom spans; there only `star_of_set`
(so `star2_members`, which the dominate stage reads) and the B2 scan of
`check_axioms` on a basis with no full ball build the matrix.  On any other
basis (relabelled atoms, hand-built JSON) every query reads it.

A per-atom reduction over the balls containing each atom (maximal
functions, T*, child covers) reads one more index, `PairIndex`: every
(ball, member) pair sorted by atom, so the reduction is one gather and one
`ufunc.reduceat`.
"""

from __future__ import annotations

import json
import math
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


# Bound on the elements of any array one block of star sums builds: the
# prefix rows of the block's atoms plus its (ball, member) pairs, times d.
BLOCK_ELEMS = 1 << 14


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
        cost = np.cumsum(row_elems + pair_elems * self.counts)
        lo = 0
        while lo < len(cost):
            spent = cost[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cost, spent + BLOCK_ELEMS,
                                                 side="right")))
            yield lo, hi
            lo = hi


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
        self._star_lo = None
        self._star_hi = None
        self._star_sets = {}
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
        if self._member_matrix is None:
            m = np.zeros((self.n_balls, self.n_atoms), dtype=bool)
            for b in self.balls:
                m[b.id, b.members] = True
            self._member_matrix = m
        return self._member_matrix

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
        (ball B, member x) pair of those atoms in pair_index() order (v has
        one row per atom).

        Interval bases build, block by block, only the prefix rows of the
        block's atoms; other bases take one star-masked product per size
        group, as a single block."""
        pairs = self.pair_index()
        n, d = self.n_atoms, v.shape[1]
        if self.interval:
            slo, shi = self.star_spans()
            for lo, hi in pairs.blocks((n + 1) * d, d):
                pre = np.zeros((hi - lo, n + 1, d))
                np.multiply(kernel[lo:hi, :, None], v[None], out=pre[:, 1:])
                np.cumsum(pre[:, 1:], axis=1, out=pre[:, 1:])  # in place
                rows = pairs.members(lo, hi) - lo
                ball = pairs.ball[pairs.offsets[lo]:pairs.offsets[hi]]
                sums = pre[rows, shi[ball] + 1]
                sums -= pre[rows, slo[ball]]
                yield lo, hi, sums
            return
        if self._star_matrix is None:
            s = np.zeros((self.n_balls, self.n_atoms), dtype=bool)
            for i in range(self.n_balls):
                s[i, self.star_members(i)] = True
            self._star_matrix = s
        sums = np.concatenate([
            np.matmul(kernel[idx], self._star_matrix[ids, :, None] * v).reshape(-1, d)
            for ids, idx in self.size_groups()])
        yield 0, n, sums[pairs.order]

    def superset_max(self, vals: np.ndarray) -> np.ndarray:
        """out[i] = max of vals[A] over the balls A containing ball i: the
        containment test of _containing, one size group at a time."""
        # balls in decreasing vals, so a row's first containing ball is its max
        order = np.argsort(-vals, kind="stable")
        lo, hi = self.lo[order], self.hi[order]
        members = None if self.interval else self.member_matrix()[order]
        out = np.empty(self.n_balls)
        for ids, idx in self.size_groups():
            mask = (lo <= self.lo[ids, None]) & (hi >= self.hi[ids, None])
            if members is not None:
                mask &= members[:, idx].all(axis=2).T
            out[ids] = vals[order[mask.argmax(axis=1)]]
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
        for i in range(self.n_balls):
            mask = (mu <= 2 * mu[i]) & (lo <= hi[i]) & (hi >= lo[i])
            star_lo[i] = lo[mask].min()
            star_hi[i] = hi[mask].max()
        self._star_lo = star_lo
        self._star_hi = star_hi
        return star_lo, star_hi

    def star_members(self, ball_id: int) -> np.ndarray:
        """Exact star B* as a sorted atom array."""
        if self.interval:
            slo, shi = self.star_spans()
            return np.arange(slo[ball_id], shi[ball_id] + 1)
        if ball_id not in self._star_sets:
            self._star_sets[ball_id] = self.star_of_set(self.ball(ball_id).members)
        return self._star_sets[ball_id]

    def star_of_set(self, members) -> np.ndarray:
        """The star rule applied to an arbitrary set S:
        S together with every ball A such that mu(A) <= 2 mu(S), A meets S."""
        arr = np.asarray(members, dtype=np.int64)
        if arr.size == 0:
            return arr
        m = self.member_matrix()
        touches = m[:, arr].any(axis=1) & (self.mu <= 2 * self.measure(arr))
        union = m[touches].any(axis=0)
        union[arr] = True
        return np.flatnonzero(union)

    def star2_members(self, ball_id: int) -> np.ndarray:
        """(B*)* -- the star rule iterated once on the set B*."""
        return self.star_of_set(self.star_members(ball_id))

    # -- containment queries ----------------------------------------------

    def _containing(self, arr: np.ndarray) -> np.ndarray:
        """Mask of the balls that contain every atom of the nonempty array arr."""
        mask = (self.lo <= arr.min()) & (self.hi >= arr.max())
        if not self.interval:
            mask &= self.member_matrix()[:, arr].all(axis=1)
        return mask

    def balls_containing_atom(self, atom: int) -> np.ndarray:
        return np.flatnonzero(self._containing(np.array([atom])))

    def supersets(self, ball_id: int, strict: bool = False) -> np.ndarray:
        ids = np.flatnonzero(self._containing(self.balls[ball_id].members))
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
        return bool(self._containing(self.balls[inner_id].members)[outer_id])

    def full_ball_id(self) -> int | None:
        """A ball containing every atom, if one exists."""
        ids = np.flatnonzero(self.sizes == self.n_atoms)
        return int(ids[0]) if ids.size else None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "atoms": [float(w) for w in self.space.weights],
            "balls": [[int(a) for a in b.members] for b in self.balls],
            "hull": [int(h) for h in self.hull],
            "K": self.K,
            "eta": self.eta,
            "kind": self.kind,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "BallBasis":
        doc = json.loads(text)
        space = MeasureSpace(np.asarray(doc["atoms"], dtype=float))
        balls = []
        for i, members in enumerate(doc["balls"]):
            arr = as_atom_array(members)
            balls.append(Ball(i, arr, space.measure(arr)))
        return cls(space, balls, doc["hull"], doc["K"], doc.get("eta"),
                   doc.get("kind"))


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
    b1_failures = []
    for b in basis.balls:
        recomputed = basis.space.measure(b.members)
        if len(b.members) == 0 or b.measure <= 0 or not math.isclose(
                b.measure, recomputed, rel_tol=1e-12, abs_tol=0.0):
            b1_failures.append(b.id)
    b1_pass = not b1_failures and bool(np.all(basis.space.weights > 0))

    # B2: a full ball settles it; otherwise do the pairwise scan (desk scale)
    if basis.full_ball_id() is not None:
        b2_pass = True
    else:
        m = basis.member_matrix().astype(np.float64)
        common = m.T @ m  # atoms x atoms: number of shared balls
        b2_pass = bool(np.all(common > 0))

    # B4: the stored hull must contain the star with mu(hull) <= K mu(B), and
    # k_min is what the best possible hull assignment would achieve.
    # Doubling: the largest mu(A)/mu(B), A the smallest strict superset of B,
    # over the balls B whose star is not X.
    hull_failures = []
    k_min = 0.0
    eta_min = 0.0
    eta_counterexample = None
    for i in range(basis.n_balls):
        star = basis.star_members(i)
        covering = basis._containing(star)
        h = basis.hull[i]
        if not (covering[h] and basis.mu[h] <= basis.K * basis.mu[i] + 1e-12):
            hull_failures.append(i)
        if covering.any():
            k_min = max(k_min, basis.mu[covering].min() / basis.mu[i])
        else:
            hull_failures.append(i)
        if star.size == basis.n_atoms:
            continue
        nxt = basis.smallest_strict_superset(i)
        if nxt is None:
            eta_counterexample = i
        else:
            eta_min = max(eta_min, basis.mu[nxt] / basis.mu[i])
    if eta_counterexample is not None:
        eta_min = None

    return AxiomReport(
        b1_pass=b1_pass, b1_failures=b1_failures, b2_pass=b2_pass,
        k_min=float(k_min), hull_valid=not hull_failures,
        hull_failures=sorted(set(hull_failures)),
        eta_min=None if eta_min is None else float(eta_min),
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
