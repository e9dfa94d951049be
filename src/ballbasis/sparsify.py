"""Set-theoretic covering machinery: greedy Vitali selection, density-based
child covers, the staged sparse-tree construction, and martingale
disjointification of nested set families.

Every public routine machine-verifies its postconditions before returning;
failures raise with a witness rather than returning a silently wrong family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AlphaViolated, ConstructionFailure, NestingViolated,
                     NotACover, PostconditionFailure)
from .space import BallBasis, as_atom_array


# -- atom rows -----------------------------------------------------------------


def atom_rows(n_atoms: int, sets) -> np.ndarray:
    """Boolean (len(sets), n_atoms) matrix with one row per atom set."""
    rows = np.zeros((len(sets), n_atoms), dtype=bool)
    for row, s in zip(rows, sets):
        row[s] = True
    return rows


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (i, j) is True iff row i of a and row j of b share an atom (the
    counts are exact in float32 below 2**24 atoms)."""
    return (a.astype(np.float32) @ b.T.astype(np.float32)) > 0


def _ancestors(up: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix whose row i marks node i and its ancestors, from
    the parent of each node (a root is its own parent), by pointer doubling."""
    anc = np.eye(len(up), dtype=bool)
    for _ in range(len(up).bit_length()):
        anc |= anc[up]
        up = up[up]
    return anc


def _first_fit(rows: np.ndarray) -> np.ndarray:
    """Greedy first fit: mask of the rows, taken in order, that meet no
    earlier row kept."""
    keep = np.zeros(len(rows), dtype=bool)
    blocked = np.zeros(rows.shape[1], dtype=bool)
    for i, row in enumerate(rows):
        keep[i] = not (blocked & row).any()
        if keep[i]:
            blocked |= row
    return keep


# -- greedy Vitali selection ---------------------------------------------------


def vitali_cover(basis: BallBasis, E, G) -> list[int]:
    """Select pairwise disjoint balls from G whose stars cover E.

    Greedy by decreasing measure (each pick has measure > half the running
    sup, trivially), ties broken by ascending ball id.
    """
    E = as_atom_array(E)
    order = sorted((int(g) for g in G), key=lambda g: (-basis.mu[g], g))
    rows = atom_rows(basis.n_atoms, [basis.members(g) for g in order])
    missing = E[~rows.any(axis=0)[E]]
    if missing.size:
        raise NotACover(f"atoms {missing[:5].tolist()} not covered by the family")
    taken = [g for g, kept in zip(order, _first_fit(rows)) if kept]
    # postconditions: disjointness is by construction; star coverage asserted
    star_cover = atom_rows(basis.n_atoms,
                           [basis.star_members(g) for g in taken]).any(axis=0)
    if not star_cover[E].all():
        raise PostconditionFailure("stars of the selection do not cover E",
                                   witness=E[~star_cover[E]][:5].tolist())
    return taken


# -- density-based child cover ---------------------------------------------------


def _dense_ranks(basis: BallBasis, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, best): the balls in (-mu, id) order, and each atom's ball,
    the dense ball containing it of least rank in that order, i.e. of
    largest measure; rank n_balls = no dense ball contains the atom."""
    order = np.lexsort((np.arange(basis.n_balls), -basis.mu))
    rank = np.empty(basis.n_balls, dtype=np.int64)
    rank[order] = np.arange(basis.n_balls)
    rank[~dense] = basis.n_balls
    best = np.full(basis.n_atoms, basis.n_balls)
    return order, basis.containing_reduce(np.minimum, rank, best)


def child_cover(basis: BallBasis, F, E) -> list[int]:
    """Cover E by hull balls of near-maximal half-density balls of F.

    Postconditions (all asserted): E covered; total mass at most 2K mu(F)
    (2 eta K when a doubling enlargement fired); every strict superset of an
    output ball meets F in less than half its measure; every output ball
    meets E.
    """
    F = as_atom_array(F)
    E = as_atom_array(E)
    if E.size and np.setdiff1d(E, F).size:
        raise ValueError("E must be a subset of F")
    if E.size == 0:
        return []
    dense = _half_dense(basis, F)
    mu_f = float(basis.space.weights[F].sum())
    order, best = _dense_ranks(basis, dense)
    hits = best[E]
    picked = order[np.unique(hits[hits < basis.n_balls])]
    if not picked.size:
        raise PostconditionFailure("no density ball found for any atom of E",
                                   witness=E[:5].tolist())
    disjoint = vitali_cover(basis, E[hits < basis.n_balls], picked)
    out = []
    enlarged = False
    for b in disjoint:
        g = int(basis.hull[b])
        if dense[g]:
            # half-density survives on the hull itself: grow once (doubling)
            g2 = basis.smallest_strict_superset(g)
            if g2 is None:
                raise PostconditionFailure(
                    "cannot enlarge a maximal hull ball", witness=g)
            if basis.eta is not None and basis.mu[g2] > basis.eta * basis.mu[g] + 1e-12:
                raise PostconditionFailure(
                    "doubling enlargement exceeded eta", witness=(g, g2))
            g = g2
            enlarged = True
        out.append(g)
    out.sort(key=lambda g: (-basis.mu[g], g))
    rows = atom_rows(basis.n_atoms, [basis.members(g) for g in out])
    meets_e = rows[:, E].any(axis=1)
    out = [g for g, m in zip(out, meets_e) if m]

    covered = rows[meets_e].any(axis=0)
    total = sum(basis.mu[g] for g in out)
    if not covered[E].all():
        raise PostconditionFailure("cover misses atoms of E",
                                   witness=E[~covered[E]][:5].tolist())
    bound = 2.0 * basis.K * mu_f
    if enlarged:
        bound *= basis.eta if basis.eta is not None else 1.0
    if total > bound + 1e-12:
        raise PostconditionFailure("mass bound violated",
                                   witness={"total": total, "bound": bound})
    for g in out:
        above = basis.supersets(g, strict=True)
        if dense[above].any():
            raise PostconditionFailure("half-density persists above a cover ball",
                                       witness=(g, int(above[dense[above]][0])))
    return out


def _half_dense(basis: BallBasis, F: np.ndarray) -> np.ndarray:
    """Mask of the balls B with mu(B intersect F) >= mu(B)/2."""
    f_mask = np.zeros(basis.n_atoms)
    f_mask[F] = 1.0
    return basis.ball_integrals(f_mask * basis.space.weights) >= basis.mu / 2.0


# -- sparse tree ---------------------------------------------------------------


@dataclass
class SparseTree:
    basis: BallBasis
    root: int                      # node ball id (double hull of the seed)
    nodes: list[int]               # node ball ids (double hulls)
    underlying: list[int]          # the covered balls the nodes enclose
    parent: list[int | None]       # indices into nodes
    witness: list[np.ndarray]
    admissible: bool
    sparseness_certified: bool
    transcript: list[str]          # one line per dropped child and removed node
    constants: dict

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _node_rank(basis: BallBasis, bid: int, R: float) -> int:
    return int(math.floor(math.log(basis.mu[bid]) / math.log(R)))


def sparsify_tree(basis: BallBasis, F_map, a0: int, alpha: float,
                  tolerant: bool = False) -> SparseTree:
    """Build a sparse tree of double-hull balls whose nodes cover the seed
    ball outside the exceptional sets F_map.

    F_map: callable ball id -> atom set with mu(F_B) < alpha mu(B), checked
    lazily on every ball actually read.  In tolerant mode an inadmissible
    alpha skips the removal stages (the pointwise coverage facts still hold
    and are verified) and the tree is flagged sparseness_certified=False.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    K = basis.K
    threshold = 1.0 / (10.0 * K ** 7)
    admissible = alpha < threshold
    if not admissible:
        warnings.warn(f"alpha={alpha:g} is above the guaranteed threshold "
                      f"{threshold:g}; construction attempted anyway")
    w = basis.space.weights
    f_cache: dict[int, np.ndarray] = {}

    def get_f(bid: int) -> np.ndarray:
        bid = int(bid)
        if bid not in f_cache:
            fs = as_atom_array(F_map(bid))
            mu_fs = float(w[fs].sum()) if fs.size else 0.0
            if mu_fs >= alpha * basis.mu[bid]:
                raise AlphaViolated("exceptional set too large", ball_id=bid,
                                    ratio=mu_fs / basis.mu[bid])
            f_cache[bid] = fs
        return f_cache[bid]

    # phase 1: the raw generation tree over the underlying balls; up holds
    # each node's parent, the root being its own
    und: list[int] = [int(a0)]
    up: list[int] = [0]
    transcript: list[str] = []
    queue = [0]
    while queue:
        i = queue.pop(0)
        a = und[i]
        hull2 = int(basis.hull[int(basis.hull[a])])
        fs = get_f(hull2)
        e = np.intersect1d(basis.members(int(basis.hull[a])), fs)
        if e.size == 0:
            continue
        kids = child_cover(basis, fs, e)
        for g in kids:
            if basis.mu[g] >= basis.mu[a]:
                if tolerant:
                    transcript.append(f"dropped non-shrinking child {g} of {a}")
                    continue
                raise ConstructionFailure(
                    f"child ball {g} does not shrink below its parent {a}; "
                    "alpha too large", transcript=transcript)
            queue.append(len(und))
            und.append(int(g))
            up.append(i)
        if len(und) > 50 * basis.n_balls + 1000:
            raise ConstructionFailure("tree growth out of control",
                                      transcript=transcript)

    up = np.array(up)
    ranks = np.array([_node_rank(basis, b, K * K) for b in und])
    n = len(und)
    rows = atom_rows(basis.n_atoms, [basis.members(b) for b in und])
    alive = np.ones(n, dtype=bool)

    run_removals = admissible or not tolerant
    if run_removals:
        rise = np.flatnonzero(ranks[1:] >= ranks[up[1:]]) + 1
        if rise.size:
            raise ConstructionFailure(
                f"rank did not drop from node {up[rise[0]]} to {rise[0]}",
                transcript=transcript)
        anc = _ancestors(up)
        k0 = ranks[0]
        kmin = ranks.min()
        # the wedge window above node a: the ranks two or more clear of both
        # a and its parent; as the windows along a chain are disjoint and
        # ordered by rank, each is labelled by 1 + rank[a] - kmin
        levels = np.arange(kmin, k0 + 1)
        top = np.where(up == np.arange(n), kmin - 1, ranks[up] - 2)
        window = ((ranks[:, None] + 2 <= levels) & (levels <= top[:, None])
                  ) * (1.0 + ranks - kmin)[:, None]
        order = np.lexsort((np.arange(n), und, -basis.mu[und]))
        for k in range(k0 - 1, kmin - 1, -1):
            bucket = order[alive[order] & (ranks[order] == k)]
            # removal via a live node ranked in the window above any node on
            # the bucket node's ancestor chain (itself included) whose double
            # star it meets; only ranks >= k + 2 are read, and this pass
            # kills ranks <= k, so the whole bucket is one mask; the first
            # window up the chain names the node, then the least index
            label = (anc[bucket].astype(float) @ window)[:, ranks - kmin]
            star2 = atom_rows(basis.n_atoms,
                              [basis.star2_members(und[i]) for i in bucket])
            hit = (label > 0) & alive & _meet(star2, rows)
            via = np.where(hit, label * n + np.arange(n), np.inf).argmin(axis=1)
            wedged = hit.any(axis=1)
            transcript += [f"wedge pass removed node {i} via {b}"
                           for i, b in zip(bucket[wedged], via[wedged])]
            alive &= ~anc[:, bucket[wedged]].any(axis=1)
            # disjointification of the remaining bucket by greedy selection
            bucket = bucket[alive[bucket]]
            dropped = bucket[~_first_fit(rows[bucket])]
            transcript += [f"disjointing pass removed node {i}" for i in dropped]
            alive &= ~anc[:, dropped].any(axis=1)

    # compact the surviving nodes; a survivor's ancestors all survive
    keep = np.flatnonzero(alive)
    remap = np.cumsum(alive) - 1
    up, ranks, rows = remap[up[keep]], ranks[keep], rows[keep]
    und = [und[i] for i in keep]
    node_balls = [int(basis.hull[int(basis.hull[b])]) for b in und]

    # witnesses: the part of each underlying ball not covered by the
    # survivors ranked more than one below it
    below = ranks[None, :] < ranks[:, None] - 1
    witness = [np.flatnonzero(r) for r in rows & ~_meet(below, rows.T)]

    certified = bool(run_removals)
    constants: dict = {}
    if certified:
        _verify_sparse_tree(basis, und, node_balls, up, ranks, witness, get_f,
                            alpha, constants)
    else:
        # tolerant callers may repair coverage themselves, so report instead
        # of raising
        constants["uncovered"] = _uncovered_atoms(basis, node_balls, a0, get_f)
        constants["coverage_certified"] = len(constants["uncovered"]) == 0
    return SparseTree(basis=basis, root=node_balls[0], nodes=node_balls,
                      underlying=und,
                      parent=[None if p == j else int(p) for j, p in enumerate(up)],
                      witness=witness, admissible=admissible,
                      sparseness_certified=certified, transcript=transcript,
                      constants=constants)


def _uncovered_atoms(basis: BallBasis, node_balls, a0: int, get_f) -> list[int]:
    n = basis.n_atoms
    covered = (atom_rows(n, [basis.members(nb) for nb in node_balls])
               & ~atom_rows(n, [get_f(nb) for nb in node_balls])).any(axis=0)
    seed = basis.members(int(a0))
    return [int(a) for a in seed[~covered[seed]]]


def _verify_sparse_tree(basis, und, node_balls, up, rank, witness, get_f,
                        alpha, constants):
    """Raise ConstructionFailure unless the tree, given by each node's parent
    in up (the root, node 0, is its own), is a verified sparse tree."""
    w = basis.space.weights
    K = basis.K
    eta = basis.eta if basis.eta is not None else 1.0
    kids = np.flatnonzero(up != np.arange(len(up)))
    # nesting of node balls
    for j in kids:
        if not basis.contains(node_balls[j], node_balls[up[j]]):
            raise ConstructionFailure(f"node {j} not nested in its parent")
    missing = _uncovered_atoms(basis, node_balls, und[0], get_f)
    if missing:
        raise ConstructionFailure(
            "seed ball not covered outside the exceptional sets",
            transcript=[f"missing atoms {missing[:5]}"])
    # child mass: each parent's children summed in index order
    mu = basis.mu[node_balls]
    worst = float((np.bincount(up[kids], mu[kids], len(up)) / mu).max())
    bound = 2.0 * eta * alpha * K ** 3
    constants["child_mass_ratio"] = worst
    if worst > bound + 1e-12:
        raise ConstructionFailure(
            f"child mass ratio {worst:g} exceeds {bound:g}")
    # half-density above every child node ball
    dense: dict[int, np.ndarray] = {}
    for j in kids:
        fb = node_balls[up[j]]
        if fb not in dense:
            dense[fb] = _half_dense(basis, get_f(fb))
        if dense[fb][basis.supersets(node_balls[j], strict=True)].any():
            raise ConstructionFailure(f"half-density fails above child node {j}")
    # witness size and parity disjointness
    for j in range(len(und)):
        if float(w[witness[j]].sum()) < basis.mu[und[j]] / 2.0 - 1e-12:
            raise ConstructionFailure(f"witness of node {j} below half mass")
    gap = np.abs(np.subtract.outer(rank, rank))
    rows = atom_rows(basis.n_atoms, witness)
    clash = np.triu(_meet(rows, rows) & (gap != 1), k=1)
    if clash.any():
        j, j2 = np.argwhere(clash)[0]
        raise ConstructionFailure(f"witnesses of nodes {j},{j2} overlap")


# -- martingale disjointification ---------------------------------------------------


@dataclass
class MartingaleFamily:
    shrink: list[np.ndarray]


def disjointify(sets, parent, E_map, weights=None) -> MartingaleFamily:
    """Shrink a nested family of atom sets so the shrunken pieces respect the
    tree: children stay inside parents, unrelated nodes become disjoint, and
    the union of (shrunken set intersect E) is preserved.

    sets: list of atom arrays; parent: list of node index or None; E_map:
    list of atom arrays with E_i inside sets[i].  Nodes are processed in
    decreasing measure (unit atom weights if none are given), ties by index.
    """
    n = len(sets)
    sets = [as_atom_array(s) for s in sets]
    E = [as_atom_array(e) for e in E_map]
    if len(E) != n or len(parent) != n:
        raise ValueError("sets, parent and E_map must have equal length")
    n_atoms = 1 + max((int(s.max()) for s in sets + E if s.size), default=0)
    rows = atom_rows(n_atoms, sets)
    e_rows = atom_rows(n_atoms, E)
    up = np.array([i if p is None else int(p) for i, p in enumerate(parent)],
                  dtype=np.int64)
    loose = (rows & ~rows[up]).any(axis=1)
    stray = (e_rows & ~rows).any(axis=1)
    if (loose | stray).any():
        i = int(np.argmax(loose | stray))
        if loose[i]:
            raise NestingViolated(f"node {i} not inside its parent")
        raise ValueError(f"E[{i}] not inside its set")
    if weights is None:
        weights = np.ones(n_atoms)
    anc = _ancestors(up)

    union = e_rows.any(axis=0)
    cur = rows & union  # normalization: drop the part no E set can ever claim
    mus = [float(weights[s].sum()) for s in sets]
    for stage in sorted(range(n), key=lambda i: (-mus[i], i)):
        # the node itself and its ancestors keep the piece
        cur[~anc[stage]] &= ~(cur[stage] & e_rows[stage])

    # invariants, asserted exactly
    left = (cur & ~cur[up]).any(axis=1)
    if left.any():
        raise PostconditionFailure("child shrink left its parent shrink",
                                   witness=int(np.argmax(left)))
    clash = np.triu(_meet(cur, cur) & ~(anc | anc.T), k=1)
    if clash.any():
        i, j = np.argwhere(clash)[0]
        raise PostconditionFailure("unrelated shrinks overlap",
                                   witness=(int(i), int(j)))
    pieces = cur & e_rows
    if not np.array_equal(pieces.any(axis=0), union):
        raise PostconditionFailure("union of E pieces not preserved")
    if (pieces.sum(axis=0) > 1).any():
        raise PostconditionFailure("E pieces overlap")
    return MartingaleFamily(shrink=[np.flatnonzero(m) for m in cur])
