import weakref

import numpy as np
import pytest
from hypothesis import strategies as st

from ballbasis import (Ball, BallBasis, MeasureSpace, VecFunction, build_dyadic,
                       build_grid)
from ballbasis.functional import medians, vector_norms


def _relabelled(basis, seed):
    """basis with its atoms relabelled by a seeded permutation: atom a becomes
    atom perm[a] and keeps its weight; balls keep their ids and measures."""
    perm = np.random.default_rng(seed).permutation(basis.n_atoms)
    weights = np.empty_like(basis.space.weights)
    weights[perm] = basis.space.weights
    balls = [Ball(b.id, np.sort(perm[b.members]), b.measure) for b in basis.balls]
    return BallBasis(MeasureSpace(weights), balls, basis.hull, K=basis.K,
                     eta=basis.eta), perm


@st.composite
def span_bases(draw, min_atoms=1):
    """Random atom spans over min_atoms to 12 atoms of random weights, the
    first few listed twice, so that balls share a (lo, hi) and some atoms
    may lie in no ball; every hull is ball 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(min_atoms, 12))
    space = MeasureSpace(rng.uniform(0.5, 2.0, n))
    spans = np.sort(rng.integers(0, n, size=(draw(st.integers(1, 12)), 2)), axis=1)
    spans = np.concatenate([spans, spans[:draw(st.integers(1, 4))]])
    balls = [Ball(i, np.arange(lo, hi + 1), space.measure(np.arange(lo, hi + 1)))
             for i, (lo, hi) in enumerate(spans)]
    return BallBasis(space, balls, np.zeros(len(balls), dtype=np.int64), K=3.0)


def _with_weights(basis, weights):
    """basis with the same balls over the given atom weights."""
    space = MeasureSpace(weights)
    balls = [Ball(b.id, b.members, space.measure(b.members)) for b in basis.balls]
    return BallBasis(space, balls, basis.hull, K=basis.K, eta=basis.eta)


def bound_weights(rng, n, kind):
    """n atom weights of one kind: "log" spreads them over 2**-20 .. 2**20,
    so prefix sums of masses round far from the ball sums; "heavy" is all
    ones but one atom of weight 2**60, past which a prefix sum of masses
    that scale with the weights keeps no bit of the other atoms; "uniform"
    draws them from [0.5, 2); "integer" from 1, 2, 3, so that equal sums tie
    exactly; "unit" is all ones."""
    def heavy():
        w = np.ones(n)
        w[rng.integers(n)] = 2.0 ** 60
        return w

    return {"log": lambda: 2.0 ** rng.uniform(-20, 20, n), "heavy": heavy,
            "uniform": lambda: rng.uniform(0.5, 2.0, n),
            "integer": lambda: rng.integers(1, 4, n).astype(float),
            "unit": lambda: np.ones(n)}[kind]()


BOUND_WEIGHT_KINDS = ("log", "heavy", "uniform", "integer", "unit")


def weighted_interval_basis(rng, kind):
    """build_grid of 2 to 48 atoms or build_dyadic of 1 to 7 levels, each
    as likely, the size drawn evenly, over bound_weights of kind."""
    if rng.random() < 0.5:
        base = build_grid(int(rng.integers(2, 49)))
    else:
        base = build_dyadic(int(rng.integers(1, 8)))
    return _with_weights(base, bound_weights(rng, base.n_atoms, kind))


@st.composite
def weighted_interval_bases(draw):
    """(basis, rng): a weighted_interval_basis of a drawn weight kind and
    the seeded generator that drew it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return weighted_interval_basis(rng, draw(st.sampled_from(BOUND_WEIGHT_KINDS))), rng


def takes_grid_kernels(basis):
    """Whether discrete_hilbert and riesz_potential accept basis: an interval
    basis over unit atom weights."""
    return basis.interval and bool(np.all(basis.space.weights == 1.0))


def _reweighted(basis, seed):
    """basis with the same balls over seeded atom weights in [0.5, 2)."""
    space = MeasureSpace(np.random.default_rng(seed).uniform(0.5, 2.0, basis.n_atoms))
    balls = [Ball(b.id, b.members, space.measure(b.members)) for b in basis.balls]
    return BallBasis(space, balls, basis.hull, K=basis.K, eta=basis.eta)


STAT_BASES = {
    "grid40": lambda: build_grid(40),
    "dyadic7": lambda: build_dyadic(7),
    "dyadic7_relabelled": lambda: _relabelled(build_dyadic(7), seed=5)[0],
    "grid40_weighted": lambda: _reweighted(build_grid(40), seed=7),
}


@pytest.fixture(scope="session", params=sorted(STAT_BASES))
def stat_basis(request):
    """The bases the size-grouped ball statistics are checked on: a complete
    grid, a dyadic basis, the same with atoms relabelled (no ball an
    interval) and a grid with non-uniform atom weights."""
    return STAT_BASES[request.param]()


SCATTER_BASES = {**STAT_BASES,
                 "grid64": lambda: build_grid(64),
                 "dyadic10": lambda: build_dyadic(10)}


@pytest.fixture(scope="session", params=sorted(SCATTER_BASES))
def scatter_basis(request):
    """The stat bases and two whose star sums span several blocks:
    build_grid(64) (45,760 pairs, 4,110 span-index entries, two blocks at
    three components) and build_dyadic(10)."""
    return SCATTER_BASES[request.param]()


@pytest.fixture(scope="session")
def dyadic3():
    return build_dyadic(3)


@pytest.fixture(scope="session")
def dyadic4():
    return build_dyadic(4)


@pytest.fixture(scope="session")
def dyadic6():
    return build_dyadic(6)


@pytest.fixture(scope="session")
def dyadic8():
    return build_dyadic(8)


@pytest.fixture(scope="session")
def dyadic10():
    return build_dyadic(10)


@pytest.fixture(scope="session")
def grid8():
    return build_grid(8)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64)


@pytest.fixture(scope="session")
def grid128():
    return build_grid(128)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


# -- scalar two-pointer loops ------------------------------------------------
# One loop per query over the stably sorted values of scalar f on an atom set
# arr with weights w: the reference the sorted-window queries of
# ballbasis.functional must equal bitwise.


def _sorted_prefix(f, arr, w):
    """Stable sort order of scalar f on arr, the sorted values, and the
    prefix sums of the weights in that order."""
    v = f.values[arr, 0]
    order = np.argsort(v, kind="stable")
    return order, v[order], np.concatenate([[0.0], np.cumsum(w[order])])


def _value_windows(sv, width):
    """For each i, (i, j) with sv[i..j] the longest run of the sorted values
    sv that starts at i and spans at most width."""
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j + 1 < len(sv) and sv[j + 1] - sv[i] <= width:
            j += 1
        yield i, j


def alpha_oscillation_by_loop(f, arr, w, alpha):
    """The least width of a run of sorted values of mass over alpha*mu."""
    _, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    best = float("inf")
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j < len(sv) and pre[j + 1] - pre[i] <= need:
            j += 1
        if j == len(sv):
            break
        best = min(best, float(sv[j] - sv[i]))
    return best


def alpha_core_by_loop(f, arr, w, alpha, slack):
    """The first run of largest mass among the runs of mass over alpha*mu
    and width at most slack times the alpha-oscillation."""
    best = alpha_oscillation_by_loop(f, arr, w, alpha)
    order, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    best_mass, best_ij = -1.0, None
    for i, j in _value_windows(sv, slack * best + 1e-15):
        mass = pre[j + 1] - pre[i]
        if mass > need and mass > best_mass:
            best_mass, best_ij = mass, (i, j)
    i, j = best_ij
    return np.sort(arr[order[i:j + 1]]), best


def median_by_loop(f, arr, w):
    """The median core (every run of mass over mu/2 and width at most twice
    the 1/2-oscillation) and f at its lowest atom."""
    osc0 = 2.0 * alpha_oscillation_by_loop(f, arr, w, 0.5)
    order, sv, pre = _sorted_prefix(f, arr, w)
    half = 0.5 * pre[-1]
    marked = np.zeros(len(arr), dtype=bool)
    for i, j in _value_windows(sv, osc0):
        if pre[j + 1] - pre[i] > half:
            marked[order[i:j + 1]] = True
    med = arr[marked]
    return med, f.values[int(med.min())].copy()


def tied_values(n, seed):
    """Seeded values on n atoms with ties, a constant run and +-1e-170."""
    v = np.round(np.random.default_rng(seed).normal(size=n), 1)
    v[n // 4:n // 2] = v[n // 4]
    v[::7] = 1e-170
    v[3::7] = -1e-170
    return v


def ball_medians_by_groups(f, basis):
    """functional.ball_medians as one medians call per size group, no row
    padded: the reference the blocks of several groups must equal."""
    out = np.empty((basis.n_balls, f.dim))
    for ids, idx in basis.size_groups():
        out[ids] = medians(f, idx, basis, "auto")[1]
    return out


# -- dense kernels --------------------------------------------------------------


def dense_kernel(T):
    """T's kernel as one dense n x n array: the reference every kernel_block
    must equal bitwise.  An operator built on a dense kernel holds it; the
    zero, identity and sparse operators declare theirs by structure, and it
    is built here as they once built it: zeros, diag(1/w), and the listed
    balls' coefficients mu(A)^-rho added in listed order."""
    if T.kernel is not None:
        return T.kernel
    basis = T.basis
    n = basis.n_atoms
    if T.name == "zero":
        return np.zeros((n, n))
    if T.name == "identity":
        return np.diag(1.0 / basis.space.weights)
    assert T.name == "sparse_operator", T.name
    kernel = np.zeros((n, n))
    for bid in T.ball_ids.tolist():
        members = basis.members(bid)
        kernel[np.ix_(members, members)] += basis.mu[bid] ** (-T.params.rho)
    return kernel


# -- per-size-group scatters ----------------------------------------------------
# One np.minimum.at / np.maximum.at per size group, the star sums of a group
# as one (m, L, d) array: the reference the atom indexes and member-store
# reductions of ballbasis.space must equal bitwise.


def kernel_truncation_by_groups(T, f):
    """T*f of a kernel operator: Tf minus the star sums at each (ball,
    member) pair of a size group, from one n x (n+1) x d prefix array on
    interval bases and one star-masked product per group otherwise."""
    basis = T.basis
    n = basis.n_atoms
    tf = T.apply(f).values
    g = f.values * basis.space.weights[:, None]
    groups = basis.size_groups()
    kernel = dense_kernel(T)
    if basis.interval:
        slo, shi = basis.star_spans()
        pre = np.zeros((n, n + 1, g.shape[1]))
        np.multiply(kernel[:, :, None], g[None], out=pre[:, 1:])
        np.cumsum(pre[:, 1:], axis=1, out=pre[:, 1:])
        group_sums = [pre[idx, shi[ids, None] + 1] - pre[idx, slo[ids, None]]
                      for ids, idx in groups]
    else:
        star = np.zeros((basis.n_balls, n), dtype=bool)
        for i in range(basis.n_balls):
            star[i, basis.star_members(i)] = True
        group_sums = [np.matmul(kernel[idx], star[ids, :, None] * g)
                      for ids, idx in groups]
    out = np.zeros(n)
    for (ids, idx), sums in zip(groups, group_sums):
        np.maximum.at(out, idx, vector_norms(tf[idx] - sums, f.norm_kind))
    return out


def span_index_by_pairs(basis):
    """(lo, hi, counts) of star_sum_index() on an interval basis, walked
    from the pair index as the span index was once built: each (ball,
    member) pair's star span id, keyed by its atom, sorted and its repeats
    dropped.  The reference the span-built SpanIndex must equal."""
    n = basis.n_atoms
    slo, shi = basis.star_spans()
    spans, span_id = np.unique(slo * (n + 1) + shi + 1, return_inverse=True)
    pairs = basis.pair_index()
    key = np.unique(pairs.members(0, n) * len(spans) + span_id[pairs.ball])
    atom, ids = np.divmod(key, len(spans))
    return ((spans // (n + 1))[ids], (spans % (n + 1) - 1)[ids],
            np.bincount(atom, minlength=n))


def dense_ranks_by_groups(basis, dense):
    """sparsify._dense_ranks: each atom's least (-mu, id) rank of a dense
    ball containing it, n_balls if none."""
    order = np.lexsort((np.arange(basis.n_balls), -basis.mu))
    rank = np.empty(basis.n_balls, dtype=np.int64)
    rank[order] = np.arange(basis.n_balls)
    rank[~dense] = basis.n_balls
    best = np.full(basis.n_atoms, basis.n_balls)
    for ids, idx in basis.size_groups():
        np.minimum.at(best, idx, rank[ids][:, None])
    return order, best


# -- every level of a tail at once ----------------------------------------------


def level_tail_by_mask(x, g, w, mu, top):
    """functional.level_tail with the mask of every level built at once: the
    reference its early stop must equal bitwise."""
    above = x[..., None, :] > np.arange(top + 1)[:, None] * g
    return (np.where(above, w[..., None, :], 0.0).sum(axis=-1)
            / np.expand_dims(mu, -1))


# -- one operator apply per function --------------------------------------------
# The estimator as one T.apply per (sampled ball, suite function) in the L0
# and Monte-Carlo L1 passes and one per candidate in delta: the reference the
# stacked applies of ballbasis.operators must equal bitwise.


def delta_by_loop(T, a_id, b_id, seed):
    """operators.delta, its Monte-Carlo candidates applied one at a time."""
    from ballbasis.operators import _exactly_estimable

    basis = T.basis
    a_star = basis.star_members(a_id)
    b_star = basis.star_members(b_id)
    support = np.setdiff1d(b_star, a_star)
    if support.size == 0:
        return 0.0
    mu_bstar = basis.measure(b_star)
    members_a = basis.balls[a_id].members
    if _exactly_estimable(T):
        sub = dense_kernel(T)[np.ix_(members_a, support)]
        return float(mu_bstar * np.abs(sub).max())
    rng = np.random.default_rng([seed, a_id, b_id])
    w = basis.space.weights
    n = basis.n_atoms
    cands = []
    for y in support:
        v = np.zeros(n)
        v[y] = 1.0
        cands.append(v)
    for _ in range(20):
        v = np.zeros(n)
        v[support] = rng.normal(size=support.size)
        cands.append(v)
    p = T.params
    best = 0.0
    for v in cands:
        denom = mu_bstar ** (-p.rho) * float(
            (np.abs(v[b_star]) ** p.r * w[b_star]).sum()) ** p.varrho
        if denom == 0:
            continue
        val = T.apply(VecFunction(v)).norms()[members_a].max()
        best = max(best, float(val) / denom)
    return best


def superset_denominators_by_gather(basis, bid, mass, varrho, mu_rho):
    """operators._superset_denominators from the sums over every superset
    of ball bid, a size group at a time, and one row at a time after."""
    import math

    is_sup = np.zeros(basis.n_balls, dtype=bool)
    is_sup[basis.supersets(bid)] = True
    sup, sums = [], []
    for ids, idx in basis.size_groups():
        rows = is_sup[ids]
        if rows.any():
            sup.append(ids[rows])
            sums.append(np.take(mass, idx[rows], axis=1).sum(axis=-1))
    sup = np.concatenate(sup)
    mu_sup = mu_rho[sup]
    logs = np.array([math.log1p(q) for q in (basis.mu[sup] / basis.mu[bid]).tolist()])
    denoms, r4_denoms = [], []
    for row in np.concatenate(sums, axis=1):
        avg = mu_sup * np.array([s ** varrho for s in row.tolist()])
        denoms.append(float(avg.max()))
        r4_denoms.append(float((avg / logs).max()))
    return np.array(denoms), np.array(r4_denoms)


def estimate_by_loop(T, budget, seed):
    """operators.estimate_bo_constants with one T.apply per function."""
    from ballbasis.functional import volume_distance_matrix
    from ballbasis.operators import (BOConstants, _exactly_estimable, _osc_on,
                                     _sample_ball_ids, structured_suite)
    from ballbasis.space import exhausting_sequence

    basis = T.basis
    exact = _exactly_estimable(T)
    p = T.params
    w = basis.space.weights
    n = basis.n_atoms
    witnesses = {}
    suite = np.array(structured_suite(basis, budget, seed))
    ball_ids = _sample_ball_ids(basis, max(budget, 16), seed)

    l0 = 0.0
    for bid in ball_ids:
        members = basis.balls[int(bid)].members
        mu_b = basis.mu[int(bid)]
        for fi, v in enumerate(suite):
            rv = np.zeros(n)
            rv[members] = v[members]
            denom = mu_b ** (-p.rho) * float(
                (np.abs(rv[members]) ** p.r * w[members]).sum()) ** p.varrho
            if denom == 0:
                continue
            tn = T.apply(VecFunction(rv)).norms()[members]
            order = np.argsort(tn)[::-1]
            sorted_vals = tn[order]
            tail_mass = np.cumsum(w[members][order])
            pos = sorted_vals > 0
            if not pos.any():
                continue
            ratios = (sorted_vals[pos] / denom) * (tail_mass[pos] / mu_b) ** p.rho
            cand = float(ratios.max())
            if cand > l0:
                l0 = cand
                witnesses["L0"] = {"ball": int(bid), "suite_index": fi}

    l1 = 0.0
    r4 = 0.0
    if exact and basis.interval:
        dmat = volume_distance_matrix(basis)
        kernel = dense_kernel(T)
        for bid in range(basis.n_balls):
            star = basis.star_members(bid)
            if star.size == n:
                continue
            cols = kernel[basis.balls[bid].members]
            osc = cols.max(axis=0) - cols.min(axis=0)
            d = dmat[bid]
            ratios = osc * d
            ratios[star] = 0.0
            y = int(np.argmax(ratios))
            if ratios[y] > l1:
                l1 = float(ratios[y])
                witnesses["L1"] = {"ball": bid, "atom": y}
            r4_ratios = osc * d * np.log1p(d / basis.mu[bid])
            r4_ratios[star] = 0.0
            y4 = int(np.argmax(r4_ratios))
            if r4_ratios[y4] > r4:
                r4 = float(r4_ratios[y4])
                witnesses["R4"] = {"ball": bid, "atom": y4}
    mu_rho = np.array([m ** (-p.rho) for m in basis.mu.tolist()])
    for bid in ball_ids:
        bid = int(bid)
        members = basis.balls[bid].members
        star = basis.star_members(bid)
        if star.size == n:
            continue
        mask = np.ones(n)
        mask[star] = 0.0
        rvs = suite * mask
        denoms, r4_denoms = superset_denominators_by_gather(
            basis, bid, np.abs(rvs) ** p.r * w, p.varrho, mu_rho)
        for fi, (denom, r4_denom) in enumerate(zip(denoms.tolist(), r4_denoms.tolist())):
            if denom == 0:
                continue
            osc = _osc_on(T.apply(VecFunction(rvs[fi])).norms(), members)
            if osc / denom > l1:
                l1 = osc / denom
                witnesses["L1"] = {"ball": bid, "suite_index": fi}
            if r4_denom > 0 and osc / r4_denom > r4:
                r4 = osc / r4_denom
                witnesses["R4"] = {"ball": bid, "suite_index": fi}

    l2 = 0.0
    for bid in ball_ids:
        bid = int(bid)
        if len(basis.star_members(bid)) == n:
            continue
        b2 = basis.smallest_strict_superset(bid)
        if b2 is None:
            continue
        val = delta_by_loop(T, bid, b2, seed)
        if val > l2:
            l2 = val
            witnesses["L2"] = {"ball": bid, "grown": b2}

    ones = np.zeros(n)
    ones[basis.balls[exhausting_sequence(basis)[-1]].members] = 1.0
    t_last = T.apply(VecFunction(ones)).norms()
    r5 = max([0.0] + [_osc_on(t_last, basis.balls[int(b)].members) for b in ball_ids])
    return BOConstants(L0=float(l0), L1=float(l1), L2=float(l2),
                       method=("exact_linear_r1" if exact and basis.interval
                               else "monte_carlo"),
                       witnesses=witnesses,
                       r4_constant=float(r4), r5_value=float(r5))


# -- the star rule ball by ball ------------------------------------------------
# BallBasis.star_spans reads every star span off two sweeps; this is the star
# rule they must equal, one mask over all balls per ball.


def star_spans_by_mask(basis):
    """BallBasis.star_spans: the least lo and greatest hi over the balls A
    with mu(A) <= 2 mu(B) that meet B, (n_atoms, -1) where none does."""
    lo, hi, mu = basis.lo, basis.hi, basis.mu
    want_lo = np.empty(basis.n_balls, dtype=np.int64)
    want_hi = np.empty(basis.n_balls, dtype=np.int64)
    for i in range(basis.n_balls):
        mask = (mu <= 2 * mu[i]) & (lo <= hi[i]) & (hi >= lo[i])
        want_lo[i] = lo[mask].min(initial=basis.n_atoms)
        want_hi[i] = hi[mask].max(initial=-1)
    return want_lo, want_hi


def grid_hull_by_dict(n):
    """build_grid's hull map as it was first written: the balls [i, j] listed
    by i, then j, a dict from each span to its id, and every hull looked up
    there by the star span a first basis over the same balls reads off."""
    balls, spans = [], {}
    for i in range(n):
        for j in range(i, n):
            spans[(i, j)] = len(balls)
            balls.append(Ball(len(balls), np.arange(i, j + 1, dtype=np.int64),
                              float(j - i + 1)))
    basis = BallBasis(MeasureSpace(np.ones(n)), balls, list(range(len(balls))),
                      K=5.0, eta=2.0)
    return [spans[(int(a), int(b))] for a, b in zip(*basis.star_spans())]


# -- the builders through the Ball-list entry ---------------------------------
# build_dyadic and build_grid written ball by ball: one Ball per ball, listed
# in id order, through BallBasis(space, balls, ...).  The builders' bases,
# made by BallBasis.from_spans without a Ball, must equal these.


def dyadic_by_balls(levels):
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
    return BallBasis(space, balls, hull, K=2.0, eta=2.0)


def grid_by_balls(n):
    space = MeasureSpace(np.ones(n))
    lo, hi = np.triu_indices(n)
    balls = [Ball(bid, np.arange(i, j + 1, dtype=np.int64), float(j - i + 1))
             for bid, (i, j) in enumerate(zip(lo.tolist(), hi.tolist()))]
    return BallBasis(space, balls, grid_hull_by_dict(n), K=5.0, eta=2.0)


# -- membership-matrix containment and stars ---------------------------------
# Containment and stars read from an n_balls x n_atoms boolean membership
# matrix built here, ball by ball: the reference the span and pair-index
# answers of BallBasis must equal.  No reference reads the basis's own
# member_matrix().

_MEMBERSHIP = weakref.WeakKeyDictionary()


def membership_by_loop(basis):
    """(n_balls, n_atoms) bool: row i marks the members of basis.balls[i].
    Built once per basis and kept for the basis's lifetime."""
    if basis not in _MEMBERSHIP:
        m = np.zeros((basis.n_balls, basis.n_atoms), dtype=bool)
        for i, b in enumerate(basis.balls):
            m[i, b.members] = True
        _MEMBERSHIP[basis] = m
    return _MEMBERSHIP[basis]


def containing_by_matrix(basis, idx, balls=slice(None)):
    """BallBasis._containing: (m, k) mask of whether ball balls[j] contains
    every atom of row r of idx, an (m, L) stack of sorted atom sets."""
    mask = (basis.lo[balls] <= idx[:, :1]) & (basis.hi[balls] >= idx[:, -1:])
    return mask & membership_by_loop(basis)[balls][:, idx].all(axis=2).T


def star_of_set_by_matrix(basis, members):
    """BallBasis.star_of_set: S together with every ball A such that
    mu(A) <= 2 mu(S) and A meets S; S is the set of the given atoms, so
    order and repeats do not matter."""
    arr = np.array(sorted(set(int(a) for a in members)), dtype=np.int64)
    if arr.size == 0:
        return arr
    m = membership_by_loop(basis)
    touches = m[:, arr].any(axis=1) & (basis.mu <= 2 * basis.measure(arr))
    union = m[touches].any(axis=0)
    union[arr] = True
    return np.flatnonzero(union)


def superset_max_by_matrix(basis, vals, strict=False):
    """BallBasis.superset_max over the supersets of every ball."""
    out = np.full(basis.n_balls, -np.inf)
    for i, b in enumerate(basis.balls):
        mask = containing_by_matrix(basis, b.members[None])[0]
        if strict:
            mask &= basis.sizes > basis.sizes[i]
        if mask.any():
            out[i] = vals[mask].max()
    return out


def superset_max_by_argmax(basis, vals, groups=None, strict=False):
    """BallBasis.superset_max as one containment mask per group over the
    balls in decreasing vals (stable order), whose first containing ball
    holds the max: the reference the interval sweep and the masked max of
    the other bases must equal."""
    order = np.argsort(-vals, kind="stable")
    out = np.full(basis.n_balls, -np.inf)
    for ids, idx in basis.size_groups() if groups is None else groups:
        mask = basis._containing(idx)[:, order]
        if strict:
            mask &= basis.sizes[order] > idx.shape[1]
        first = mask.argmax(axis=1)
        found = mask[np.arange(len(ids)), first]
        out[ids] = np.where(found, vals[order[first]], -np.inf)
    return out


# -- per-ball axiom check and per-case BMO suite ------------------------------


def check_axioms_by_loop(basis):
    """space.check_axioms with one membership-matrix star and containment
    mask per ball and one strict superset search per ball: the reference the
    cover-table and stacked containment paths must equal."""
    import math

    from ballbasis.space import AxiomReport

    def containing(arr):
        return containing_by_matrix(basis, arr[None])[0]

    b1_failures = []
    for b in basis.balls:
        recomputed = basis.space.measure(b.members)
        if len(b.members) == 0 or b.measure <= 0 or not math.isclose(
                b.measure, recomputed, rel_tol=1e-12, abs_tol=0.0):
            b1_failures.append(b.id)
    b1_pass = not b1_failures and bool(np.all(basis.space.weights > 0))
    if basis.full_ball_id() is not None:
        b2_pass = True
    else:
        m = membership_by_loop(basis).astype(np.float64)
        b2_pass = bool(np.all(m.T @ m > 0))

    hull_failures = []
    k_min = 0.0
    eta_min = 0.0
    eta_counterexample = None
    for i in range(basis.n_balls):
        star = star_of_set_by_matrix(basis, basis.balls[i].members)
        covering = containing(star)
        h = basis.hull[i]
        if not (covering[h] and basis.mu[h] <= basis.K * basis.mu[i] + 1e-12):
            hull_failures.append(i)
        if covering.any():
            k_min = max(k_min, basis.mu[covering].min() / basis.mu[i])
        else:
            hull_failures.append(i)
        if star.size == basis.n_atoms:
            continue
        strict = np.flatnonzero(containing(basis.balls[i].members)
                                & (basis.sizes > basis.sizes[i]))
        if strict.size == 0:
            eta_counterexample = i
        else:
            eta_min = max(eta_min, basis.mu[strict].min() / basis.mu[i])
    if eta_counterexample is not None:
        eta_min = None
    return AxiomReport(
        b1_pass=b1_pass, b1_failures=b1_failures, b2_pass=b2_pass,
        k_min=float(k_min), hull_valid=not hull_failures,
        hull_failures=sorted(set(hull_failures)),
        eta_min=None if eta_min is None else float(eta_min),
        eta_counterexample=eta_counterexample,
    )


def _apply_norms(op, f):
    """||op f||: a descriptor's apply, or a plain callable's output."""
    if hasattr(op, "apply"):
        return op.apply(f).norms()
    return np.asarray(op(f), dtype=float)


def bmo_bounded_by_loop(op, corpus, basis, mode, threshold):
    """One report of verify.bmo_bounded_reports, with one apply and two
    bmo_norm calls per corpus case."""
    from ballbasis.functional import bmo_norm
    from ballbasis.verify import CaseRow, Report

    rows = []
    worst = 0.0
    for cid, f in corpus.cases(basis.n_atoms):
        denom = bmo_norm(f, basis) if mode == "bmo" else float(f.norms().max())
        if denom <= 0:
            continue
        out = _apply_norms(op, f)
        ratio = bmo_norm(VecFunction(out[:, None]), basis) / denom
        rows.append(CaseRow(cid, "bmo_ratio", float(ratio), ratio <= threshold))
        worst = max(worst, ratio)
    return Report("bmo_bounded", all(r.passed for r in rows),
                  {"max_ratio": worst, "mode": mode, "threshold": threshold,
                   "cases": len(rows)}, rows)


# -- one apply per corpus case and one table per alpha ---------------------------
# The weak-type and good-lambda reports with one apply of T (and of T*) per
# corpus case, and the strong-domination profile with one alpha_oscillation
# per alpha: the references the stacked passes of ballbasis.verify must
# equal.


def weak_type_ratio_by_levels(out, w, rho, denom):
    """verify._weak_type_ratio with one masked sum per distinct value."""
    ratio = 0.0
    for v in np.unique(out):
        if v <= 0:
            continue
        mass = float(w[out >= v].sum())
        ratio = max(ratio, v ** (1.0 / rho) * mass / denom)
    return ratio


def good_lambda_ratio_by_levels(tf, ts, mf, delta, w):
    """verify._good_lambda_ratio with two masked sums per distinct level."""
    import math

    ratio = 0.0
    for lam in np.unique(ts):
        if lam <= 0:
            continue
        lhs = float(w[(ts > lam) & (mf < delta * lam)].sum())
        if lhs == 0.0:
            continue
        rhs = float(w[tf > lam / 2.0].sum())
        ratio = max(ratio, lhs / rhs if rhs > 0 else math.inf)
    return ratio


def weak_type_by_cases(op, corpus, basis, p, bound):
    """verify.weak_type_report with one apply per corpus case."""
    from ballbasis.verify import CaseRow, Report

    w = basis.space.weights
    rows = []
    worst = 0.0
    for cid, f in corpus.cases(basis.n_atoms):
        out = _apply_norms(op, f)
        denom = float(np.sum(f.norms() ** p.r * w)) ** (p.varrho / p.rho)
        ratio = weak_type_ratio_by_levels(out, w, p.rho, denom) if denom > 0 else 0.0
        ok = True if bound is None else ratio <= bound
        rows.append(CaseRow(cid, "weak_type_ratio", float(ratio), ok))
        worst = max(worst, ratio)
    return Report("weak_type", all(r.passed for r in rows),
                  {"max_ratio": worst, "bound": bound,
                   "r": p.r, "varrho": p.varrho, "rho": p.rho}, rows)


def good_lambda_by_cases(T, consts, corpus, c, threshold):
    """verify.good_lambda_report with one apply of T and one of truncate(T)
    per corpus case."""
    import math

    from ballbasis import maximal, truncate
    from ballbasis.verify import CaseRow, Report

    basis = T.basis
    delta = c / (consts.L0 + consts.L1) if (consts.L0 + consts.L1) > 0 else math.inf
    tstar = truncate(T)
    w = basis.space.weights
    rows = []
    worst = 0.0
    for cid, f in corpus.cases(basis.n_atoms):
        tf = T.apply(f).norms()
        ts = tstar.apply(f).norms()
        ratio = good_lambda_ratio_by_levels(tf, ts, maximal(f, basis, T.params),
                                            delta, w)
        rows.append(CaseRow(cid, "good_lambda_ratio", float(ratio),
                            ratio <= threshold))
        worst = max(worst, ratio)
    return Report("good_lambda", all(r.passed for r in rows),
                  {"max_ratio": worst, "delta": delta, "c": c,
                   "threshold": threshold}, rows)


def alpha_profile_by_alphas(f, g, basis, b_id):
    """The beta rows of verify.strong_domination_check, one
    alpha_oscillation per alpha."""
    from ballbasis import alpha_oscillation
    from ballbasis.verify import CaseRow

    members = basis.balls[int(b_id)].members
    inf_g = float(g.norms()[members].min())
    rows = []
    for a in (k / 20.0 for k in range(1, 20)):
        beta = alpha_oscillation(f, members, a, basis) / inf_g
        rows.append(CaseRow(f"alpha={a:g}", "beta", float(beta), True))
    return rows


# -- exceptional sets atom by atom -------------------------------------------------


def f_family_by_loop(basis, alpha, seed):
    """cli.make_f_family taking each ball's atoms in noise order, one at a
    time, while the running mass stays below alpha mu(B)."""
    noise = np.random.default_rng([seed, 17]).random(basis.n_atoms)
    w = basis.space.weights

    def f_map(ball_id):
        ms = basis.balls[int(ball_id)].members
        budget = alpha * basis.mu[int(ball_id)]
        take = []
        acc = 0.0
        for a in ms[np.argsort(noise[ms], kind="stable")]:
            if acc + w[a] >= budget:
                break
            acc += w[a]
            take.append(int(a))
        return np.array(sorted(take), dtype=np.int64)

    return f_map
