"""Concrete operator instances, truncation, maximal modulation, and empirical
estimation of the bounded-oscillation constants L0 (weak type), L1
(localization) and L2 (connectivity).

All estimated constants are certified lower bounds: every reported value comes
with a witness input that reproduces the ratio.  The delta-function scan is
exact over the delta class for linear kernel operators with the classical
r = 1 profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotComparable
from .functional import Params, VecFunction, _power, max_candidates, vector_norms
from .space import BLOCK_ELEMS, BallBasis


class OperatorDescriptor:
    """An operator on functions over the basis atoms, its structure declared
    once.  A linear operator has a kernel, Tf(x) = sum_y K(x, y) f(y) w(y),
    and declares it by a kernel block: kernel_block(rows, cols=None) returns
    the entries K[rows, cols] (rows and cols 1-d integer arrays), or, with
    cols None, the whole kernel rows K[rows] (rows a slice or an integer
    array of any shape, its shape followed by the atom axis).  The exact
    passes (delta, the exact L1 pass, the kernel truncation) read entries
    only through it.  A dense kernel array, passed as kernel, gives both the
    block (by indexing: slabs are views) and the apply (a matmul); an
    operator with a structural kernel_block gives its apply as apply_fn.
    Without either T is not linear and apply_fn gives Tf.  apply_fn, if
    given with a kernel, is only a faster way to the same values.
    truncate_fn, if given, gives the truncation T*f (see truncate) and takes
    precedence over the kernel.

    Operators apply to stacks: a (k, atoms, dim) array of k functions of one
    norm kind.  apply_fn(stack, norm_kind) returns the (k, atoms, dim') stack
    of their images, and truncate_fn(stack, norm_kind) returns T*f of every
    row as a (k, atoms) array.  Each row of either must equal bitwise what
    that row gives alone, so a caller may stack any rows it likes."""

    def __init__(self, name: str, basis: BallBasis, params: Params,
                 kernel: np.ndarray | None = None, kernel_block=None,
                 apply_fn=None, truncate_fn=None):
        if kernel is not None and kernel_block is not None:
            raise ValueError("give a dense kernel or a kernel block, not both")
        if kernel is None and apply_fn is None:
            raise ValueError("an operator needs a dense kernel or an apply_fn")
        self.name = name
        self.basis = basis
        self.params = params
        self.kernel = kernel
        if kernel is not None:
            def kernel_block(rows, cols=None):
                return kernel[rows] if cols is None else kernel[np.ix_(rows, cols)]
        self.kernel_block = kernel_block
        self._apply_fn = apply_fn
        self._truncate_fn = truncate_fn
        self._bo_constants: dict = {}  # (budget, seed) -> BOConstants

    @property
    def linear(self) -> bool:
        return self.kernel_block is not None

    @property
    def restricted(self) -> bool:
        """Linear with the classical profile (the mean-oscillation results)."""
        return self.linear and self.params.classical

    def apply_stack(self, stack: np.ndarray, norm_kind: str) -> np.ndarray:
        """T of every row of a (k, atoms, dim) stack.  A dense kernel goes
        through numpy's stacked matmul, one matrix-vector product per row,
        which rounds each row as a lone product does; one (atoms, k) matrix
        product would not."""
        if self._apply_fn is None:
            w = self.basis.space.weights
            return self.kernel @ (stack * w[:, None])
        return self._apply_fn(stack, norm_kind)

    def apply(self, f: VecFunction) -> VecFunction:
        return VecFunction(self.apply_stack(f.values[None], f.norm_kind)[0],
                           f.norm_kind)

    def bo_constants(self, budget: int, seed: int) -> BOConstants:
        """estimate_bo_constants(self, budget, seed), computed once
        per (budget, seed) for this operator."""
        key = (int(budget), int(seed))
        if key not in self._bo_constants:
            self._bo_constants[key] = estimate_bo_constants(
                self, budget=key[0], seed=key[1])
        return self._bo_constants[key]

    def __repr__(self):
        return f"<operator {self.name}>"


# -- shipped operator constructors ------------------------------------------------


def dyadic_levels(basis: BallBasis) -> int:
    """basis.dyadic_levels(); the dyadic operators need build_dyadic's layout."""
    levels = basis.dyadic_levels()
    if levels is None:
        raise ValueError("operator needs a martingale (dyadic) basis")
    return levels


def _require_grid(basis: BallBasis):
    """The grid kernels read atoms as points of a line with counting
    measure: every ball an atom interval, every atom weight 1."""
    if not (basis.interval and np.all(basis.space.weights == 1.0)):
        raise ValueError("operator needs an interval basis over unit atom weights")


def _level_slices(g: int):
    """Ball ids of dyadic generation g."""
    return range((1 << g) - 1, (1 << (g + 1)) - 1)


def conditional_expectation(basis: BallBasis, level: int) -> OperatorDescriptor:
    """E_level f = sum over generation-level balls of f_B 1_B."""
    levels = dyadic_levels(basis)
    if not (0 <= level <= levels):
        raise ValueError("level out of range")
    width = basis.n_atoms >> level  # block diagonal, one block per ball
    kernel = np.kron(np.diag(1.0 / basis.mu[_level_slices(level)]),
                     np.ones((width, width)))
    return OperatorDescriptor(f"cond_exp[{level}]", basis,
                              Params.classical_profile(1.0), kernel=kernel)


def martingale_transform(basis: BallBasis, eps) -> OperatorDescriptor:
    """M_eps f = sum over non-leaf balls A of eps_A Delta_A f, with eps_A =
    eps[A]: the non-leaf balls are ids 0 .. n-2 in heap order."""
    dyadic_levels(basis)  # raises unless the basis is dyadic
    n = basis.n_atoms
    if len(eps) < n - 1:
        raise ValueError(f"eps needs {n - 1} signs, one per non-leaf ball")
    kernel = np.zeros((n, n))
    for a in range(n - 1):
        alo, ahi = int(basis.lo[a]), int(basis.hi[a])
        sign = float(eps[a])
        if sign not in (-1.0, 1.0):
            raise ValueError("eps values must be +-1")
        for b in (2 * a + 1, 2 * a + 2):  # heap-order children
            blo, bhi = int(basis.lo[b]), int(basis.hi[b])
            kernel[blo:bhi + 1, blo:bhi + 1] += sign / basis.mu[b]
            kernel[blo:bhi + 1, alo:ahi + 1] -= sign / basis.mu[a]
    return OperatorDescriptor("martingale_transform", basis,
                              Params(r=1.0, rho=1.0, varrho=1.0), kernel=kernel)


def square_function(basis: BallBasis) -> OperatorDescriptor:
    """Sf = (sum over A of ||Delta_A f||^2)^(1/2)."""
    levels = dyadic_levels(basis)
    n = basis.n_atoms
    mu = [basis.mu[_level_slices(g)][:, None] for g in range(levels + 1)]
    # B* is B or an ancestor (the star rule adds the nested balls of measure
    # <= 2 mu(B)): the run of width w = n / 2^p at place slo / w of some
    # generation p, so ball 2^p - 1 + slo / w = (n + slo) / w - 1
    slo, shi = basis.star_spans()
    star_id = (n + slo) // (shi - slo + 1) - 1

    def block_sums(stack):
        # Generation g is 2^g consecutive blocks of n >> g atoms (checked by
        # dyadic_levels), so one reshape gives every block sum of the level:
        # entry g is (k, 2^g, dim)
        wf = stack * basis.space.weights[:, None]
        return [wf.reshape(len(wf), 1 << g, n >> g, -1).sum(axis=2)
                for g in range(levels + 1)]

    def square(means, norm_kind, width):
        # E_{g+1} f - E_g f at x involves only the ball containing x, so the
        # means per ball of successive generations (each (k, balls, dim),
        # every one a refinement of the one before) recover the individual
        # Delta_A terms; they are summed in generation order at width columns
        acc = np.zeros((len(means[0]), width))
        for prev, cur in zip(means, means[1:]):
            step = cur - np.repeat(prev, cur.shape[1] // prev.shape[1], axis=1)
            acc += np.repeat(vector_norms(step, norm_kind) ** 2,
                             width // cur.shape[1], axis=1)
        return np.sqrt(acc)

    def apply_fn(stack, norm_kind):
        means = [s / m for s, m in zip(block_sums(stack), mu)]
        return square(means, norm_kind, n)[..., None]

    def truncate_fn(stack, norm_kind):
        # For x in B with B* at generation p, f 1_{X minus B*} has the block
        # sum s_q - s_p on x's generation-q ball for q <= p and 0 below, so
        # T(f 1_{X minus B*})(x) comes from the means c_q = (s_q - s_p)/mu_q,
        # each constant on the balls of generation p
        s = block_sums(stack)
        by_star = [np.zeros((len(stack), 1))]  # per ball of generation p, heap order
        for p in range(1, levels + 1):
            means = [(np.repeat(s[q], 1 << (p - q), axis=1) - s[p])
                     / np.repeat(mu[q], 1 << (p - q), axis=0)
                     for q in range(p + 1)]
            by_star.append(square(means, norm_kind, 1 << p))
        # (k, balls): each ball B's value, that of the ball B*; T*f at x is
        # the max over x's balls, one per generation
        by_ball = np.concatenate(by_star, axis=1)[:, star_id]
        out = np.zeros((len(stack), n))
        for g in range(levels + 1):
            np.maximum(out, np.repeat(by_ball[:, (1 << g) - 1:(1 << (g + 1)) - 1],
                                      n >> g, axis=1), out=out)
        return out

    return OperatorDescriptor("square_function", basis,
                              Params(r=1.0, rho=1.0, varrho=1.0),
                              apply_fn=apply_fn, truncate_fn=truncate_fn)


def _block_index(n: int, rows, cols):
    """The atoms a kernel_block(rows, cols) call names, as integer arrays:
    rows keeps its shape (a slice becomes its atoms) and cols None becomes
    every atom."""
    atoms = np.arange(n)
    return atoms[rows], atoms if cols is None else atoms[cols]


def sparse_operator(basis: BallBasis, ball_ids, rho: float = 1.0) -> OperatorDescriptor:
    """A_S f = sum over the listed balls A (repeats kept) of
    mu(A)^-rho (sum over A of f w) 1_A.  Tf, T*f and the kernel blocks are
    read from the ball list, kept as ball_ids; no n x n kernel is built."""
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0,1]")
    n, nb = basis.n_atoms, basis.n_balls
    w = basis.space.weights
    ids = np.array([int(bid) for bid in ball_ids], dtype=np.intp)
    ids.setflags(write=False)
    listed = [(basis.members(bid), basis.mu[bid] ** (-rho)) for bid in ids.tolist()]

    def kernel_block(rows, cols=None):
        # K[x, y] adds mu(A)^-rho over the listed A holding x and y, in
        # listed order from 0.0
        r, c = _block_index(n, rows, cols)
        out = np.zeros((r.size, c.size))
        flat = r.ravel()
        inside = np.zeros(n, dtype=bool)
        for members, coef in listed:
            inside[:] = False
            inside[members] = True
            out[np.ix_(inside[flat], inside[c])] += coef
        return out.reshape(r.shape + c.shape)

    def apply_fn(stack, norm_kind):
        g = stack * w[:, None]
        out = np.zeros_like(g)
        for members, c in listed:
            # a running sum adds each row's terms in atom order, as alone
            out[:, members] += c * np.cumsum(g[:, members], axis=1)[:, -1:]
        return out

    index = []

    def build_index():
        # per listed ball A: the (bin, atom) terms of the sums of g over the
        # atoms of A in B* for every ball B (bin B) and over A (bin nb), each
        # in atom order; and the pairs (B, x) of pair_index() with x in A
        star_atom, offsets = basis.star_lists()
        star_ball = np.repeat(np.arange(nb), np.diff(offsets))
        pairs = basis.pair_index()
        pair_atom = pairs.members(0, n)
        for members, _ in listed:
            inside = np.zeros(n, dtype=bool)
            inside[members] = True
            sel = inside[star_atom]
            pos = np.flatnonzero(inside[pair_atom])
            index.append((np.concatenate([star_ball[sel], np.full(members.size, nb)]),
                          np.concatenate([star_atom[sel], members]),
                          pos, pairs.ball[pos]))

    def star_rows(stack, norm_kind):
        # T(f 1_{X minus B*})(x) = sum over listed A containing x of
        # mu(A)^-rho (sum of g over A minus sum over the atoms of A in B*),
        # g = f w.  Both sums add in atom order (bincount), so where A lies
        # in B* they are equal and the term is exactly 0
        k, _, d = stack.shape
        # column j of g is component j % d of row j // d
        g = (stack * w[:, None]).transpose(1, 0, 2).reshape(n, k * d)
        pairs = basis.pair_index()
        vals = np.zeros((len(pairs.ball), k * d))
        for (_, c), (bins, atoms, pos, ball) in zip(listed, index):
            sums = np.stack([np.bincount(bins, weights=g[atoms, j], minlength=nb + 1)
                             for j in range(k * d)], axis=1)
            vals[pos] += c * (sums[nb] - sums[ball])
        norms = vector_norms(vals.reshape(-1, k, d), norm_kind)
        return pairs.reduce(np.maximum, norms, np.zeros((n, k)), 0, n).T

    def truncate_fn(stack, norm_kind):
        if not index:
            build_index()
        # the rows in runs whose (pair, component) values stay within
        # BLOCK_ELEMS
        step = max(1, BLOCK_ELEMS // (len(basis.pair_index().ball) * stack.shape[2]))
        return np.concatenate([star_rows(stack[i:i + step], norm_kind)
                               for i in range(0, len(stack), step)])

    op = OperatorDescriptor("sparse_operator", basis,
                            Params(r=1.0, rho=rho, varrho=1.0),
                            kernel_block=kernel_block, apply_fn=apply_fn,
                            truncate_fn=truncate_fn)
    op.ball_ids = ids
    return op


def riesz_potential(basis: BallBasis, alpha: float) -> OperatorDescriptor:
    """I_alpha f(x) = sum_y f(y) / max(|x-y|, 1)^(1-alpha) on a unit grid."""
    _require_grid(basis)
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0,1)")
    n = basis.n_atoms
    idx = np.arange(n)
    dist = np.maximum(np.abs(idx[:, None] - idx[None, :]), 1.0)
    kernel = dist ** (alpha - 1.0)
    return OperatorDescriptor(f"riesz[{alpha}]", basis,
                              Params(r=1.0, rho=1.0 - alpha, varrho=1.0),
                              kernel=kernel)


def discrete_hilbert(basis: BallBasis) -> OperatorDescriptor:
    """Hf(x) = sum_{y != x} f(y)/(x - y)."""
    _require_grid(basis)
    n = basis.n_atoms
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        kernel = np.where(diff == 0, 0.0, 1.0 / np.where(diff == 0, 1, diff))
    return OperatorDescriptor("discrete_hilbert", basis,
                              Params.classical_profile(1.0), kernel=kernel)


# The identity and zero operators truncate to 0: B lies in B*, so
# T(f 1_{X minus B*}) vanishes on B.


def identity_operator(basis: BallBasis) -> OperatorDescriptor:
    """K = diag(1/w), its blocks read off the atom weights."""
    n = basis.n_atoms
    inv_w = 1.0 / basis.space.weights

    def kernel_block(rows, cols=None):
        r, c = _block_index(n, rows, cols)
        r = r[..., None]
        return np.where(r == c, inv_w[r], 0.0)

    return OperatorDescriptor("identity", basis, Params.classical_profile(1.0),
                              kernel_block=kernel_block,
                              apply_fn=lambda stack, norm_kind: stack,
                              truncate_fn=lambda stack, norm_kind: np.zeros(stack.shape[:2]))


def zero_operator(basis: BallBasis) -> OperatorDescriptor:
    n = basis.n_atoms

    def kernel_block(rows, cols=None):
        r, c = _block_index(n, rows, cols)
        return np.zeros(r.shape + c.shape)

    return OperatorDescriptor(
        "zero", basis, Params.classical_profile(1.0), kernel_block=kernel_block,
        apply_fn=lambda stack, norm_kind: np.zeros_like(stack),
        truncate_fn=lambda stack, norm_kind: np.zeros(stack.shape[:2]))


# -- truncation and modulation ---------------------------------------------------


def _kernel_truncation(T: OperatorDescriptor, stack: np.ndarray,
                       norm_kind: str) -> np.ndarray:
    """T*f of a kernel operator for each row f of a (k, atoms, dim) stack, as
    (k, atoms): T(f 1_{X minus B*})(x) is Tf(x) minus the sum over y in B*
    of K(x, y) f(y) w(y), taken at every entry of star_sum_index() (once
    per distinct (atom, star span) on interval bases, per (ball, member)
    pair on others) and maximized per atom.  One pass of star sums serves
    every row."""
    basis = T.basis
    k, n, _ = stack.shape
    # (atoms, k, dim): the rows side by side at each atom
    tf = T.apply_stack(stack, norm_kind).transpose(1, 0, 2)
    g = (stack * basis.space.weights[:, None]).transpose(1, 0, 2)
    index = basis.star_sum_index()
    out = np.zeros((n, k))
    for lo, hi, sums in basis.member_star_sums(T.kernel_block, g):
        norms = vector_norms(tf[index.members(lo, hi)] - sums, norm_kind)
        index.reduce(np.maximum, norms, out, lo, hi)
    return out.T


def _truncation(T: OperatorDescriptor):
    """(stack, norm_kind) -> T*f of every row as (k, atoms), from T's
    declared structure, or None."""
    if T._truncate_fn is None and T.linear:
        return lambda stack, norm_kind: _kernel_truncation(T, stack, norm_kind)
    return T._truncate_fn


def truncate(T: OperatorDescriptor) -> OperatorDescriptor:
    """T*f(x) = sup over balls B containing x of ||T(f 1_{X minus B*})(x)||.

    Read from T's declared structure, never by applying T once per ball: a
    declared truncate_fn gives it, else a kernel gives star sums subtracted
    from Tf, and an operator with neither raises ValueError.  Both act on a
    whole (k, atoms, dim) stack at once, and the truncation's apply returns
    the (k, atoms, 1) stack of T*f."""
    star = _truncation(T)
    if star is None:
        raise ValueError(f"{T.name} declares neither a kernel nor a truncation")
    return OperatorDescriptor(
        f"trunc({T.name})", T.basis, T.params,
        apply_fn=lambda stack, norm_kind: star(stack, norm_kind)[..., None])


def maximal_modulation(family: list[OperatorDescriptor]) -> OperatorDescriptor:
    if not family:
        raise ValueError("empty modulation family")
    basis = family[0].basis
    if any(t.basis is not basis for t in family):
        raise ValueError("family members must share the basis")

    def apply_fn(stack, norm_kind):
        out = np.zeros(stack.shape[:2])
        for t in family:
            np.maximum(out, vector_norms(t.apply_stack(stack, norm_kind), norm_kind),
                       out=out)
        return out[..., None]

    # the sup over members commutes with the sup over balls in T*
    stars = [_truncation(t) for t in family]

    def truncate_fn(stack, norm_kind):
        out = np.zeros(stack.shape[:2])
        for star in stars:
            np.maximum(out, star(stack, norm_kind), out=out)
        return out

    return OperatorDescriptor(
        f"modulation[{len(family)}]", basis, family[0].params, apply_fn=apply_fn,
        truncate_fn=truncate_fn if all(s is not None for s in stars) else None)


# -- the Delta(A, B) connectivity functional ----------------------------------------

# the suite has four kinds of at most _SUITE_PER_KIND functions each, and no
# stack the estimator applies is wider than the widest suite
_SUITE_PER_KIND = 8
_STACK_ROWS = 4 * _SUITE_PER_KIND


def _exactly_estimable(T: OperatorDescriptor) -> bool:
    return T.restricted and T.params.r == 1.0


def delta(T: OperatorDescriptor, a_id: int, b_id: int, seed: int = 0) -> float:
    """Delta_T(A,B) = sup over x in A, f of ||T(f 1_{B* minus A*})(x)|| / <f>_{B*};
    a Monte-Carlo lower bound over deltas and 20 seeded functions unless exact."""
    basis = T.basis
    if not basis.contains(a_id, b_id):
        raise NotComparable("need A contained in B")
    a_star = basis.star_members(a_id)
    b_star = basis.star_members(b_id)
    support = np.setdiff1d(b_star, a_star)
    if support.size == 0:
        return 0.0
    mu_bstar = basis.measure(b_star)
    members_a = basis.members(a_id)
    if _exactly_estimable(T):
        sub = np.abs(T.kernel_block(members_a, support))
        return float(mu_bstar * sub.max())
    # monte-carlo lower bound over deltas and random test functions, applied
    # in stacks no wider than the widest suite
    rng = np.random.default_rng([seed, a_id, b_id])
    w = basis.space.weights
    cands = np.zeros((support.size + 20, basis.n_atoms))
    cands[np.arange(support.size), support] = 1.0
    cands[support.size:, support] = rng.normal(size=(20, support.size))
    p = T.params
    masses = (np.abs(np.take(cands, b_star, axis=1)) ** p.r * w[b_star]).sum(axis=1)
    denoms = (mu_bstar ** (-p.rho) * _power(masses, p.varrho)).tolist()
    rows = [i for i, d in enumerate(denoms) if d != 0]
    best = 0.0
    for start in range(0, len(rows), _STACK_ROWS):
        chunk = rows[start:start + _STACK_ROWS]
        tv = vector_norms(T.apply_stack(cands[chunk, :, None], "euclidean"), "euclidean")
        for i, val in zip(chunk, tv[:, members_a].max(axis=1).tolist()):
            best = max(best, val / denoms[i])
    return best


# -- BO constants -----------------------------------------------------------------


@dataclass
class BOConstants:
    L0: float
    L1: float
    L2: float
    method: str
    r4_constant: float
    r5_value: float
    witnesses: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.L0 + self.L1 + self.L2


def structured_suite(basis: BallBasis, budget: int, seed: int) -> list[np.ndarray]:
    """Seeded test functions shared by every estimator (criterion: a modulation
    family is probed with exactly the suite its members were probed with)."""
    rng = np.random.default_rng([int(seed), 20260823])
    n = basis.n_atoms
    funcs = []
    k = max(1, min(_SUITE_PER_KIND, budget))
    for _ in range(k):
        funcs.append(rng.choice([-1.0, 1.0], size=n))
    for _ in range(k):
        funcs.append(rng.normal(size=n))
    for _ in range(k):
        i = int(rng.integers(0, n))
        j = int(rng.integers(i, n))
        v = np.zeros(n)
        v[i:j + 1] = 1.0
        funcs.append(v)
    for _ in range(k):  # haar-like: split a random block into +/- halves
        i = int(rng.integers(0, max(1, n - 1)))
        width = int(rng.integers(1, max(2, n // 4)))
        j = min(n, i + 2 * width)
        v = np.zeros(n)
        mid = (i + j) // 2
        v[i:mid] = 1.0
        v[mid:j] = -1.0
        funcs.append(v)
    return funcs


def _sample_ball_ids(basis: BallBasis, budget: int, seed: int) -> np.ndarray:
    if basis.n_balls <= budget:
        return np.arange(basis.n_balls)
    rng = np.random.default_rng([int(seed), 555])
    return np.sort(rng.choice(basis.n_balls, size=budget, replace=False))


def _superset_denominators(basis: BallBasis, bid: int, sup_ids: np.ndarray,
                           mass: np.ndarray, varrho: float,
                           mu_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L1 and R4 denominators of each row of a nonnegative (k, n) mass:
    the max over the supersets A of ball bid (sup_ids) of (sum of the row
    over A) ** varrho * mu_rho[A], and the max of that over log1p(mu(A) /
    mu(bid)); 0 for a row of mass 0, which sums to 0 over every A.

    Bound, then confirm: where the basis gives ball sums within an error
    bound (approx_ball_sums, interval bases), max_candidates keeps the
    supersets that may hold a row's L1 or R4 max, and only those are summed
    exactly; other bases sum over every superset.  Each exact sum is one
    C-ordered gather of the rows over a candidate superset's members, so it
    rounds like the ball's own."""
    out = np.zeros((2, len(mass)))
    live = mass.any(axis=1)
    if not live.any():
        return out[0], out[1]
    mass = mass[live]
    bounds = basis.approx_ball_sums(mass, sup_ids)
    if bounds is not None:
        # (rows, supersets) bounds on the L1 terms, then on the R4 ones,
        # taken in place, so no array outgrows those of the full gather
        hi, err = bounds
        lo = hi - err[:, None]
        np.maximum(lo, 0.0, out=lo)
        hi += err[:, None]
        for b in (lo, hi):
            b **= varrho
            b *= mu_rho[sup_ids]
        keep = max_candidates(lo, hi)
        logs = np.log1p(basis.mu[sup_ids] / basis.mu[bid])
        lo /= logs
        hi /= logs
        sup_ids = sup_ids[np.union1d(keep, max_candidates(lo, hi))]
    sums = np.stack([np.take(mass, basis.members(a), axis=1).sum(axis=-1)
                     for a in sup_ids.tolist()], axis=1)
    logs = np.array([math.log1p(q) for q in (basis.mu[sup_ids] / basis.mu[bid]).tolist()])
    # (rows, supersets), a fresh array, scaled and divided in place
    avg = _power(sums.ravel(), varrho).reshape(sums.shape)
    avg *= mu_rho[sup_ids]
    out[0, live] = avg.max(axis=1)
    avg /= logs
    out[1, live] = avg.max(axis=1)
    return out[0], out[1]


def estimate_bo_constants(T: OperatorDescriptor, budget: int = 32,
                          seed: int = 0) -> BOConstants:
    """L0, L1 and L2 of T on its own basis, each with a witness.

    The exact L1/R4 pass runs first; then one pass per sampled ball applies
    T to two stacks (see OperatorDescriptor) of the suite functions that
    probe the ball, for L0 and the Monte-Carlo L1/R4, and takes L2 by delta,
    which applies T to at most _STACK_ROWS candidates at a time; one more
    apply probes R5.  Each row rounds as it would alone, so the constants
    and witnesses are those of one apply per function.  A witness is the
    first of largest ratio (strict >), so exact-pass witnesses win ties."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    basis = T.basis
    # the exact L1/R4 pass runs on interval bases only, where each block
    # gathers its distance rows from the cover table: on build_dyadic(9)
    # with relabelled atoms (and a kept n_balls x n distance matrix) it gave
    # the same reports but 5% more peak memory and a 17% slower pipeline
    exact = _exactly_estimable(T) and basis.interval
    p = T.params
    w = basis.space.weights
    n = basis.n_atoms
    witnesses: dict = {}

    suite = np.array(structured_suite(basis, budget, seed))
    ball_ids = _sample_ball_ids(basis, max(budget, 16), seed)

    # ---- exact L1/R4: localization constants off the star ----
    l1 = 0.0
    r4 = 0.0
    if exact:
        slo, shi = basis.star_spans()
        xs = np.arange(n)
        # per ball, its largest L1 ratio osc*d and R4 ratio osc*d*log1p(d/mu)
        # off its star, and the first atom of each; 0 for a ball whose star
        # is X (nothing lives outside it) and for a row holding a NaN, which
        # max returns and no > takes
        best = np.zeros((2, basis.n_balls))
        atom = np.zeros((2, basis.n_balls), dtype=np.intp)
        for ids, idx in basis.size_groups():
            keep = shi[ids] - slo[ids] + 1 < n
            ids, idx = ids[keep], idx[keep]
            # the gathered kernel rows of a block stay within BLOCK_ELEMS
            step = max(1, BLOCK_ELEMS // (idx.shape[1] * n))
            for s in range(0, len(ids), step):
                b = ids[s:s + step]
                cols = T.kernel_block(idx[s:s + step])
                d = basis.volume_distance_rows(b)
                stats = np.empty((2, len(b), n))
                np.multiply(cols.max(axis=1) - cols.min(axis=1), d, out=stats[0])
                np.multiply(stats[0], np.log1p(d / basis.mu[b, None]), out=stats[1])
                np.copyto(stats, 0.0, where=(xs >= slo[b, None]) & (xs <= shi[b, None]))
                best[:, b] = np.fmax(stats.max(axis=2), 0.0)
                atom[:, b] = stats.argmax(axis=2)
        # the least ball of largest ratio, as a scan in id order with > keeps
        top = best.max(axis=1)
        for k, key in enumerate(("L1", "R4")):
            if top[k] > 0:
                bid = int(np.flatnonzero(best[k] == top[k])[0])
                witnesses[key] = {"ball": bid, "atom": int(atom[k, bid])}
        l1, r4 = float(top[0]), float(top[1])

    # ---- one pass per sampled ball: L0, Monte-Carlo L1/R4, L2 ----
    mu_rho = _power(basis.mu, -p.rho)
    l0 = 0.0
    l2 = 0.0
    for bid in ball_ids.tolist():
        members = basis.members(bid)
        star = basis.star_members(bid)
        mu_b = basis.mu[bid]
        wm = w[members]
        # L0: one stacked apply on the suite rows that do not vanish on the
        # ball, in C-ordered rows, so each row sum rounds like a lone function's
        on_ball = np.take(suite, members, axis=1)
        masses = (np.abs(on_ball) ** p.r * wm).sum(axis=1)
        denoms = mu_b ** (-p.rho) * _power(masses, p.varrho)
        rows = np.flatnonzero(denoms != 0)
        if rows.size:
            rvs = np.zeros((rows.size, n))
            rvs[:, members] = on_ball[rows]
            tn = vector_norms(T.apply_stack(rvs[..., None], "euclidean"),
                              "euclidean")[:, members]
            # a row's ratios where Tf is 0 are 0, so they never win a strict >
            order = np.argsort(tn, axis=1)[:, ::-1]
            sorted_vals = np.take_along_axis(tn, order, axis=1)
            tail_mass = np.cumsum(wm[order], axis=1)
            cands = ((sorted_vals / denoms[rows, None])
                     * (tail_mass / mu_b) ** p.rho).max(axis=1)
            i = int(np.argmax(cands))
            if cands[i] > l0:
                l0 = float(cands[i])
                witnesses["L0"] = {"ball": bid, "suite_index": int(rows[i])}
        if star.size == n:
            continue
        # Monte-Carlo L1/R4, for exact operators too: the suite is shared
        # with modulation families so their estimates stay comparable
        mask = np.ones(n)
        mask[star] = 0.0
        rvs = suite * mask
        sup = basis.supersets(bid)
        denoms, r4_denoms = _superset_denominators(
            basis, bid, sup, np.abs(rvs) ** p.r * w, p.varrho, mu_rho)
        rows = np.flatnonzero(denoms != 0)
        if rows.size:
            denoms, r4_denoms = denoms.tolist(), r4_denoms.tolist()
            tv = vector_norms(T.apply_stack(rvs[rows, :, None], "euclidean"),
                              "euclidean")[:, members]
            for fi, osc in zip(rows.tolist(), (tv.max(axis=1) - tv.min(axis=1)).tolist()):
                if osc / denoms[fi] > l1:
                    l1 = osc / denoms[fi]
                    witnesses["L1"] = {"ball": bid, "suite_index": fi}
                if r4_denoms[fi] > 0 and osc / r4_denoms[fi] > r4:
                    r4 = osc / r4_denoms[fi]
                    witnesses["R4"] = {"ball": bid, "suite_index": fi}
        # L2, connectivity via the ball grown to its least strict superset
        # (least measure, then least id), taken from the supersets above
        above = sup[basis.sizes[sup] > basis.sizes[bid]]
        if above.size:
            b2 = int(above[np.argmin(basis.mu[above])])
            val = delta(T, bid, b2, seed=seed)
            if val > l2:
                l2 = val
                witnesses["L2"] = {"ball": bid, "grown": b2}

    # ---- R5 probe along the exhausting sequence ----
    # imported at call time, so a patched space.exhausting_sequence is seen
    from .space import exhausting_sequence
    ones = np.zeros(n)
    ones[basis.members(exhausting_sequence(basis)[-1])] = 1.0
    t_last = T.apply(VecFunction(ones)).norms()
    r5 = max([0.0] + [np.ptp(t_last[basis.members(bid)]) for bid in ball_ids.tolist()])

    return BOConstants(L0=float(l0), L1=float(l1), L2=float(l2),
                       method="exact_linear_r1" if exact else "monte_carlo",
                       witnesses=witnesses,
                       r4_constant=float(r4), r5_value=float(r5))
