"""Scalar functionals over vector-valued functions on a ball-basis space.

Fractional averages, mean oscillations, alpha-oscillations, medians, BMO
norms, maximal functions, integer-level tails and their exponential rates, and
omega-regular kernel families for omega(t) = t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, NotDoubling, OracleTooLarge, RegularityViolation
from .space import BLOCK_ELEMS, BallBasis, as_atom_array


@dataclass(frozen=True)
class Params:
    r: float
    rho: float
    varrho: float

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError("need r > 0")
        if not (0 < self.rho <= self.varrho):
            raise ValueError("need 0 < rho <= varrho")

    @property
    def classical(self) -> bool:
        return self.rho == self.varrho == 1.0 / self.r

    @classmethod
    def classical_profile(cls, r: float = 1.0) -> "Params":
        return cls(r=r, rho=1.0 / r, varrho=1.0 / r)


class VecFunction:
    """Vector-valued function on atoms with a norm choice."""

    def __init__(self, values, norm_kind: str = "euclidean"):
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("values must be (atoms,) or (atoms, dim)")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        if norm_kind not in ("euclidean", "max"):
            raise ValueError(f"unknown norm kind {norm_kind!r}")
        self.values = v
        self.norm_kind = norm_kind

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.values.shape[0]

    @property
    def scalar(self) -> bool:
        return self.dim == 1

    def norms(self) -> np.ndarray:
        return vector_norms(self.values, self.norm_kind)


# -- averages and oscillations -------------------------------------------------


def average(f: VecFunction, members, p: Params, basis: BallBasis) -> float:
    """Fractional mean <f>_B = mu(B)^(-rho) (int_B ||f||^r)^varrho."""
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet("average over an empty set")
    w = basis.space.weights
    mass = float((f.norms()[arr] ** p.r * w[arr]).sum())
    mu = float(w[arr].sum())
    return mu ** (-p.rho) * mass ** p.varrho


def ball_averages_all(f: VecFunction, basis: BallBasis, p: Params) -> np.ndarray:
    """<f>_B for every basis ball at once."""
    ints = basis.ball_integrals(f.norms() ** p.r * basis.space.weights)
    ints = np.maximum(ints, 0.0)
    return basis.mu ** (-p.rho) * ints ** p.varrho


def vector_norms(vals: np.ndarray, norm_kind: str) -> np.ndarray:
    """Norm of each vector along the last axis."""
    if norm_kind == "euclidean":
        if vals.shape[-1] == 1:  # what linalg.norm gives, without its reduce
            return np.sqrt(vals[..., 0] ** 2)
        return np.linalg.norm(vals, axis=-1)
    return np.abs(vals).max(axis=-1)


def mean_deviation(vals: np.ndarray, ww: np.ndarray, norm_kind: str = "euclidean"
                   ) -> tuple[float | np.ndarray, np.ndarray]:
    """(mu(E), ||f - f_E|| at each atom of E) from f's values (L, d) and the
    atom weights (L,) on a set E of L atoms; leading axes of both stack sets
    of equal size, giving mu of shape (...) and deviations (..., L)."""
    mu = ww.sum(axis=-1)
    mean = (vals * ww[..., None]).sum(axis=-2, keepdims=True)
    return mu, vector_norms(vals - mean / np.asarray(mu)[..., None, None],
                            norm_kind)


def mean_oscillation(f: VecFunction, members, r: float, basis: BallBasis) -> float:
    """<f>_{#,E} = ((1/mu(E)) int_E ||f - f_E||^r)^(1/r) over one atom set:
    the per-set form of sharp_all, which the tests compare against."""
    if r < 1:
        raise ValueError("mean oscillation needs r >= 1")
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet("mean oscillation over an empty set")
    w = basis.space.weights[arr]
    mu, d = mean_deviation(f.values[arr], w, f.norm_kind)
    return float(((d ** r * w).sum() / mu) ** (1.0 / r))


# -- alpha-oscillation and medians ---------------------------------------------


def _subset_oscillations(f: VecFunction, arr, w):
    """Every subset of the atoms arr as a boolean row of S, with its mass and
    its oscillation OSC_E(f) (0 on the empty set)."""
    m = len(arr)
    if m > 20:
        raise OracleTooLarge(f"exhaustive oracle limited to 20 atoms, got {m}")
    idx = np.arange(1 << m, dtype=np.int64)
    S = ((idx[:, None] >> np.arange(m)) & 1).astype(bool)
    vals = f.values[arr]
    if f.scalar:
        v = vals[:, 0]
        osc = np.where(S, v, -np.inf).max(axis=1) - np.where(S, v, np.inf).min(axis=1)
        osc = np.where(np.isfinite(osc), osc, 0.0)
    else:
        dist = vector_norms(vals[:, None] - vals[None, :], f.norm_kind)
        osc = np.zeros(len(S))
        for i in range(m):
            for j in range(i + 1, m):
                both = S[:, i] & S[:, j]
                osc[both] = np.maximum(osc[both], dist[i, j])
    return S, S @ w, osc


def _min_osc(masses, osc, need: float) -> float:
    ok = masses > need
    if not ok.any():
        raise EmptySet("no subset exceeds the alpha mass threshold")
    return float(osc[ok].min())


def _query_atoms(members, alpha, basis: BallBasis, what: str):
    """members as an atom array, and its weights, after the shared checks
    (alpha one value or several)."""
    alpha = np.asarray(alpha)
    if not np.all((alpha > 0) & (alpha < 1)):
        raise ValueError("alpha must lie in (0,1)")
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet(f"{what} over an empty set")
    return arr, basis.space.weights[arr]


def _use_oracle(f: VecFunction, method: str) -> bool:
    return method == "exhaustive" or (method == "auto" and not f.scalar)


class _SortedWindows:
    """Scalar f on a stack of equal-size atom sets idx (m, L): per row the
    stable sort order of f, the sorted values sv and the prefix masses pre.
    The window (i, j) of a row has width sv[j] - sv[i] and mass pre[j+1] -
    pre[i]; each query answers for every row and every start i at once.
    An entry n_atoms of idx is a pad, of value +inf and weight 0."""

    def __init__(self, f: VecFunction, idx: np.ndarray, weights: np.ndarray):
        v = np.append(f.values[:, 0], np.inf)[idx]
        self.order = np.argsort(v, axis=-1, kind="stable")
        self.sv = np.take_along_axis(v, self.order, -1)
        ws = np.take_along_axis(np.append(weights, 0.0)[idx], self.order, -1)
        self.pre = np.concatenate([np.zeros((len(idx), 1)),
                                   np.cumsum(ws, axis=-1)], axis=-1)
        self.start = np.arange(idx.shape[1])

    def _first(self, over) -> np.ndarray:
        """Per row and start i, the least end j >= i with over(j) (L where
        none): over is monotone in j, so one bisection serves every start."""
        L = self.sv.shape[1]
        lo = np.broadcast_to(self.start, self.sv.shape)
        hi = np.full(self.sv.shape, L)
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            hit = live & over(np.minimum(mid, L - 1))
            hi = np.where(hit, mid, hi)
            lo = np.where(live & ~hit, mid + 1, lo)
        return lo

    def mass(self, ends: np.ndarray) -> np.ndarray:
        """Mass of the window from each start i to ends[:, i]."""
        return np.take_along_axis(self.pre, ends + 1, -1) - self.pre[:, :-1]

    def longest(self, width: np.ndarray) -> np.ndarray:
        """Per start, the end of the longest window of width <= width[row]."""
        sv = self.sv
        return self._first(lambda j: np.take_along_axis(sv, j, -1) - sv
                           > width[:, None]) - 1

    def alpha_osc(self, alpha) -> np.ndarray:
        """OSC_alpha per row: the least width of a window of mass over
        alpha*mu, alpha one value or one per row."""
        L = self.sv.shape[1]
        need = np.reshape(alpha, (-1, 1)) * self.pre[:, -1:]
        ends = self._first(lambda j: self.mass(j) > need)
        widths = np.take_along_axis(self.sv, np.minimum(ends, L - 1), -1) - self.sv
        osc = np.where(ends < L, widths, np.inf).min(axis=-1)
        if np.isinf(osc).any():
            raise EmptySet("no subset exceeds the alpha mass threshold")
        return osc


def alpha_oscillation(f: VecFunction, members, alpha: float,
                      basis: BallBasis, method: str = "auto") -> float:
    """OSC_{B,alpha}: smallest oscillation on a subset of mass > alpha*mu(B)."""
    return float(alpha_oscillations(f, members, [alpha], basis, method)[0])


def alpha_oscillations(f: VecFunction, members, alphas, basis: BallBasis,
                       method: str = "auto") -> np.ndarray:
    """OSC_{B,alpha} for each of alphas on one atom set, from one table: the
    sorted windows of the set repeated once per alpha, or one subset oracle."""
    arr, w = _query_atoms(members, alphas, basis, "alpha-oscillation")
    if _use_oracle(f, method):
        _, masses, osc = _subset_oscillations(f, arr, w)
        return np.array([_min_osc(masses, osc, a * w.sum()) for a in alphas])
    rows = np.repeat(arr[None], len(alphas), axis=0)
    return _SortedWindows(f, rows, basis.space.weights).alpha_osc(alphas)


def alpha_core(f: VecFunction, members, alpha: float, basis: BallBasis,
               slack: float = 1.0) -> tuple[np.ndarray, float]:
    """The first set of largest mass among those of mass exceeding
    alpha*mu(B) and oscillation at most slack*OSC_{B,alpha}(f), so a slack
    above 1 lets constants pick up their full support.  Returns (atoms,
    OSC_{B,alpha})."""
    if slack < 1.0:
        raise ValueError("slack must be at least 1")
    arr, w = _query_atoms(members, alpha, basis, "alpha-core")
    if not f.scalar:
        S, masses, osc = _subset_oscillations(f, arr, w)
        need = alpha * w.sum()
        target = _min_osc(masses, osc, need)
        hits = np.flatnonzero((masses > need) & (osc <= slack * target + 1e-15))
        pick = int(hits[np.argmax(masses[hits])])
        return arr[S[pick]], float(target)
    t = _SortedWindows(f, arr[None], basis.space.weights)
    best = t.alpha_osc(alpha)
    ends = t.longest(slack * best + 1e-15)
    # the window achieving best fits, so the largest mass is over alpha*mu
    i = int(np.argmax(t.mass(ends)[0]))
    return np.sort(arr[t.order[0, i:ends[0, i] + 1]]), float(best[0])


def medians(f: VecFunction, idx: np.ndarray, basis: BallBasis,
            method: str) -> tuple[np.ndarray, np.ndarray]:
    """Median cores of a stack of equal-size atom sets idx (m, L), as an
    (m, L) mask over idx, and their representatives (m, d): f at the lowest
    atom of each core.  See median; no core holds a pad (_SortedWindows)."""
    w = basis.space.weights
    if _use_oracle(f, method):
        cores = np.zeros(idx.shape, dtype=bool)
        for k, arr in enumerate(idx):
            S, masses, osc = _subset_oscillations(f, arr, w[arr])
            need = 0.5 * w[arr].sum()
            cores[k] = S[(masses > need)
                         & (osc <= 2.0 * _min_osc(masses, osc, need))].any(axis=0)
    else:
        t = _SortedWindows(f, idx, w)
        ends = t.longest(2.0 * t.alpha_osc(0.5))
        starts = t.mass(ends) > 0.5 * t.pre[:, -1:]
        # sorted position k is in a qualifying window iff some qualifying
        # start i <= k has its end at k or beyond
        reach = np.maximum.accumulate(np.where(starts, ends, -1), axis=-1)
        cores = np.zeros(idx.shape, dtype=bool)
        np.put_along_axis(cores, t.order, reach >= t.start, -1)
    if not cores.any(axis=-1).all():
        raise EmptySet("median core came out empty")
    return cores, f.values[np.where(cores, idx, basis.n_atoms).min(axis=-1)]


def median(f: VecFunction, members, basis: BallBasis,
           method: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """Median core M_f(B), the union of all E inside B with mu(E) > mu(B)/2
    and OSC_E(f) <= 2 OSC_{B,1/2}(f), and f at its lowest member id."""
    arr, _ = _query_atoms(members, 0.5, basis, "median")
    cores, reps = medians(f, arr[None], basis, method)
    return arr[cores[0]], reps[0]


def ball_medians(f: VecFunction, basis: BallBasis) -> np.ndarray:
    """(n_balls, d): f's median representative on every ball, one medians
    call per block of consecutive size groups padded to the widest (a window
    starting on a pad has mass 0; every other ends before the pads).  A block
    holds BLOCK_ELEMS // 4 padded elements or one group, and one group if f
    is a vector (the subset oracle)."""
    groups = basis.size_groups()
    cap = BLOCK_ELEMS // 4 if f.scalar else 0
    out = np.empty((basis.n_balls, f.dim))
    start, rows = 0, 0
    for end, (ids, idx) in enumerate(groups, 1):
        rows += len(ids)
        if end < len(groups) and (rows + len(groups[end][0])) * groups[end][1].shape[1] <= cap:
            continue
        block = groups[start:end]  # idx, the last, is the widest
        stack = np.concatenate([np.pad(g, ((0, 0), (0, idx.shape[1] - g.shape[1])),
                                       constant_values=basis.n_atoms) for _, g in block])
        with np.errstate(invalid="ignore"):  # inf - inf at a pad start
            out[np.concatenate([g for g, _ in block])] = medians(f, stack, basis, "auto")[1]
        start, rows = end, 0
    return out


# -- BMO and maximal functions --------------------------------------------------


def bmo_norm(f: VecFunction, basis: BallBasis) -> float:
    """sup over balls of (1/mu(B)) int_B ||f - f_B||."""
    return float(sharp_all(f, basis, 1.0).max())


def sharp_all(f: VecFunction, basis: BallBasis, r: float = 1.0) -> np.ndarray:
    """<f>_{#,B} for every basis ball: the one-row call of sharp_all_stack."""
    return sharp_all_stack(f.values[None], f.norm_kind, basis, r)[0]


def sharp_all_stack(stack: np.ndarray, norm_kind: str, basis: BallBasis,
                    r: float) -> np.ndarray:
    """(k, n_balls): <f>_{#,B} for every row f of a (k, atoms, dim) stack of
    one norm kind and every basis ball; each row equals bitwise what that
    row gives alone."""
    w = basis.space.weights
    out = np.empty((len(stack), basis.n_balls))
    for ids, idx in basis.size_groups():
        ww = w[idx]
        # np.take gives C-ordered rows, which round like a lone function's;
        # stack[:, idx] puts the stack axis innermost
        mu, d = mean_deviation(np.take(stack, idx, axis=1), ww, norm_kind)
        out[:, ids] = (d ** r * ww).sum(axis=-1) / mu
    return _power(out.ravel(), 1.0 / r).reshape(out.shape)


def _power(vals: np.ndarray, exponent: float) -> np.ndarray:
    """vals ** exponent, one np.float64 scalar power at a time (numpy's array
    ** rounds differently; an overflow is inf); the exact power 1 is skipped."""
    if exponent == 1.0:
        return vals
    return np.array([v ** exponent for v in vals])


# Relative slack on the bounds max_candidates compares: the powers,
# products and quotients taken on a bound (numpy's array ** and np.log1p
# among them, which may round apart from the scalar calls of the exact
# values) move it by a few ulps each, far below BOUND_MARGIN.
BOUND_MARGIN = 1e-9


def max_candidates(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bound, then confirm: given nonnegative bounds lo <= x <= hi on the
    values x of the candidates on the last axis (one or more rows, each
    bound up to BOUND_MARGIN of rounding), the sorted positions that may
    hold the largest x of some row.  A position is dropped only if, in
    every row, its upper bound lies below the row's largest lower bound,
    so each row's argmax survives and the max of the exact x over the
    survivors is, bit for bit, their max over all.  NaN bounds drop
    nothing."""
    lo, hi = np.atleast_2d(lo, hi)
    if lo.size == 0:
        return np.arange(0)
    best = np.fmax.reduce(lo, axis=-1, keepdims=True)
    drop = hi < best * ((1.0 - BOUND_MARGIN) / (1.0 + BOUND_MARGIN))
    return np.flatnonzero(~drop.all(axis=0))


def sup_sharp_all(f: VecFunction, basis: BallBasis, r: float = 1.0) -> np.ndarray:
    """<f>*_{#,B} = max over balls A containing B of <f>_{#,A}, per ball."""
    return basis.superset_max(sharp_all(f, basis, r))


def maximal(f: VecFunction, basis: BallBasis, p: Params,
            mode: str = "fractional_basis") -> np.ndarray:
    """Per-atom sup over the balls containing the atom of a ball functional:
    fractional_basis sup <f>_B, sharp sup <f>_{#,B} (exponent p.r).  One
    `BallBasis.containing_reduce` over the member store, on any basis."""
    if mode == "fractional_basis":
        vals = ball_averages_all(f, basis, p)
    elif mode == "sharp":
        vals = sharp_all(f, basis, p.r)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return basis.containing_reduce(np.maximum, vals, np.zeros(basis.n_atoms))


# -- integer-level tails ------------------------------------------------------------


# levels of one level_tail mask
TAIL_LEVELS = 8


def level_tail(x: np.ndarray, g, w: np.ndarray, mu, top: int) -> np.ndarray:
    """mu{x > t g} / mu at the integer levels t = 0, ..., top.  Atoms lie on
    the last axis of x and w, g >= 0 is a scalar or one value per atom, and
    mu holds one measure per row of x; the levels lie on the last axis of
    the result.

    As g >= 0, an atom above a level is above every lower one, so the
    levels are taken TAIL_LEVELS at a time up to the first run with no atom
    above any of them: every later sum is 0."""
    sums = np.zeros(np.broadcast_shapes(x.shape, w.shape)[:-1] + (top + 1,))
    for t in range(0, top + 1, TAIL_LEVELS):
        levels = np.arange(t, min(t + TAIL_LEVELS, top + 1))
        above = x[..., None, :] > levels[:, None] * g
        if not above.any():
            break
        sums[..., t:t + TAIL_LEVELS] = np.where(above, w[..., None, :], 0.0).sum(axis=-1)
    return sums / np.expand_dims(mu, -1)


def fit_exponential_rate(levels, fractions) -> float:
    """Least-squares slope of log(fraction) against the level; a tail with at
    most one nonzero bin decays faster than any exponential here (rate inf)."""
    pts = [(t, fr) for t, fr in zip(levels, fractions) if fr > 0]
    if len(pts) <= 1:
        return math.inf
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts]))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


# -- omega-regular families (omega(t) = t) ----------------------------------------


@dataclass
class RegularFamily:
    basis: BallBasis
    kernels: np.ndarray      # n_balls x n_atoms, each row has weighted mass 1
    c1: float
    c2: float
    growth_measured: float   # minimal multiplier in condition (2) against gamma(u)=u


def volume_distance_matrix(basis: BallBasis) -> np.ndarray:
    """basis.volume_distance_rows of every ball, built on each call; nothing
    keeps it."""
    return basis.volume_distance_rows(np.arange(basis.n_balls))


def build_regular_family(basis: BallBasis) -> RegularFamily:
    """Poisson-type kernels psi_B(x) = mu(B)/(mu(B)+d(x,B))^2, normalized,
    with the modulus omega(t) = t.

    All three regularity conditions are re-verified numerically; violations
    raise RegularityViolation with a witness.
    """
    if basis.eta is None:
        raise NotDoubling("regular families need a doubling basis")

    dmat = volume_distance_matrix(basis)
    w = basis.space.weights
    raw = basis.mu[:, None] / (basis.mu[:, None] + dmat) ** 2
    masses = raw @ w
    kernels = raw / masses[:, None]

    # condition (1): unit mass (by construction; assert anyway)
    if not np.allclose(kernels @ w, 1.0, rtol=1e-10, atol=1e-12):
        raise RegularityViolation("kernel mass differs from 1", witness=None)

    # condition (y4): c1 1_B/mu(B) <= phi_B <= c2 omega(mu(B)/d)/d = c2 mu(B)/d^2
    c1 = math.inf
    c2 = 0.0
    for i in range(basis.n_balls):
        c1 = min(c1, float((kernels[i, basis.members(i)] * basis.mu[i]).min()))
        envelope = basis.mu[i] / dmat[i] / dmat[i]
        if np.any(envelope <= 0):
            raise RegularityViolation("zero envelope", witness=(i,))
        c2 = max(c2, float((kernels[i] / envelope).max()))
    if c1 <= 0:
        raise RegularityViolation("lower kernel bound failed", witness=None)

    # condition (2): phi_B <= (1+K)^2 (mu(A)/mu(B)) phi_A for B inside A
    growth = 0.0
    bound = (1.0 + basis.K) ** 2
    for i in range(basis.n_balls):
        for j in basis.supersets(i):
            j = int(j)
            if j == i:
                continue
            u = basis.mu[j] / basis.mu[i]
            ratio = float(np.max(kernels[i] / (u * kernels[j])))
            growth = max(growth, ratio)
            if ratio > bound * (1 + 1e-9):
                raise RegularityViolation("growth condition failed",
                                          witness=(i, j, ratio))
    return RegularFamily(basis=basis, kernels=kernels, c1=float(c1), c2=float(c2),
                         growth_measured=float(growth))


def general_maximal(f: VecFunction, fam: RegularFamily) -> np.ndarray:
    """M^{phi} f(x) = sup over the balls B containing x of int ||f|| phi_B."""
    basis = fam.basis
    vals = fam.kernels @ (f.norms() * basis.space.weights)
    return basis.containing_reduce(np.maximum, vals, np.full(basis.n_atoms, -np.inf))
