"""Scalar functionals over vector-valued functions on a ball-basis space.

Fractional averages, mean oscillations, alpha-oscillations, medians, BMO
norms, maximal functions, integer-level tails and their exponential rates, and
omega-regular kernel families for omega(t) = t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, NotDoubling, OracleTooLarge, RegularityViolation
from .space import BallBasis, as_atom_array


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

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "norm": self.norm_kind,
            "values": [[float(x) for x in row] for row in self.values],
        })

    @classmethod
    def from_json(cls, text: str) -> "VecFunction":
        doc = json.loads(text)
        f = cls(np.asarray(doc["values"], dtype=float), doc["norm"])
        if f.dim != doc["dim"]:
            raise ValueError("dim field does not match values")
        return f


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


def alpha_oscillation(f: VecFunction, members, alpha: float,
                      basis: BallBasis | None = None, method: str = "auto") -> float:
    """OSC_{B,alpha}: smallest oscillation on a subset of mass > alpha*mu(B)."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0,1)")
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet("alpha-oscillation over an empty set")
    if basis is None:
        raise ValueError("needs the basis for weights")
    w = basis.space.weights[arr]
    if method == "exhaustive" or (method == "auto" and not f.scalar):
        _, masses, osc = _subset_oscillations(f, arr, w)
        return _min_osc(masses, osc, alpha * w.sum())
    best = alpha_oscillation_raw(f, arr, w, alpha)
    if math.isinf(best):
        raise EmptySet("no subset exceeds the alpha mass threshold")
    return best


def alpha_core(f: VecFunction, members, alpha: float, basis: BallBasis,
               slack: float = 1.0) -> tuple[np.ndarray, float]:
    """An achieving set for the alpha-oscillation: atoms of mass exceeding
    alpha*mu(B) whose oscillation is at most slack*OSC_{B,alpha}(f).

    With slack = 1 the minimal window is returned (oscillation exactly the
    alpha-oscillation); larger slack returns the maximal-mass qualifying set,
    so constants pick up their full support.  Returns (atoms, OSC_{B,alpha}).
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0,1)")
    if slack < 1.0:
        raise ValueError("slack must be at least 1")
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet("alpha-core over an empty set")
    w = basis.space.weights[arr]
    if not f.scalar:
        S, masses, osc = _subset_oscillations(f, arr, w)
        need = alpha * w.sum()
        target = _min_osc(masses, osc, need)
        hits = np.flatnonzero((masses > need) & (osc <= slack * target + 1e-15))
        pick = int(hits[np.argmax(masses[hits])])
        return arr[S[pick]], float(target)
    best = alpha_oscillation_raw(f, arr, w, alpha)
    if math.isinf(best):
        raise EmptySet("no subset exceeds the alpha mass threshold")
    order, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    # widest-mass window of width slack*best (first such window on ties)
    best_mass = -1.0
    best_ij = None
    for i, j in _value_windows(sv, slack * best + 1e-15):
        mass = pre[j + 1] - pre[i]
        if mass > need and mass > best_mass + 1e-15:
            best_mass = mass
            best_ij = (i, j)
    i, j = best_ij
    return np.sort(arr[order[i:j + 1]]), best


def _sorted_prefix(f: VecFunction, arr, w):
    """Stable sort order of scalar f on arr, the sorted values, and the
    prefix sums of the weights in that order."""
    v = f.values[arr, 0]
    order = np.argsort(v, kind="stable")
    return order, v[order], np.concatenate([[0.0], np.cumsum(w[order])])


def _value_windows(sv: np.ndarray, width: float):
    """For each i, (i, j) with sv[i..j] the longest run of the sorted values
    sv that starts at i and spans at most width."""
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j + 1 < len(sv) and sv[j + 1] - sv[i] <= width:
            j += 1
        yield i, j


def _scalar_median_set(f: VecFunction, arr, w) -> np.ndarray:
    osc0 = 2.0 * alpha_oscillation_raw(f, arr, w, 0.5)
    order, sv, pre = _sorted_prefix(f, arr, w)
    half = 0.5 * pre[-1]
    marked = np.zeros(len(arr), dtype=bool)
    for i, j in _value_windows(sv, osc0):
        if pre[j + 1] - pre[i] > half:
            marked[order[i:j + 1]] = True
    return arr[marked]


def alpha_oscillation_raw(f: VecFunction, arr, w, alpha: float) -> float:
    """Fast-path alpha-oscillation on pre-resolved atoms/weights (scalar f)."""
    _, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    best = math.inf
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j < len(sv) and pre[j + 1] - pre[i] <= need:
            j += 1
        if j == len(sv):
            break
        best = min(best, float(sv[j] - sv[i]))
    return best


def median(f: VecFunction, members, basis: BallBasis,
           method: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """Median core M_f(B) plus a deterministic representative value.

    M_f(B) is the union of all E inside B with mu(E) > mu(B)/2 and
    OSC_E(f) <= 2 OSC_{B,1/2}(f); the representative is f at the lowest
    member id.
    """
    arr = as_atom_array(members)
    if arr.size == 0:
        raise EmptySet("median over an empty set")
    w = basis.space.weights[arr]
    if method == "exhaustive" or (method == "auto" and not f.scalar):
        S, masses, osc = _subset_oscillations(f, arr, w)
        need = 0.5 * w.sum()
        osc0 = 2.0 * _min_osc(masses, osc, need)
        qual = (masses > need) & (osc <= osc0)
        marked = S[qual].any(axis=0) if qual.any() else np.zeros(len(arr), dtype=bool)
        med = arr[marked]
    else:
        med = _scalar_median_set(f, arr, w)
    if len(med) == 0:
        raise EmptySet("median core came out empty")
    rep = f.values[int(med.min())].copy()
    return med, rep


# -- BMO and maximal functions --------------------------------------------------


def bmo_norm(f: VecFunction, basis: BallBasis) -> float:
    """sup over balls of (1/mu(B)) int_B ||f - f_B||."""
    return float(sharp_all(f, basis, 1.0).max())


def sharp_all(f: VecFunction, basis: BallBasis, r: float = 1.0) -> np.ndarray:
    """<f>_{#,B} for every basis ball."""
    w = basis.space.weights
    out = np.empty(basis.n_balls)
    for ids, idx in basis.size_groups():
        ww = w[idx]
        mu, d = mean_deviation(f.values[idx], ww, f.norm_kind)
        out[ids] = (d ** r * ww).sum(axis=1) / mu
    if r != 1.0:
        # scalar pow per ball: numpy's array ** rounds differently
        out = np.array([v ** (1.0 / r) for v in out])
    return out


def sup_sharp_all(f: VecFunction, basis: BallBasis, r: float = 1.0) -> np.ndarray:
    """<f>*_{#,B} = max over balls A containing B of <f>_{#,A}, per ball."""
    return basis.superset_max(sharp_all(f, basis, r))


def maximal(f: VecFunction, basis: BallBasis, p: Params,
            mode: str = "fractional_basis") -> np.ndarray:
    """Per-atom sup over containing balls of a ball functional.

    fractional_basis: sup <f>_B; sharp: sup <f>_{#,B} (exponent p.r).
    """
    if mode == "fractional_basis":
        vals = ball_averages_all(f, basis, p)
    elif mode == "sharp":
        vals = sharp_all(f, basis, p.r)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _max_over_containing_balls(basis, vals, np.zeros(basis.n_atoms))


def _max_over_containing_balls(basis: BallBasis, vals: np.ndarray,
                               out: np.ndarray) -> np.ndarray:
    """out[x] = max(out[x], max of vals[B] over balls B containing x)."""
    for ids, idx in basis.size_groups():
        np.maximum.at(out, idx, vals[ids][:, None])
    return out


# -- integer-level tails ------------------------------------------------------------


def level_tail(x: np.ndarray, g, w: np.ndarray, mu, top: int) -> np.ndarray:
    """mu{x > t g} / mu at the integer levels t = 0, ..., top.  Atoms lie on
    the last axis of x and w, g is a scalar or one value per atom, and mu
    holds one measure per row of x; the levels lie on the last axis of the
    result."""
    above = x[..., None, :] > np.arange(top + 1)[:, None] * g
    return (np.where(above, w[..., None, :], 0.0).sum(axis=-1)
            / np.expand_dims(mu, -1))


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


def cover_measure_table(basis: BallBasis) -> np.ndarray:
    """table[a, b] = min measure of a ball covering the span [a, b] (interval bases)."""
    table = np.full((basis.n_atoms, basis.n_atoms), np.inf)
    np.minimum.at(table, (basis.lo, basis.hi), basis.mu)
    # min over balls with lo <= a, then over those with hi >= b
    table = np.minimum.accumulate(table, axis=0)
    return np.minimum.accumulate(table[:, ::-1], axis=1)[:, ::-1]


def volume_distance_matrix(basis: BallBasis) -> np.ndarray:
    """d(x, B) for every atom x (columns) and ball B (rows); inf where no ball
    contains both."""
    if basis._vdist_matrix is not None:
        return basis._vdist_matrix
    n = basis.n_atoms
    out = np.full((basis.n_balls, n), np.inf)
    if basis.interval:
        table = cover_measure_table(basis)
        xs = np.arange(n)
        for i in range(basis.n_balls):
            a = np.minimum(xs, basis.lo[i])
            b = np.maximum(xs, basis.hi[i])
            out[i] = table[a, b]
    else:
        for i in range(basis.n_balls):
            for j in basis.supersets(i):
                m = basis.balls[j].members
                out[i, m] = np.minimum(out[i, m], basis.mu[j])
    basis._vdist_matrix = out
    return out


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
        members = basis.balls[i].members
        c1 = min(c1, float((kernels[i, members] * basis.mu[i]).min()))
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
    return _max_over_containing_balls(basis, vals, np.full(basis.n_atoms, -np.inf))
