"""Empirical inequality harness.

Seeded function corpora plus checks for weak type, good-lambda comparisons,
exponential tail decay, the John-Nirenberg inequality, BMO boundedness,
strong domination, and Muckenhoupt characteristics. Every report regenerates
bit-identically from (seed, configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfZero, ZeroBmoNorm
from .space import BLOCK_ELEMS, SUM_ERROR, BallBasis
from .functional import (Params, VecFunction, alpha_oscillations, ball_medians,
                         bmo_norm, fit_exponential_rate, level_tail,
                         max_candidates, maximal, mean_deviation, median,
                         sharp_all_stack, vector_norms)
from .operators import OperatorDescriptor, truncate


def round_sig(x):
    """Round a float through a 12-significant-digit decimal string.

    Reports pass every float through this before serialization so that
    regenerated runs compare byte-identically.
    """
    if isinstance(x, float) and math.isfinite(x):
        return float("%.12g" % x)
    return x


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return round_sig(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


@dataclass
class CaseRow:
    case: str
    statistic: str
    value: float
    passed: bool


@dataclass
class Report:
    name: str
    passed: bool
    summary: dict
    rows: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "summary": _clean(self.summary),
            "cases": [{"case": r.case, "statistic": r.statistic,
                       "value": _clean(r.value), "pass": bool(r.passed)}
                      for r in self.rows],
        }

    def csv_lines(self) -> list[str]:
        out = ["case,statistic,value,pass"]
        for r in self.rows:
            v = _clean(r.value)
            out.append(f"{r.case},{r.statistic},{v},{str(bool(r.passed)).lower()}")
        return out


# -- corpora ------------------------------------------------------------------------


GENERATOR_KINDS = ("random_signs", "indicators", "delta_combs",
                   "log_samples", "haar_mixtures")
_KIND_CODE = {k: i + 1 for i, k in enumerate(GENERATOR_KINDS)}


def _gen_case(kind: str, seed: int, idx: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), _KIND_CODE[kind], int(idx)])
    vals = np.zeros(n)
    if kind == "random_signs":
        vals = rng.integers(0, 2, size=n) * 2.0 - 1.0
    elif kind == "indicators":
        a = int(rng.integers(0, n))
        length = int(rng.integers(1, n - a + 1))
        vals[a:a + length] = 1.0
    elif kind == "delta_combs":
        k = int(rng.integers(1, 9))
        spots = rng.choice(n, size=min(k, n), replace=False)
        vals[spots] = rng.integers(0, 2, size=len(spots)) * 2.0 - 1.0
    elif kind == "log_samples":
        shift = int(rng.integers(0, n))
        idxs = (np.arange(n) + shift) % n
        vals = np.log(float(n) / (idxs + 1.0))
    elif kind == "haar_mixtures":
        m = int(rng.integers(1, 7))
        for _ in range(m):
            a = int(rng.integers(0, n - 1))
            length = int(rng.integers(2, n - a + 1))
            half = length // 2
            c = float(rng.normal())
            vals[a:a + half] += c
            vals[a + half:a + length] -= c
    else:
        raise ConfigError(f"unknown generator kind {kind!r}")
    return vals


@dataclass
class Corpus:
    """Seeded family of test functions; regeneration is bit-identical."""

    seed: int
    generators: list
    size: int

    def __post_init__(self):
        for kind in self.generators:
            if kind not in _KIND_CODE:
                raise ConfigError(f"unknown generator kind {kind!r}")

    def cases(self, n_atoms: int):
        """Yield (case_id, VecFunction) pairs in deterministic order."""
        for kind in self.generators:
            for i in range(self.size):
                vals = _gen_case(kind, self.seed, i, n_atoms)
                yield f"{kind}/{i}", VecFunction(vals[:, None])


@dataclass
class Weight:
    """Strictly positive, finite weight on atoms."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not np.all(np.isfinite(self.w) & (self.w > 0)):
            raise ConfigError("weights must be finite and strictly positive")


# -- weak type ----------------------------------------------------------------------


# every corpus case is a scalar VecFunction
_CORPUS_NORM = "euclidean"


def _corpus_stack(corpus: Corpus, n: int) -> tuple[list, np.ndarray]:
    """The (case id, VecFunction) pairs of the corpus and their (k, n, 1)
    stack."""
    cases = list(corpus.cases(n))
    return cases, np.array([f.values for _, f in cases]).reshape(len(cases), n, 1)


def _output_norms(op, stack: np.ndarray) -> np.ndarray:
    """(k, atoms): ||op f|| for each row f of a corpus stack, from one
    stacked apply of a descriptor; a plain callable is called row by row."""
    if isinstance(op, OperatorDescriptor) and len(stack):
        return vector_norms(op.apply_stack(stack, _CORPUS_NORM), _CORPUS_NORM)
    return np.array([np.asarray(op(VecFunction(v, _CORPUS_NORM)), dtype=float)
                     for v in stack]).reshape(stack.shape[:2])


def _weak_type_ratio(out: np.ndarray, w: np.ndarray, rho: float,
                     denom: float) -> float:
    """The max over the positive values v of out of v^(1/rho) mu{out >= v}
    / denom, 0 if out has none; a NaN of out lies in no superlevel set.

    Bound, then confirm: the superlevel masses of every value come from one
    sort and one suffix cumsum, each within err of the exact sum (SUM_ERROR)
    and at least the weight of an atom at its level; max_candidates keeps
    the values that may hold the max, and only those take an exact sum."""
    order = np.argsort(out)[:np.count_nonzero(~np.isnan(out))]
    vals, ws = out[order], w[order]
    first = np.flatnonzero((vals > 0) & np.append(True, vals[1:] != vals[:-1]))
    if not first.size:
        return 0.0
    tail = np.cumsum(ws[::-1])[::-1][first]
    err = len(out) * SUM_ERROR * tail[0]
    scale = vals[first] ** (1.0 / rho) / denom
    lo = scale * np.maximum(tail - err, ws[first])
    ratio = 0.0
    for v in vals[first[max_candidates(lo, scale * (tail + err))]]:
        mass = float(w[out >= v].sum())
        ratio = max(ratio, v ** (1.0 / rho) * mass / denom)
    return ratio


def weak_type_report(op, corpus: Corpus, basis: BallBasis, p: Params,
                     bound: float | None = None) -> Report:
    """Sup over lambda of lambda^(1/rho) mu{out > lambda} / (int ||f||^r)^(vrho/rho).

    Lambda is scanned at every distinct positive output value; the sup of the
    left side on each plateau is attained at the value itself (measure of the
    closed superlevel set).  A descriptor applies once to the corpus stack.
    """
    w = basis.space.weights
    rows = []
    worst = 0.0
    cases, stack = _corpus_stack(corpus, basis.n_atoms)
    for (cid, f), out in zip(cases, _output_norms(op, stack)):
        denom = float(np.sum(f.norms() ** p.r * w)) ** (p.varrho / p.rho)
        ratio = _weak_type_ratio(out, w, p.rho, denom) if denom > 0 else 0.0
        ok = True if bound is None else ratio <= bound
        rows.append(CaseRow(cid, "weak_type_ratio", float(ratio), ok))
        worst = max(worst, ratio)
    passed = all(r.passed for r in rows)
    return Report("weak_type", passed,
                  {"max_ratio": worst, "bound": bound,
                   "r": p.r, "varrho": p.varrho, "rho": p.rho}, rows)


# -- good-lambda --------------------------------------------------------------------


def _level_masses(levels: np.ndarray, sets_of, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per level, whether the atom set sets_of(level) holds an atom and its
    masked weight product (within err of the exact sum, see SUM_ERROR), in
    blocks of levels of at most BLOCK_ELEMS elements (one level at least)."""
    step = max(1, BLOCK_ELEMS // len(w))
    held = np.empty(len(levels), dtype=bool)
    mass = np.empty(len(levels))
    for s in range(0, len(levels), step):
        sets = sets_of(levels[s:s + step, None])
        held[s:s + step] = sets.any(axis=1)
        mass[s:s + step] = sets @ w
    return held, mass


def _good_lambda_ratio(tf: np.ndarray, ts: np.ndarray, mf: np.ndarray,
                       delta: float, w: np.ndarray) -> float:
    """The max over the levels lam > 0 of ts of mu{ts > lam, mf < delta lam}
    / mu{tf > lam / 2}, over the levels whose left set is not empty; inf if
    the right set of one of those is empty, 0 if there are none.

    Atom weights are > 0, so a mass is 0 exactly when its set is empty, and
    whether a set holds an atom decides both.  Bound, then confirm: the
    left sets come first (on the shipped configs every one is empty), then
    the right sets of the levels with a left set; max_candidates keeps the
    levels whose bounds may hold the max, and only those take exact sums."""
    lams = np.unique(ts)
    lams = lams[lams > 0]
    live, left = _level_masses(lams, lambda lam: (ts > lam) & (mf < delta * lam), w)
    lams, left = lams[live], left[live]
    held, right = _level_masses(lams, lambda lam: tf > lam / 2.0, w)
    if not held.all():
        return math.inf
    err = len(w) * SUM_ERROR * float(w.sum())
    # a nonempty right set weighs at least its least atom weight
    lo = np.maximum(left - err, 0.0) / (right + err)
    hi = (left + err) / np.maximum(right - err, w.min())
    ratio = 0.0
    for lam in lams[max_candidates(lo, hi)]:
        lhs = float(w[(ts > lam) & (mf < delta * lam)].sum())
        rhs = float(w[tf > lam / 2.0].sum())
        ratio = max(ratio, lhs / rhs)
    return ratio


def good_lambda_report(T: OperatorDescriptor, consts, corpus: Corpus,
                       c: float = 0.5, threshold: float = math.inf) -> Report:
    """Compare mu{T*f > lambda, Mf < delta lambda} against mu{||Tf|| > lambda/2}
    on T's basis with delta = c/(L0 + L1), scanning lambda at distinct T*f
    values.  T and its truncation apply once each to the corpus stack."""
    basis = T.basis
    delta = c / (consts.L0 + consts.L1) if (consts.L0 + consts.L1) > 0 else math.inf
    w = basis.space.weights
    rows = []
    worst = 0.0
    cases, stack = _corpus_stack(corpus, basis.n_atoms)
    outs = zip(cases, _output_norms(T, stack), _output_norms(truncate(T), stack))
    for (cid, f), tf, ts in outs:
        ratio = _good_lambda_ratio(tf, ts, maximal(f, basis, T.params), delta, w)
        rows.append(CaseRow(cid, "good_lambda_ratio", float(ratio),
                            ratio <= threshold))
        worst = max(worst, ratio)
    passed = all(r.passed for r in rows)
    return Report("good_lambda", passed,
                  {"max_ratio": worst, "delta": delta, "c": c,
                   "threshold": threshold}, rows)


# -- exponential decay --------------------------------------------------------------


def _tail_profile(target: np.ndarray, ref: np.ndarray, members,
                  w: np.ndarray) -> tuple[list, list, list, int]:
    """(levels, fractions, counts, violations) of the integer-level tail
    mu{x in B: target > t ref}/mu(B); atoms with ref = 0 but target > 0 are
    counted as violations."""
    tv = target[members]
    rv = ref[members]
    ww = w[members]
    mu = float(ww.sum())
    bad = int(np.count_nonzero((rv <= 0) & (tv > 0)))
    live = rv > 0
    if not np.any(live):
        return [0], [0.0], [0], bad
    ratios = tv[live] / rv[live]
    tmax = int(math.ceil(float(ratios.max()))) + 1
    tmax = min(tmax, 10_000)
    fracs = level_tail(ratios, 1.0, ww[live], mu, tmax).tolist()
    counts = level_tail(ratios, 1.0, np.ones(ratios.size), 1.0, tmax)
    return list(range(tmax + 1)), fracs, counts.astype(int).tolist(), bad


def exp_decay_report(T: OperatorDescriptor, f: VecFunction, b_id: int,
                     mode: str = "vs_maximal") -> Report:
    """Tail of ||Tf|| against Mf (vs_maximal) or of |Tf - median| against the
    sharp maximal function (vs_sharp) on a ball of T's basis; reports the
    fitted exponential rate."""
    basis = T.basis
    if mode not in ("vs_maximal", "vs_sharp"):
        raise ConfigError(f"unknown mode {mode!r}")
    members = basis.members(int(b_id))
    w = basis.space.weights
    tf = T.apply(f).norms()
    if mode == "vs_maximal":
        target = tf
        ref = maximal(f, basis, T.params)
    else:
        if basis.eta is None:
            raise ConfigError("vs_sharp mode needs a doubling basis")
        _, med = median(VecFunction(tf[:, None]), members, basis)
        target = np.abs(tf - float(med[0]))
        ref = maximal(f, basis, Params.classical_profile(T.params.r),
                      mode="sharp")
    levels, fracs, counts, bad = _tail_profile(target, ref, members, w)
    rate = fit_exponential_rate(levels, fracs)
    passed = rate > 0 and bad == 0
    rows = [CaseRow(f"t={t}", "tail_fraction", fr, True)
            for t, fr in zip(levels, fracs)]
    return Report("exp_decay", passed,
                  {"mode": mode, "rate": rate, "ref_zero_violations": bad,
                   "ball": int(b_id),
                   "tail": {"t": levels, "count": counts, "fraction": fracs}},
                  rows)


# -- John-Nirenberg -----------------------------------------------------------------

# the last integer level of the John-Nirenberg and strong-domination tails
T_MAX = 64


def john_nirenberg_report(f: VecFunction, basis: BallBasis) -> Report:
    """Worst-ball tails of ||f - center|| / ||f||_BMO at the levels 0..T_MAX
    for median and average centers, with an exponential fit on each."""
    norm = bmo_norm(f, basis)
    if norm <= 0:
        raise ZeroBmoNorm("f is constant on every ball")
    w = basis.space.weights
    levels = list(range(0, T_MAX + 1))
    tail_med = np.zeros(len(levels))
    tail_avg = np.zeros(len(levels))
    meds = ball_medians(f, basis)
    for ids, idx in basis.size_groups():
        ww = w[idx]
        vals = f.values[idx]
        dev_m = vector_norms(vals - meds[ids, None, :], f.norm_kind)
        mu, dev_a = mean_deviation(vals, ww, f.norm_kind)
        tail_med = np.maximum(tail_med, level_tail(dev_m, norm, ww, mu, T_MAX).max(axis=0))
        tail_avg = np.maximum(tail_avg, level_tail(dev_a, norm, ww, mu, T_MAX).max(axis=0))
    rate_med = fit_exponential_rate(levels, tail_med)
    rate_avg = fit_exponential_rate(levels, tail_avg)
    nz = int(np.count_nonzero(tail_med))
    profile = "step" if nz <= 2 else "exponential"
    # the two centerings differ by at most 2 BMO units, so tails trade a
    # factor-2 shift in t from level 4 on
    consistent = all(
        tail_avg[2 * t] <= tail_med[t] + 1e-12
        and tail_med[2 * t] <= tail_avg[t] + 1e-12
        for t in range(4, T_MAX // 2 + 1))
    passed = rate_med > 0 and rate_avg > 0 and consistent
    rows = [CaseRow(f"t={t}", "tail_median_center", float(tail_med[j]), True)
            for j, t in enumerate(levels)]
    rows += [CaseRow(f"t={t}", "tail_average_center", float(tail_avg[j]), True)
             for j, t in enumerate(levels)]
    return Report("john_nirenberg", passed,
                  {"bmo_norm": norm, "rate_median": rate_med,
                   "rate_average": rate_avg, "profile": profile,
                   "centering_consistent": consistent}, rows)


# -- BMO boundedness ----------------------------------------------------------------


def bmo_bounded_reports(ops, corpus: Corpus, basis: BallBasis,
                        mode: str = "bmo",
                        threshold: float = math.inf) -> list[Report]:
    """For each of ops, in order: the max over the corpus of
    ||op f||_BMO / ||f||_BMO (mode "bmo") or / ||f||_inf (mode "linf"), a
    case passing when its ratio is at most threshold; degenerate 0/0 inputs
    are excluded.

    The norms of the corpus are computed once for every operator (its BMO
    norms in one sharp_all_stack pass), and those of each operator's outputs
    in another; a descriptor applies once to the stack of the kept cases, a
    plain callable case by case."""
    if mode not in ("bmo", "linf"):
        raise ConfigError(f"unknown mode {mode!r}")
    cases, stack = _corpus_stack(corpus, basis.n_atoms)
    if mode == "bmo":
        denoms = sharp_all_stack(stack, _CORPUS_NORM, basis, 1.0).max(axis=1)
    else:
        denoms = vector_norms(stack, _CORPUS_NORM).max(axis=1)
    keep = np.flatnonzero(denoms > 0)
    return [_bmo_report(op, [cases[i][0] for i in keep], stack[keep], denoms[keep],
                        basis, mode, threshold) for op in ops]


def _bmo_report(op, case_ids: list, stack: np.ndarray, denoms: np.ndarray,
                basis: BallBasis, mode: str, threshold: float) -> Report:
    """The bmo_bounded report of op on the kept corpus cases (their ids,
    stack and norms)."""
    outs = _output_norms(op, stack)
    if not np.all(np.isfinite(outs)):
        raise ValueError("function values must be finite")
    nums = sharp_all_stack(outs[:, :, None], _CORPUS_NORM, basis, 1.0).max(axis=1)
    rows = []
    worst = 0.0
    for cid, num, denom in zip(case_ids, nums.tolist(), denoms.tolist()):
        ratio = num / denom
        rows.append(CaseRow(cid, "bmo_ratio", ratio, ratio <= threshold))
        worst = max(worst, ratio)
    return Report("bmo_bounded", all(r.passed for r in rows),
                  {"max_ratio": worst, "mode": mode, "threshold": threshold,
                   "cases": len(rows)}, rows)


def bmo_bounded_report(op, corpus: Corpus, basis: BallBasis,
                       mode: str = "bmo") -> Report:
    """The bmo_bounded_reports report of op alone, with no threshold."""
    return bmo_bounded_reports([op], corpus, basis, mode)[0]


# -- strong domination --------------------------------------------------------------


def strong_domination_check(f: VecFunction, g: VecFunction, basis: BallBasis,
                            b_id: int) -> Report:
    """Profile beta(alpha) = OSC_{B,alpha}(f) / INF_B(g) over alpha = 1/20,
    ..., 19/20, then the tail of ||f - median|| against lambda ||g|| at the
    levels lambda = 0..T_MAX."""
    members = basis.members(int(b_id))
    inf_g = float(g.norms()[members].min())
    if inf_g <= 0:
        raise InfZero("g vanishes somewhere on the ball")
    alphas = [k / 20.0 for k in range(1, 20)]
    profile = (alpha_oscillations(f, members, alphas, basis) / inf_g).tolist()
    rows = [CaseRow(f"alpha={a:g}", "beta", beta, True)
            for a, beta in zip(alphas, profile)]
    _, med = median(f, members, basis)
    dev = vector_norms(f.values - med[None, :], f.norm_kind)
    ww = basis.space.weights[members]
    levels = list(range(0, T_MAX + 1))
    fracs = level_tail(dev[members], g.norms()[members], ww, float(ww.sum()),
                       T_MAX).tolist()
    rate = fit_exponential_rate(levels, fracs)
    rows += [CaseRow(f"lambda={t}", "tail_fraction", fr, True)
             for t, fr in zip(levels, fracs)]
    passed = rate > 0
    return Report("strong_domination", passed,
                  {"inf_g": inf_g, "beta_max": max(profile), "rate": rate,
                   "ball": int(b_id)}, rows)


# -- Muckenhoupt characteristics ------------------------------------------------------


def _ball_average(vals: np.ndarray, basis: BallBasis) -> np.ndarray:
    return basis.ball_integrals(vals * basis.space.weights) / basis.mu


def ap_characteristics(w: Weight, basis: BallBasis, p: float) -> Report:
    """[w]_{A_p}: the exact sup over balls of <w>_B <w^(-1/(p-1))>_B^(p-1)."""
    if p <= 1:
        raise ConfigError("p must exceed 1")
    a1 = _ball_average(w.w, basis)
    a2 = _ball_average(w.w ** (-1.0 / (p - 1.0)), basis)
    per_ball = a1 * a2 ** (p - 1.0)
    char = float(per_ball.max())
    summary = {"characteristic": char, "kind": "A_p", "p": p, "q": None,
               "witness_ball": int(per_ball.argmax())}
    return Report("muckenhoupt", True, summary,
                  [CaseRow("characteristic", "A_p", char, True)])
