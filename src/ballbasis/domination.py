"""End-to-end sparse domination pipelines.

dominate_bo produces a pointwise bound of a bounded-oscillation operator by
fractional means over a sparse ball family; lerner_decompose bounds the
deviation of a function from its median by alpha-oscillations over such a
family; dominate_mean_osc combines the two for maximally modulated families.
All emitted bounds are machine-verified pointwise before being returned, and
every measured constant is the minimal one making the bound pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (AlphaViolated, BetaOutOfRange, ConstructionFailure,
                     LambdaExhausted, NotDoubling, NotRestricted)
from .functional import (VecFunction, alpha_core, average, fit_exponential_rate,
                         level_tail, maximal, median, set_alpha_oscillations,
                         sup_sharp_all)
from .operators import (BOConstants, OperatorDescriptor, maximal_modulation,
                        truncate)
from .space import BallBasis
from .sparsify import atom_rows, disjointify, sparsify_tree


@dataclass
class SparseBound:
    basis: BallBasis
    family: list[int]                 # ball ids of the sparse family
    indicators: list[np.ndarray]      # shrunken supports (martingale family)
    enclosing: int                    # ball id of the enclosing ball
    constant: float
    terms: list[float]                # per-node coefficient values
    center: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def rhs_values(self) -> np.ndarray:
        out = np.zeros(self.basis.n_atoms)
        for t, ind in zip(self.terms, self.indicators):
            out[ind] += t
        return out

    def overlap_counts(self) -> np.ndarray:
        out = np.zeros(self.basis.n_atoms, dtype=np.int64)
        for ind in self.indicators:
            out[ind] += 1
        return out


@dataclass
class VerificationReport:
    margin_min: float
    enclosing_ratio: float
    tail: list[tuple[int, float]]     # (level, fraction above level)
    rate: float
    passed: bool


def verify_sparse_bound(bound: SparseBound, target, b_id: int) -> VerificationReport:
    """Check the domination pointwise on a ball, and the enclosure and
    overlap-decay side conditions; the overlap tail is mu{x in B: more than
    t indicators hold x} / mu(B)."""
    basis = bound.basis
    if isinstance(target, VecFunction):
        target = target.norms()
    target = np.asarray(target, dtype=float)
    members = basis.members(int(b_id))
    rhs = bound.constant * bound.rhs_values()
    margins = rhs[members] - target[members]
    ratio = basis.mu[int(bound.enclosing)] / basis.mu[int(b_id)]
    counts = bound.overlap_counts()[members]
    fracs = level_tail(counts, 1, basis.space.weights[members],
                       basis.mu[int(b_id)], int(counts.max()))
    tail = list(enumerate(fracs.tolist()))
    rate = fit_exponential_rate(range(len(tail)), fracs)
    passed = bool(margins.min() >= -1e-9 and rate > 0)
    return VerificationReport(margin_min=float(margins.min()),
                              enclosing_ratio=float(ratio), tail=tail,
                              rate=rate, passed=passed)


# -- pointwise fractional-mean domination -------------------------------------------


def _min_constant(lhs: np.ndarray, rhs: np.ndarray, members: np.ndarray,
                  what: str) -> float:
    lhs = lhs[members]
    rhs = rhs[members]
    live = lhs > 1e-13
    if not live.any():
        return 0.0
    if (rhs[live] <= 0).any():
        raise ConstructionFailure(
            f"{what}: positive target with empty sparse sum",
            transcript=[f"atom {members[live][rhs[live] <= 0][0]}"])
    return float((lhs[live] / rhs[live]).max())


def _certify(bound: SparseBound, lhs: np.ndarray, b_id: int,
             what: str) -> VerificationReport:
    """Set the bound's constant to the least one making lhs <= constant * rhs
    on the ball, verify the bound there and record its overlap rate."""
    members = bound.basis.members(b_id)
    bound.constant = _min_constant(lhs, bound.rhs_values(), members, what)
    report = verify_sparse_bound(bound, lhs, b_id)
    if report.margin_min < -1e-9:
        raise ConstructionFailure("emitted bound failed verification")
    bound.details["overlap_rate"] = report.rate
    return report


def dominate_bo(T: OperatorDescriptor, consts: BOConstants, f: VecFunction,
                b_id: int) -> SparseBound:
    """Dominate ||Tf|| pointwise on a ball of T's basis by fractional means
    over a sparse family: lambda starts at 10 and doubles, at most 40 times,
    until the exceptional sets are admissible at alpha = 1/(10 K^3)."""
    basis = T.basis
    b_id = int(b_id)
    members = basis.members(b_id)
    supp = np.flatnonzero(f.norms() > 0)
    if np.setdiff1d(supp, members).size:
        raise ValueError("f must be supported on the ball")
    alpha_threshold = 1.0 / (10.0 * basis.K ** 3)
    L = consts.total
    scale = L if L > 0 else 1.0
    t_star = truncate(T)
    p = T.params
    n = basis.n_atoms
    # per ball B, gamma = max(||T g||, T* g, L M g) and <f>_{(B*)*} for
    # g = f 1_{(B*)*}; neither depends on lambda.  Where g is f bit for bit,
    # on_f keeps ||T f|| and T* f for the certificate.
    gamma_cache: dict[int, tuple[np.ndarray, float]] = {}
    on_f: list[np.ndarray] = []

    def f_map(bid: int) -> np.ndarray:
        """F_B at the lambda of the current attempt."""
        bid = int(bid)
        if bid not in gamma_cache:
            star2 = basis.star2_members(bid)
            mask = np.zeros(n)
            mask[star2] = 1.0
            fm = VecFunction(f.values * mask[:, None], f.norm_kind)
            tg, tsg = T.apply(fm).norms(), t_star.apply(fm).norms()
            if fm.values.tobytes() == f.values.tobytes():
                on_f[:] = tg, tsg
            gamma = np.maximum(tg, tsg)
            gamma = np.maximum(gamma, scale * maximal(fm, basis, p))
            gamma_cache[bid] = gamma, average(f, star2, p, basis=basis)
        gamma, avg = gamma_cache[bid]
        return np.flatnonzero(gamma > scale * lam * avg)

    last_error: Exception | None = None
    for k in range(41):
        lam = 10.0 * (2.0 ** k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                tree = sparsify_tree(basis, f_map, b_id, alpha_threshold,
                                     tolerant=False)
            except (ConstructionFailure, AlphaViolated) as err:  # raise lambda
                last_error = err
                continue

        sets = [basis.members(nb) for nb in tree.nodes]
        e_rows = atom_rows(n, sets) & ~atom_rows(n, [f_map(nb) for nb in tree.nodes])
        fam = disjointify(sets, tree.parent, [np.flatnonzero(r) for r in e_rows],
                          weights=basis.space.weights)

        terms = [average(f, basis.members(nb), p, basis=basis)
                 for nb in tree.nodes]
        bound = SparseBound(basis=basis, family=list(tree.nodes),
                            indicators=fam.shrink,
                            enclosing=int(basis.hull[tree.root]),
                            constant=0.0, terms=terms,
                            details={"lambda": lam, "nodes": tree.n_nodes,
                                     "alpha_threshold": alpha_threshold,
                                     "admissible_alpha": tree.admissible})
        tf, tsf = on_f or (T.apply(f).norms(), t_star.apply(f).norms())
        report = _certify(bound, tf, b_id, "dominate_bo")
        bound.details["constant_truncated"] = _min_constant(
            tsf, bound.rhs_values(), members, "dominate_bo truncated")
        bound.details["enclosing_ratio"] = report.enclosing_ratio
        return bound
    raise LambdaExhausted(f"no admissible lambda within 40 doublings "
                          f"(last: {last_error})")


# -- Lerner-type oscillation decomposition -----------------------------------------


def lerner_decompose(f: VecFunction, a0: int, beta: float,
                     basis: BallBasis) -> SparseBound:
    """Bound ||f - median|| on a ball by alpha-oscillations over a sparse
    family of hull balls with a martingale family of indicator sets."""
    if basis.eta is None:
        raise NotDoubling("lerner decomposition needs a doubling basis")
    if not (0.5 < beta < 1.0):
        raise BetaOutOfRange("beta must lie in (1/2, 1)")
    a0 = int(a0)
    n = basis.n_atoms
    K = basis.K
    core_cache: dict[int, np.ndarray] = {}

    def core_of(bid: int) -> np.ndarray:
        bid = int(bid)
        if bid not in core_cache:
            core_cache[bid] = alpha_core(f, basis.members(int(basis.hull[bid])), beta,
                                         basis, slack=2.0)[0]
        return core_cache[bid]

    def f_map(bid: int) -> np.ndarray:
        return np.setdiff1d(basis.members(int(basis.hull[int(bid)])), core_of(bid))

    alpha = (1.0 - beta) * K
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tree = sparsify_tree(basis, f_map, a0, alpha, tolerant=True)

    node_balls = list(tree.nodes)
    parents: list[int | None] = list(tree.parent)
    uncovered = tree.constants.get("uncovered", [])
    # one row per hull set: the tree nodes, then one per repaired atom
    rows = atom_rows(n, [basis.members(int(basis.hull[nb]))
                         for nb in node_balls] + [[]] * len(uncovered))
    for x in uncovered:
        # attach the smallest ball whose exceptional set misses the atom
        cands = sorted(basis.balls_containing_atom(int(x)),
                       key=lambda c: (basis.mu[c], c))
        pick = None
        for c in cands:
            if int(x) not in f_map(int(c)):
                pick = int(c)
                break
        if pick is None:
            raise ConstructionFailure(
                f"atom {x} lies in every exceptional set; raise beta")
        ms = basis.members(int(basis.hull[pick]))
        # the host: the least node, by (measure, index), whose set holds ms
        j = len(node_balls)
        hosts = sorted(np.flatnonzero(rows[:j, ms].all(axis=1)),
                       key=lambda h: (basis.mu[node_balls[h]], h))
        if not hosts:
            raise ConstructionFailure(
                f"no tree node encloses the repair ball for atom {x}")
        node_balls.append(pick)
        parents.append(int(hosts[0]))
        rows[j, ms] = True

    up = [j if p is None else p for j, p in enumerate(parents)]
    if (rows & ~rows[up]).any():
        raise ConstructionFailure(
            "hull nesting failed; beta too far from 1 for this basis")
    m_sets = [np.flatnonzero(r) for r in rows]
    e_sets = [core_of(nb) for nb in node_balls]
    fam = disjointify(m_sets, parents, e_sets, weights=basis.space.weights)

    terms = set_alpha_oscillations(f, m_sets, beta, basis).tolist()
    _, med_rep = median(f, basis.members(a0), basis)
    dev = f.values - med_rep[None, :]
    lhs = VecFunction(dev, f.norm_kind).norms()
    bound = SparseBound(basis=basis, family=[int(basis.hull[nb]) for nb in node_balls],
                        indicators=fam.shrink,
                        enclosing=int(basis.hull[tree.root]),
                        constant=0.0, terms=terms,
                        center=med_rep,
                        details={"beta": beta, "nodes": len(node_balls),
                                 "repaired": len(uncovered), "alpha": alpha})
    outside = np.ones(n, dtype=bool)
    outside[basis.star_members(a0)] = False
    bound.details["family_in_star"] = not (rows & outside).any()
    _certify(bound, lhs, a0, "lerner_decompose")
    return bound


# -- modulated mean-oscillation domination ------------------------------------------


def _family_basis(family: list[OperatorDescriptor]) -> BallBasis:
    """The basis of a nonempty family, which must be doubling."""
    if not family:
        raise NotRestricted("empty family")
    if family[0].basis.eta is None:
        raise NotDoubling("a modulated family needs a doubling basis")
    return family[0].basis


def _check_restricted(family: list[OperatorDescriptor],
                      consts: list[BOConstants]):
    for t, c in zip(family, consts):
        if not t.restricted:
            raise NotRestricted(f"{t.name} is not linear with the classical profile")
        if not math.isfinite(c.r4_constant):
            raise NotRestricted(f"{t.name} has no finite log-localization constant")


def dominate_mean_osc(family: list[OperatorDescriptor], f: VecFunction,
                      b_id: int, consts: list[BOConstants],
                      beta: float = 0.75) -> SparseBound:
    """Dominate |max_a ||T_a f|| - median| pointwise on a ball of the
    family's basis by sharp mean oscillations of f over a sparse family;
    consts are the members' BO constants, whose log-localization constant
    R4 must be finite."""
    basis = _family_basis(family)
    _check_restricted(family, consts)
    b_id = int(b_id)
    tf = maximal_modulation(family).apply(f).values[:, 0]
    tf_fn = VecFunction(tf)
    inner = lerner_decompose(tf_fn, b_id, beta, basis)

    r = family[0].params.r
    terms = sup_sharp_all(f, basis, r)[inner.family].tolist()
    lhs = np.abs(tf - float(inner.center[0]))
    bound = SparseBound(basis=basis, family=list(inner.family),
                        indicators=inner.indicators,
                        enclosing=inner.enclosing, constant=0.0, terms=terms,
                        center=inner.center,
                        details={"beta": beta, "nodes": len(inner.family)})
    _certify(bound, lhs, b_id, "dominate_mean_osc")
    return bound
