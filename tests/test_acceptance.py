"""Acceptance gate: thirteen end-to-end checks with frozen regression
baselines (tests/baselines/acceptance.json, regenerated by
scripts/freeze_baselines.py). Each test prints one PASS/FAIL line."""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from ballbasis import (Corpus, Params, VecFunction, alpha_oscillation,
                       bmo_bounded_report, build_dyadic, build_grid,
                       build_regular_family, check_axioms,
                       conditional_expectation, disjointify, discrete_hilbert,
                       dominate_bo, dominate_mean_osc, estimate_bo_constants,
                       exp_decay_report, general_maximal, good_lambda_report,
                       john_nirenberg_report, lerner_decompose,
                       martingale_transform, maximal, maximal_modulation,
                       median, riesz_potential, sparsify_tree,
                       square_function, truncate, verify_sparse_bound,
                       vitali_cover)
from ballbasis.cli import main as cli_main
from ballbasis.cli import make_f_family

HERE = os.path.dirname(__file__)
BASELINES = os.path.join(HERE, "baselines", "acceptance.json")
FIVE_KINDS = ["random_signs", "indicators", "delta_combs", "log_samples",
              "haar_mixtures"]


@pytest.fixture(scope="module")
def baselines():
    with open(BASELINES) as fh:
        return json.load(fh)


def sig(x):
    return "%.12g" % float(x)


def grid_full(basis):
    return int(np.flatnonzero((basis.lo == 0)
                              & (basis.hi == basis.n_atoms - 1))[0])


def bundle_sha256(out_dir):
    """sha256 over the report bundle, as scripts/freeze_baselines.py takes it."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def report(num, desc, ok):
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_axioms():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 8, 12):
        rep = check_axioms(build_dyadic(n))
        ok &= rep.passed and rep.k_min == 2.0 and rep.eta_min == 2.0
    for n in (16, 64, 256):
        rep = check_axioms(build_grid(n))
        ok &= rep.passed and rep.k_min <= 5.0
    elapsed = time.perf_counter() - t0
    report(1, "axioms hold on dyadic (K=2, eta=2) and grid (K<=5) bases",
           ok and elapsed < 10.0)


def test_criterion_02_maximal_weak_type():
    t0 = time.perf_counter()
    basis = build_dyadic(10)
    w = basis.space.weights
    profiles = [Params.classical_profile(1.0), Params(1.0, 0.5, 1.0)]
    corpus = Corpus(seed=2, generators=FIVE_KINDS, size=40)
    ok = True
    for p in profiles:
        worst = 0.0
        for _, f in corpus.cases(1024):
            out = maximal(f, basis, p)
            denom = float(np.sum(f.norms() ** p.r * w)) ** (p.varrho / p.rho)
            if denom <= 0:
                continue
            for v in np.unique(out):
                if v <= 0:
                    continue
                worst = max(worst,
                            v ** (1.0 / p.rho) * float(w[out >= v].sum()) / denom)
        ok &= worst <= 2.0
    elapsed = time.perf_counter() - t0
    report(2, "maximal weak-type ratio <= K = 2 on 200 functions, "
              "both profiles", ok and elapsed < 60.0)


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    basis = build_dyadic(4)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        size = int(rng.integers(2, 13))
        members = np.sort(rng.choice(16, size=size, replace=False))
        f = VecFunction(rng.normal(size=16))
        alpha = float(rng.uniform(0.05, 0.95))
        fast = alpha_oscillation(f, members, alpha, basis, method="auto")
        slow = alpha_oscillation(f, members, alpha, basis,
                                 method="exhaustive")
        ok &= abs(fast - slow) <= 1e-12
        m1, r1 = median(f, members, basis, method="auto")
        m2, r2 = median(f, members, basis, method="exhaustive")
        ok &= np.array_equal(np.sort(m1), np.sort(m2))
        ok &= float(np.abs(r1 - r2).max()) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(3, "oscillation and median fast paths match exhaustive "
              "enumeration on 500 cases", ok and elapsed < 60.0)


def test_criterion_04_vitali_covering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for basis in (build_dyadic(8), build_grid(64)):
        for _ in range(200):
            k = int(rng.integers(1, 12))
            fam = sorted(set(int(g) for g in
                             rng.integers(0, basis.n_balls, size=k)))
            union = np.zeros(basis.n_atoms, dtype=bool)
            for g in fam:
                union[basis.balls[g].members] = True
            pool = np.flatnonzero(union)
            E = pool[rng.random(pool.size) < 0.6]
            taken = vitali_cover(basis, E, fam)
            seen = np.zeros(basis.n_atoms, dtype=bool)
            stars = np.zeros(basis.n_atoms, dtype=bool)
            for g in taken:
                m = basis.balls[g].members
                ok &= not seen[m].any()
                seen[m] = True
                stars[basis.star_members(g)] = True
            ok &= bool(stars[E].all())
    elapsed = time.perf_counter() - t0
    report(4, "vitali selections are disjoint and their stars cover E on "
              "400 random instances", ok and elapsed < 30.0)


@pytest.fixture(scope="module")
def p11_trees():
    basis = build_dyadic(12)
    a0 = basis.full_ball_id()
    return [sparsify_tree(basis, make_f_family(basis, 1.0 / 2000.0, s), a0,
                          1.0 / 2000.0) for s in range(20)]


def test_criterion_05_sparse_tree_construction(p11_trees, baselines):
    t0 = time.perf_counter()
    # the constructor verifies nesting, rank gaps, half-mass witnesses,
    # sparseness and coverage exactly before returning
    ok = all(t.sparseness_certified and t.admissible for t in p11_trees)
    ok &= [t.n_nodes for t in p11_trees] == baselines["p11_node_counts"]
    elapsed = time.perf_counter() - t0
    report(5, "sparse tree construction passes all invariants with frozen "
              "node counts on 20 seeded families", ok and elapsed < 120.0)


def test_criterion_06_disjointify_invariants(p11_trees):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    # random trees; the routine raises on any postcondition violation
    for _ in range(200):
        n_atoms = int(rng.integers(8, 40))
        sets = [np.arange(n_atoms)]
        parent = [None]
        for _ in range(int(rng.integers(2, 12))):
            p = int(rng.integers(0, len(sets)))
            base = sets[p]
            if base.size == 0:
                continue
            sets.append(base[rng.random(base.size) < 0.6])
            parent.append(p)
        E = [s[rng.random(s.size) < 0.4] if s.size else s for s in sets]
        disjointify(sets, parent, E)
    # every sparse-tree output feeds through with its witnesses as
    # exceptional sets
    for tree in p11_trees:
        basis = tree.basis
        sets = [basis.balls[nb].members for nb in tree.nodes]
        E = [np.intersect1d(wit, s)
             for wit, s in zip(tree.witness, sets)]
        fam = disjointify(sets, tree.parent, E)
        ok &= len(fam.shrink) == tree.n_nodes
    elapsed = time.perf_counter() - t0
    report(6, "martingale disjointification invariants hold on 200 random "
              "trees and all sparse-tree outputs", ok and elapsed < 30.0)


def test_criterion_07_pointwise_domination(baselines):
    t0 = time.perf_counter()
    ok = True
    b10 = build_dyadic(10)
    eps = np.random.default_rng([100]).integers(0, 2, size=b10.n_balls) * 2 - 1
    T = martingale_transform(b10, eps)
    c = estimate_bo_constants(T, budget=8, seed=0)
    for i in range(50):
        f = VecFunction(np.random.default_rng([7, i]).normal(size=1024))
        bound = dominate_bo(T, c, f, b10.full_ball_id())
        rep = verify_sparse_bound(bound, T.apply(f), b10.full_ball_id())
        ok &= rep.passed and rep.enclosing_ratio <= b10.K ** 3 + 1e-9
        ok &= rep.rate > 0
        ok &= sig(bound.constant) == baselines["thm7_martingale"][i]
    g = build_grid(128)
    R = riesz_potential(g, 0.5)
    cr = estimate_bo_constants(R, budget=8, seed=0)
    full = grid_full(g)
    for i in range(50):
        f = VecFunction(np.random.default_rng([8, i]).normal(size=128))
        bound = dominate_bo(R, cr, f, full)
        rep = verify_sparse_bound(bound, R.apply(f), full)
        ok &= rep.passed and rep.enclosing_ratio <= g.K ** 3 + 1e-9
        ok &= rep.rate > 0
        ok &= sig(bound.constant) == baselines["thm7_riesz"][i]
    elapsed = time.perf_counter() - t0
    report(7, "pointwise sparse domination verified on 100 seeded cases "
              "with frozen constants", ok and elapsed < 300.0)


def test_criterion_08_oscillation_domination(baselines):
    t0 = time.perf_counter()
    ok = True
    b8 = build_dyadic(8)
    fam = [conditional_expectation(b8, k) for k in range(9)]
    consts = [estimate_bo_constants(t, budget=8, seed=0) for t in fam]
    full = b8.full_ball_id()
    for i in range(50):
        f = VecFunction(np.random.default_rng([9, i]).normal(size=256))
        tf = np.zeros(256)
        for t in fam:
            np.maximum(tf, t.apply(f).norms(), out=tf)
        lb = lerner_decompose(VecFunction(tf), full, 0.75, b8)
        lhs = np.abs(tf - float(lb.center[0]))
        ok &= verify_sparse_bound(lb, lhs, full).passed
        ok &= sig(lb.constant) == baselines["t3_lerner_ek"][i]
        mo = dominate_mean_osc(fam, f, full, consts=consts)
        lhs = np.abs(tf - float(mo.center[0]))
        ok &= verify_sparse_bound(mo, lhs, full).passed
        ok &= sig(mo.constant) == baselines["t8_meanosc_ek"][i]
    g = build_grid(128)
    H = discrete_hilbert(g)
    ch = [estimate_bo_constants(H, budget=8, seed=0)]
    full = grid_full(g)
    for i in range(50):
        f = VecFunction(np.random.default_rng([10, i]).normal(size=128))
        tf = H.apply(f).norms()
        lb = lerner_decompose(VecFunction(tf), full, 0.75, g)
        lhs = np.abs(tf - float(lb.center[0]))
        ok &= verify_sparse_bound(lb, lhs, full).passed
        ok &= sig(lb.constant) == baselines["t3_lerner_hilbert"][i]
        mo = dominate_mean_osc([H], f, full, consts=ch)
        lhs = np.abs(tf - float(mo.center[0]))
        ok &= verify_sparse_bound(mo, lhs, full).passed
        ok &= sig(mo.constant) == baselines["t8_meanosc_hilbert"][i]
    elapsed = time.perf_counter() - t0
    report(8, "oscillation decompositions verify pointwise on 200 seeded "
              "cases with frozen constants", ok and elapsed < 300.0)


def test_criterion_09_good_lambda(baselines):
    t0 = time.perf_counter()
    b8 = build_dyadic(8)
    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    T = martingale_transform(b8, eps)
    c = estimate_bo_constants(T, budget=8, seed=0)
    corpus = Corpus(seed=11, generators=FIVE_KINDS, size=8)
    rep = good_lambda_report(T, c, corpus, c=0.5)
    ok = sig(rep.summary["max_ratio"]) == baselines["good_lambda_max"]
    ok &= np.isfinite(rep.summary["max_ratio"])
    elapsed = time.perf_counter() - t0
    report(9, "good-lambda ratio with delta = 1/(2(L0+L1)) matches the "
              "frozen constant", ok and elapsed < 60.0)


def test_criterion_10_exponential_decay():
    t0 = time.perf_counter()
    ok = True
    b8 = build_dyadic(8)
    g = build_grid(128)
    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    shipped = [(martingale_transform(b8, eps), b8, b8.full_ball_id()),
               (square_function(b8), b8, b8.full_ball_id()),
               (discrete_hilbert(g), g, grid_full(g)),
               (riesz_potential(g, 0.5), g, grid_full(g))]
    for T, basis, ball in shipped:
        f = VecFunction(np.random.default_rng([20]).normal(size=basis.n_atoms))
        rep = exp_decay_report(T, f, ball)
        ok &= rep.summary["rate"] > 0
    f = VecFunction(np.random.default_rng([21]).normal(size=256))
    rep = exp_decay_report(conditional_expectation(b8, 4), f,
                           b8.full_ball_id(), mode="vs_sharp")
    ok &= rep.summary["rate"] > 0
    g256 = build_grid(256)
    logf = VecFunction(np.log(256.0 / (np.arange(256) + 1.0)))
    jn = john_nirenberg_report(logf, g256)
    ok &= jn.summary["rate_median"] > 0 and jn.summary["rate_average"] > 0
    elapsed = time.perf_counter() - t0
    report(10, "exponential tail rates are positive for shipped operators "
               "and John-Nirenberg log samples", ok and elapsed < 120.0)


def test_criterion_11_bmo_boundedness(baselines):
    t0 = time.perf_counter()
    b8 = build_dyadic(8)
    corpus = Corpus(seed=12, generators=FIVE_KINDS, size=20)
    p1 = Params.classical_profile(1.0)

    def ek_max(f):
        return maximal(f, b8, p1)

    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    T = martingale_transform(b8, eps)
    fam = build_regular_family(b8)

    def poisson(f):
        return general_maximal(f, fam)

    got = {
        "bmo_ek_maximal": bmo_bounded_report(
            ek_max, corpus, b8, mode="linf").summary["max_ratio"],
        "bmo_martingale": bmo_bounded_report(
            T, corpus, b8, mode="bmo").summary["max_ratio"],
        "bmo_poisson": bmo_bounded_report(
            poisson, corpus, b8, mode="linf").summary["max_ratio"],
    }
    ok = all(float(sig(v)) <= float(baselines[k]) and np.isfinite(v)
             for k, v in got.items())
    elapsed = time.perf_counter() - t0
    report(11, "BMO/Linf ratios for the three reference operators stay at "
               "their frozen baselines", ok and elapsed < 120.0)


def test_criterion_12_modulation_and_truncation(baselines):
    t0 = time.perf_counter()
    b6 = build_dyadic(6)
    fam = [conditional_expectation(b6, k) for k in range(7)]
    member_l1 = [estimate_bo_constants(t, budget=8, seed=0).L1
                 for t in fam]
    mod_l1 = estimate_bo_constants(maximal_modulation(fam), budget=8,
                                   seed=0).L1
    ok = mod_l1 <= max(member_l1) + 1e-9
    b8 = build_dyadic(8)
    g = build_grid(128)
    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    ops = {"martingale": (martingale_transform(b8, eps), b8),
           "hilbert": (discrete_hilbert(g), g),
           "riesz": (riesz_potential(g, 0.5), g)}
    for name, (T, basis) in ops.items():
        c = estimate_bo_constants(T, budget=8, seed=0)
        ct = estimate_bo_constants(truncate(T), budget=2, seed=0)
        denom = c.L0 + c.L1
        ratio = ct.total / denom if denom > 0 else 0.0
        ok &= float(sig(ratio)) <= float(baselines["tstar_ratio"][name])
    elapsed = time.perf_counter() - t0
    report(12, "modulation keeps the localization constant and truncation "
               "constants stay within the frozen multiples",
           ok and elapsed < 60.0)


def test_criterion_13_cli_end_to_end(tmp_path, baselines):
    t0 = time.perf_counter()
    ok = True
    root = os.path.join(HERE, "..")
    for name in ("dyadic-martingale", "grid-hilbert"):
        cfg = os.path.join(root, "configs", f"{name}.json")
        outs = []
        for run in (1, 2):
            out = str(tmp_path / f"{name}-{run}")
            ok &= cli_main(["all", "--config", cfg, "--out", out]) == 0
            outs.append(out)
        ok &= bundle_sha256(outs[0]) == baselines["cli_bundle_sha256"][name]
        for fn in sorted(os.listdir(outs[0])):
            with open(os.path.join(outs[0], fn), "rb") as fa, \
                 open(os.path.join(outs[1], fn), "rb") as fb:
                ok &= fa.read() == fb.read()
    elapsed = time.perf_counter() - t0
    report(13, "CLI 'all' exits 0 on shipped configs with byte-identical "
               "reports across same-seed runs, equal to the frozen bundles",
           ok and elapsed < 900.0)


def _freeze_script():
    import importlib.util

    path = os.path.join(HERE, "..", "scripts", "freeze_baselines.py")
    spec = importlib.util.spec_from_file_location("freeze_baselines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("moved", [None, ("good_lambda_max",), ("tstar_ratio", "hilbert")],
                         ids=["unmoved", "top_level_key", "nested_key"])
def test_freeze_check_names_moved_keys(monkeypatch, capsys, baselines, moved):
    """freeze_baselines.py --check compares a regenerated document with the
    frozen file: it names each moved key and exits 1, and writes nothing."""
    script = _freeze_script()
    doc = json.loads(json.dumps(baselines))
    if moved is not None:
        *outer, key = moved
        target = doc[outer[0]] if outer else doc
        target[key] = "moved"
    monkeypatch.setattr(script, "build_doc", lambda: doc)
    with open(BASELINES, "rb") as fh:
        before = fh.read()
    status = script.main(["--check"])
    out = capsys.readouterr().out
    with open(BASELINES, "rb") as fh:
        assert fh.read() == before
    if moved is None:
        assert status == 0 and "differs" not in out
    else:
        assert status == 1
        assert out.splitlines()[0] == "differs: " + ".".join(moved)


def test_permuted_bundle_frozen(tmp_path, baselines):
    """The stages of 'all' on the permuted dyadic layout of
    scripts/freeze_baselines.py, where no ball is an atom interval, emit
    byte-identical bundles on two runs, equal to the frozen digest."""
    script = _freeze_script()
    outs = [str(tmp_path / f"run{k}") for k in (1, 2)]
    for out in outs:
        script.permuted_bundle(out)
    assert bundle_sha256(outs[0]) == baselines["permuted_bundle_sha256"]
    assert bundle_sha256(outs[1]) == bundle_sha256(outs[0])
