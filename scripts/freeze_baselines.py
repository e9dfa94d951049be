"""Regenerate the frozen regression baselines used by the acceptance tests.

Every quantity here is deterministic given the seeds below, so reruns must
reproduce the stored values exactly (12 significant digits). Run from the
repository root:

    python3 scripts/freeze_baselines.py          # rewrite the frozen file
    python3 scripts/freeze_baselines.py --check  # compare, writing nothing

With --check the document is regenerated in memory and compared with the
frozen file: each key that differs is printed and the exit status is 1.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ballbasis import (Ball, BallBasis, Corpus, MeasureSpace, Params,
                       VecFunction, bmo_bounded_report,
                       build_dyadic, build_grid, build_regular_family,
                       conditional_expectation, discrete_hilbert,
                       dominate_bo, dominate_mean_osc, estimate_bo_constants,
                       general_maximal, good_lambda_report, lerner_decompose,
                       martingale_transform, maximal, riesz_potential,
                       sparsify_tree, truncate)
from ballbasis import cli
from ballbasis.cli import main as cli_main
from ballbasis.cli import make_f_family

ROOT = os.path.join(os.path.dirname(__file__), "..")
OUT = os.path.normpath(os.path.join(ROOT, "tests", "baselines", "acceptance.json"))
# the shipped configs that 'ballbasis all' passes on (acceptance criterion 13)
CLI_CONFIGS = ("dyadic-martingale", "grid-hilbert")
# a non-interval layout at a realistic size: build_dyadic(9) with its atoms
# relabelled by the seeded permutation of tests/conftest.py's _relabelled,
# run with the sparse and identity operators (the shipped operators that
# accept any basis) and the other sections of dyadic-martingale.json
PERMUTED_LEVELS, PERMUTED_SEED = 9, 0
PERMUTED_OPERATORS = [{"kind": "sparse", "name": "sparse"},
                      {"kind": "identity", "name": "identity"}]


def sig(x):
    return "%.12g" % float(x)


def grid_full(basis):
    return int(np.flatnonzero((basis.lo == 0) & (basis.hi == basis.n_atoms - 1))[0])


def p11_node_counts():
    basis = build_dyadic(12)
    a0 = basis.full_ball_id()
    counts = []
    for seed in range(20):
        tree = sparsify_tree(basis, make_f_family(basis, 1.0 / 2000.0, seed),
                             a0, 1.0 / 2000.0)
        assert tree.sparseness_certified
        counts.append(tree.n_nodes)
    return counts


def thm7_battery():
    out = {}
    b10 = build_dyadic(10)
    eps = np.random.default_rng([100]).integers(0, 2, size=b10.n_balls) * 2 - 1
    T = martingale_transform(b10, eps)
    c = estimate_bo_constants(T, budget=8, seed=0)
    vals = []
    for i in range(50):
        f = VecFunction(np.random.default_rng([7, i]).normal(size=1024))
        vals.append(sig(dominate_bo(T, c, f, b10.full_ball_id()).constant))
    out["thm7_martingale"] = vals

    g = build_grid(128)
    R = riesz_potential(g, 0.5)
    cr = estimate_bo_constants(R, budget=8, seed=0)
    full = grid_full(g)
    vals = []
    for i in range(50):
        f = VecFunction(np.random.default_rng([8, i]).normal(size=128))
        vals.append(sig(dominate_bo(R, cr, f, full).constant))
    out["thm7_riesz"] = vals
    return out


def t3_t8_battery():
    out = {"t3_lerner_ek": [], "t8_meanosc_ek": [],
           "t3_lerner_hilbert": [], "t8_meanosc_hilbert": []}
    b8 = build_dyadic(8)
    fam = [conditional_expectation(b8, k) for k in range(9)]
    consts = [estimate_bo_constants(t, budget=8, seed=0) for t in fam]
    full = b8.full_ball_id()
    for i in range(50):
        f = VecFunction(np.random.default_rng([9, i]).normal(size=256))
        tf = np.zeros(256)
        for t in fam:
            np.maximum(tf, t.apply(f).norms(), out=tf)
        out["t3_lerner_ek"].append(
            sig(lerner_decompose(VecFunction(tf), full, 0.75, b8).constant))
        out["t8_meanosc_ek"].append(
            sig(dominate_mean_osc(fam, f, full, consts=consts).constant))

    g = build_grid(128)
    H = discrete_hilbert(g)
    ch = [estimate_bo_constants(H, budget=8, seed=0)]
    full = grid_full(g)
    for i in range(50):
        f = VecFunction(np.random.default_rng([10, i]).normal(size=128))
        tf = H.apply(f).norms()
        out["t3_lerner_hilbert"].append(
            sig(lerner_decompose(VecFunction(tf), full, 0.75, g).constant))
        out["t8_meanosc_hilbert"].append(
            sig(dominate_mean_osc([H], f, full, consts=ch).constant))
    return out


def good_lambda_baseline():
    b8 = build_dyadic(8)
    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    T = martingale_transform(b8, eps)
    c = estimate_bo_constants(T, budget=8, seed=0)
    corpus = Corpus(seed=11, generators=["random_signs", "indicators",
                                         "delta_combs", "log_samples",
                                         "haar_mixtures"], size=8)
    rep = good_lambda_report(T, c, corpus, c=0.5)
    return sig(rep.summary["max_ratio"])


def bmo_baselines():
    b8 = build_dyadic(8)
    corpus = Corpus(seed=12, generators=["random_signs", "indicators",
                                         "delta_combs", "log_samples",
                                         "haar_mixtures"], size=20)
    p1 = Params.classical_profile(1.0)

    def ek_max(f):
        return maximal(f, b8, p1)

    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    T = martingale_transform(b8, eps)
    fam = build_regular_family(b8)

    def poisson(f):
        return general_maximal(f, fam)

    return {
        "bmo_ek_maximal": sig(bmo_bounded_report(
            ek_max, corpus, b8, mode="linf").summary["max_ratio"]),
        "bmo_martingale": sig(bmo_bounded_report(
            T, corpus, b8, mode="bmo").summary["max_ratio"]),
        "bmo_poisson": sig(bmo_bounded_report(
            poisson, corpus, b8, mode="linf").summary["max_ratio"]),
    }


def tstar_ratios():
    b8 = build_dyadic(8)
    g = build_grid(128)
    eps = np.random.default_rng([100]).integers(0, 2, size=b8.n_balls) * 2 - 1
    # kernel operators only: their truncations have an exact fast path
    ops = {
        "martingale": (martingale_transform(b8, eps), b8),
        "hilbert": (discrete_hilbert(g), g),
        "riesz": (riesz_potential(g, 0.5), g),
    }
    out = {}
    for name, (T, basis) in ops.items():
        c = estimate_bo_constants(T, budget=8, seed=0)
        ct = estimate_bo_constants(truncate(T), budget=2, seed=0)
        denom = c.L0 + c.L1
        out[name] = sig(ct.total / denom if denom > 0 else 0.0)
    return out


def bundle_sha256(out_dir):
    """sha256 over the report bundle: each file's name, a NUL, its bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def permuted_dyadic(levels, seed):
    """build_dyadic(levels) with atom a relabelled perm[a]; every atom
    keeps its weight and every ball its id, measure and hull."""
    base = build_dyadic(levels)
    perm = np.random.default_rng(seed).permutation(base.n_atoms)
    weights = np.empty_like(base.space.weights)
    weights[perm] = base.space.weights
    balls = [Ball(b.id, np.sort(perm[b.members]), b.measure) for b in base.balls]
    return BallBasis(MeasureSpace(weights), balls, base.hull, K=base.K,
                     eta=base.eta)


def permuted_bundle(out_dir):
    """The stages of 'ballbasis all', in run_experiment's order, on the
    permuted dyadic layout, and the bundle they emit into out_dir."""
    cfg = cli.load_config(os.path.join(ROOT, "configs", "dyadic-martingale.json"))
    cfg["operators"] = [dict(spec) for spec in PERMUTED_OPERATORS]
    basis = permuted_dyadic(PERMUTED_LEVELS, PERMUTED_SEED)
    ops = [cli.build_operator(spec, basis, int(cfg["seed"]))
           for spec in cfg["operators"]]
    reports = (cli.run_check_basis(cfg, basis) + cli.run_estimate(cfg, basis, ops)
               + cli.run_sparsify(cfg, basis) + cli.run_dominate(cfg, basis, ops)
               + cli.run_mean_osc(cfg, basis, ops) + cli.run_verify(cfg, basis, ops))
    return cli.emit_report(reports, out_dir)


def cli_bundle_digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CONFIGS:
            cfg = os.path.join(ROOT, "configs", f"{name}.json")
            bundle = os.path.join(tmp, name)
            assert cli_main(["all", "--config", cfg, "--out", bundle]) == 0
            out[name] = bundle_sha256(bundle)
    return out


def build_doc():
    doc = {"p11_node_counts": p11_node_counts()}
    doc.update(thm7_battery())
    doc.update(t3_t8_battery())
    doc["good_lambda_max"] = good_lambda_baseline()
    doc.update(bmo_baselines())
    doc["tstar_ratio"] = tstar_ratios()
    doc["cli_bundle_sha256"] = cli_bundle_digests()
    with tempfile.TemporaryDirectory() as tmp:
        permuted_bundle(tmp)
        doc["permuted_bundle_sha256"] = bundle_sha256(tmp)
    return doc


def differing_keys(new, old, prefix=""):
    """The keys whose values differ between two documents, nested objects
    compared key by key (dotted paths)."""
    out = []
    for key in sorted(set(new) | set(old)):
        path = f"{prefix}{key}"
        a, b = new.get(key), old.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out += differing_keys(a, b, path + ".")
        elif a != b:
            out.append(path)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the frozen file instead of writing it")
    args = parser.parse_args(argv)
    # through JSON, so the comparison sees exactly what the file would hold
    doc = json.loads(json.dumps(build_doc()))
    if args.check:
        with open(OUT) as fh:
            frozen = json.load(fh)
        diff = differing_keys(doc, frozen)
        for key in diff:
            print(f"differs: {key}")
        print(f"{len(diff)} keys differ from {OUT}" if diff
              else f"baselines match {OUT}")
        return 1 if diff else 0
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
