"""Config-driven experiment runner.

One binary with subcommands mapping to the pipeline stages: check-basis,
estimate, sparsify, dominate, verify, and all. Configuration is JSON with a
closed schema (unknown keys exit 2); every run regenerates byte-identical
reports from (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import BallBasisError, ConfigError
from .space import build_dyadic, build_grid, check_axioms
from .functional import Params, VecFunction, maximal
from .operators import (OperatorDescriptor, conditional_expectation,
                        discrete_hilbert, dyadic_levels, identity_operator,
                        martingale_transform, maximal_modulation,
                        riesz_potential, sparse_operator, square_function,
                        zero_operator)
from .sparsify import sparsify_tree
from .domination import dominate_bo, dominate_mean_osc
from .verify import (GENERATOR_KINDS, CaseRow, Corpus, Report, Weight, _clean,
                     ap_characteristics, bmo_bounded_reports, exp_decay_report,
                     good_lambda_report, john_nirenberg_report,
                     strong_domination_check, weak_type_report)


# -- configuration ------------------------------------------------------------------


# operator kind -> the keys its spec may set besides kind and name, with defaults
_OP_DEFAULTS = {
    "martingale_transform": {"eps_seed": 1},
    "conditional_expectation": {"level": 0},
    "riesz_potential": {"alpha": 0.5},
    "sparse": {"seed": 2, "count": 8, "rho": 1.0},
    "square_function": {}, "ek_maximal": {}, "discrete_hilbert": {},
    "identity": {}, "zero": {},
}

_SUITES = ("weak_type", "good_lambda", "exp_decay", "john_nirenberg", "bmo",
           "strong_domination", "ap")
# the kinds _build_weight builds -> the keys each reads besides kind
_WEIGHT_KINDS = {"unit": set(), "half": {"value"}, "power": {"exponent"}}
# the suites run_verify reads a threshold for
_THRESHOLD_SUITES = {"weak_type", "good_lambda", "bmo"}
# the stages that emit one report per operator, named <stage>/<operator name>
_OPERATOR_REPORTS = ("estimate", "dominate", "weak_type", "good_lambda",
                     "exp_decay", "bmo")
# the reports run_verify names without an operator
_FIXED_REPORTS = ("weak_type/maximal_rho1", "weak_type/maximal_rho0.5",
                  "exp_decay/modulated_vs_sharp")

_DEFAULTS = {
    "seed": 0,
    "out": "reports",
    "operators": [],
    "corpus": {"generators": ["random_signs", "haar_mixtures"], "size": 8},
    "estimate": {"budget": 8},
    "sparsify": {"alpha": 0.002, "families": 5},
    "dominate": {"cases": 3},
    "mean_osc": {"beta": 0.75, "cases": 3},
    "verify": {"suites": list(_SUITES), "thresholds": {},
               "weight": {"kind": "unit"}, "p": 2.0},
}
_TOP_KEYS = {"basis"} | set(_DEFAULTS)

# (section, key) -> (test, the values it admits); a too large sparsify.alpha
# is a run that fails, not a bad value
_RANGES = {
    ("corpus", "size"): (lambda v: v >= 1, ">= 1"),
    ("estimate", "budget"): (lambda v: v >= 1, ">= 1"),
    ("sparsify", "alpha"): (lambda v: v > 0, "> 0"),
    ("sparsify", "families"): (lambda v: v >= 1, ">= 1"),
    ("dominate", "cases"): (lambda v: v >= 1, ">= 1"),
    ("mean_osc", "beta"): (lambda v: 0.5 < v < 1, "in (1/2, 1)"),
    ("mean_osc", "cases"): (lambda v: v >= 1, ">= 1"),
    ("verify", "p"): (lambda v: v > 1, "> 1"),
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _check_keys(section: str, given: dict, allowed: set):
    extra = set(given) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {section}: {sorted(extra)}")


def _check_type(name: str, value, default):
    """value must have the JSON type of default; a number is a float."""
    kind = type(default)
    ok = isinstance(value, bool) if kind is bool else (
        not isinstance(value, bool)
        and isinstance(value, (int, float) if kind is float else kind))
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _check_seed(name: str, seed: int) -> int:
    """seed, which numpy's generators take only when non-negative."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed!r}")
    return seed


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys("config", raw, _TOP_KEYS)
    if "basis" not in raw:
        raise ConfigError("config needs a 'basis' section")
    _check_type("basis", raw["basis"], {})
    _check_keys("basis", raw["basis"], {"kind", "size"})
    if raw["basis"].get("kind") not in ("dyadic", "grid"):
        raise ConfigError("basis.kind must be 'dyadic' or 'grid'")
    size = raw["basis"].get("size")
    if isinstance(size, bool) or not isinstance(size, int):
        raise ConfigError(f"basis.size must be an integer, got {size!r}")

    cfg = {}
    for key, default in _DEFAULTS.items():
        cfg[key] = raw.get(key, default)
        _check_type(key, cfg[key], default)
        if isinstance(default, dict):
            _check_keys(key, cfg[key], set(default))
            cfg[key] = {**default, **cfg[key]}
            for k, v in cfg[key].items():
                _check_type(f"{key}.{k}", v, default[k])
    for (key, k), (ok, admits) in _RANGES.items():
        if not ok(cfg[key][k]):
            raise ConfigError(f"{key}.{k} must be {admits}, got {cfg[key][k]!r}")
    unknown = [s for s in cfg["verify"]["suites"] if s not in _SUITES]
    if unknown:
        raise ConfigError(f"unknown verify suites {unknown}; known: {list(_SUITES)}")
    _check_keys("verify.thresholds", cfg["verify"]["thresholds"], _THRESHOLD_SUITES)
    for name, bound in cfg["verify"]["thresholds"].items():
        _check_type(f"verify.thresholds.{name}", bound, 0.0)
        if math.isnan(bound):
            raise ConfigError(f"verify.thresholds.{name} must be a number, got NaN")
    weight = cfg["verify"]["weight"]
    kind = weight.get("kind", "unit")
    _check_type("verify.weight.kind", kind, "")
    if kind not in _WEIGHT_KINDS:
        raise ConfigError(f"unknown weight kind {kind!r}; known: {list(_WEIGHT_KINDS)}")
    # a key the kind never reads would be silently ignored
    _check_keys(f"verify.weight of kind {kind}", weight, {"kind"} | _WEIGHT_KINDS[kind])
    for k in ("value", "exponent"):
        if k in weight:
            _check_type(f"verify.weight.{k}", weight[k], 0.0)
            if not math.isfinite(weight[k]):
                raise ConfigError(f"verify.weight.{k} must be finite, "
                                  f"got {weight[k]!r}")
    if not cfg["corpus"]["generators"]:
        # an empty corpus would pass every per-case check on no case
        raise ConfigError("corpus.generators must name at least one generator")
    for g in cfg["corpus"]["generators"]:
        _check_type("corpus generator", g, "")
        if g not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {g!r}; known: {list(GENERATOR_KINDS)}")
    _check_seed("seed", cfg["seed"])
    env_seed = os.environ.get("BALLBASIS_SEED")
    if env_seed is not None and "seed" not in raw:
        try:
            cfg["seed"] = _check_seed("BALLBASIS_SEED", int(env_seed))
        except ValueError:
            raise ConfigError(
                f"BALLBASIS_SEED must be an integer, got {env_seed!r}")
    cfg["basis"] = raw["basis"]
    for spec in cfg["operators"]:
        _check_type("operator entry", spec, {})
        kind = spec.get("kind")
        if kind not in _OP_DEFAULTS:
            raise ConfigError(f"unknown operator kind {kind!r}")
        defaults = {"kind": kind, "name": "", **_OP_DEFAULTS[kind]}
        _check_keys(f"operator {kind}", spec, set(defaults))
        for k, default in defaults.items():
            _check_type(f"operator {kind}.{k}", spec.get(k, default), default)
        if spec.get("count", 1) < 1:
            raise ConfigError(f"operator sparse.count must be >= 1, "
                              f"got {spec['count']!r}")
    return cfg


def build_basis(cfg: dict):
    kind = cfg["basis"]["kind"]
    size = cfg["basis"]["size"]
    try:
        basis = build_dyadic(size) if kind == "dyadic" else build_grid(size)
    except ValueError as exc:
        raise ConfigError(f"basis.size {size} out of range: {exc}")
    if basis.n_atoms < 2:  # the test-function suites need two atoms
        raise ConfigError(f"basis.size {size} out of range: need at least 2 atoms")
    return basis


def build_operator(spec: dict, basis, seed: int) -> OperatorDescriptor:
    """The operator spec names, on basis; a spec the constructors reject
    (a value out of range, the wrong basis kind) raises ConfigError."""
    kind = spec["kind"]
    try:
        op = _construct(kind, spec, basis, seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"operator {spec.get('name', kind)}: {exc}")
    if "name" in spec:
        op.name = spec["name"]
    return op


def _construct(kind: str, spec: dict, basis, seed: int) -> OperatorDescriptor:
    v = {**_OP_DEFAULTS[kind], **spec}
    if kind == "martingale_transform":
        rng = np.random.default_rng([seed, v["eps_seed"]])
        eps = rng.integers(0, 2, size=basis.n_balls) * 2 - 1
        return martingale_transform(basis, eps)
    elif kind == "square_function":
        return square_function(basis)
    elif kind == "conditional_expectation":
        return conditional_expectation(basis, v["level"])
    elif kind == "ek_maximal":
        fam = [conditional_expectation(basis, k)
               for k in range(dyadic_levels(basis) + 1)]
        return maximal_modulation(fam)
    elif kind == "discrete_hilbert":
        return discrete_hilbert(basis)
    elif kind == "riesz_potential":
        return riesz_potential(basis, float(v["alpha"]))
    elif kind == "identity":
        return identity_operator(basis)
    elif kind == "zero":
        return zero_operator(basis)
    else:  # sparse
        rng = np.random.default_rng([seed, v["seed"]])
        ids = np.sort(rng.choice(basis.n_balls, size=min(v["count"], basis.n_balls),
                                 replace=False))
        return sparse_operator(basis, ids, float(v["rho"]))


def _check_report_names(ops) -> None:
    """Raise ConfigError unless every operator has a name that fits one
    field of report.csv and summary.txt (printable, no comma or whitespace)
    and every report of a run, and so every tail file (its name with /
    mapped to _), has a name of its own."""
    if any(not op.name for op in ops):
        raise ConfigError("operator names must not be empty")
    for op in ops:
        if not op.name.isprintable() or any(c == "," or c.isspace() for c in op.name):
            raise ConfigError(f"operator name {op.name!r} must be printable, "
                              f"with no comma or whitespace")
    seen = {}
    for name in list(_FIXED_REPORTS) + [f"{stage}/{op.name}" for op in ops
                                        for stage in _OPERATOR_REPORTS]:
        file = name.replace("/", "_")
        if file in seen:
            raise ConfigError(f"reports {seen[file]!r} and {name!r} would share "
                              f"the name {file!r}; give the operators distinct names")
        seen[file] = name


def seeded_function(basis, seed: int, tag: int) -> VecFunction:
    rng = np.random.default_rng([seed, tag])
    return VecFunction(rng.normal(size=(basis.n_atoms, 1)))


def make_f_family(basis, alpha: float, seed: int):
    """Seeded exceptional-set assignment with mu(F_B) < alpha mu(B)."""
    n = basis.n_atoms
    rng = np.random.default_rng([seed, 17])
    noise = rng.random(n)
    w = basis.space.weights

    def f_map(ball_id: int):
        ms = basis.members(int(ball_id))
        order = ms[np.argsort(noise[ms], kind="stable")]
        budget = alpha * basis.mu[int(ball_id)]
        return np.sort(order[np.cumsum(w[order]) < budget])

    return f_map


# -- pipelines ----------------------------------------------------------------------


def run_check_basis(cfg: dict, basis) -> list[Report]:
    rep = check_axioms(basis)
    summary = {"passed": rep.passed, "K": basis.K, "eta": basis.eta,
               "k_min": rep.k_min, "eta_min": rep.eta_min,
               "n_balls": basis.n_balls, "n_atoms": basis.n_atoms}
    rows = [CaseRow("B1", "axiom", 1.0 if rep.b1_pass else 0.0, rep.b1_pass),
            CaseRow("B2", "axiom", 1.0 if rep.b2_pass else 0.0, rep.b2_pass),
            CaseRow("hull", "axiom", 1.0 if rep.hull_valid else 0.0,
                    rep.hull_valid)]
    return [Report("check_basis", rep.passed, summary, rows)]


def run_estimate(cfg: dict, basis, ops) -> list[Report]:
    budget = int(cfg["estimate"]["budget"])
    seed = int(cfg["seed"])
    out = []
    for op in ops:
        c = op.bo_constants(budget, seed)
        rows = [CaseRow(op.name, "L0", c.L0, True),
                CaseRow(op.name, "L1", c.L1, True),
                CaseRow(op.name, "L2", c.L2, True),
                CaseRow(op.name, "total", c.total, True)]
        summary = {"operator": op.name, "L0": c.L0, "L1": c.L1, "L2": c.L2,
                   "total": c.total, "method": c.method,
                   "R4": c.r4_constant, "R5": c.r5_value}
        out.append(Report(f"estimate/{op.name}", True, summary, rows))
    return out


def run_sparsify(cfg: dict, basis) -> list[Report]:
    alpha = float(cfg["sparsify"]["alpha"])
    families = int(cfg["sparsify"]["families"])
    seed = int(cfg["seed"])
    a0 = basis.full_ball_id()
    out = []
    for i in range(families):
        f_map = make_f_family(basis, alpha, seed + i)
        caught = []
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            try:
                tree = sparsify_tree(basis, f_map, a0, alpha)
                ok = tree.sparseness_certified
                nodes = tree.n_nodes
                err = ""
            except BallBasisError as exc:
                ok, nodes, err = False, 0, str(exc)
            caught = [str(w.message) for w in wlog]
        summary = {"family": i, "alpha": alpha, "nodes": nodes,
                   "warnings": caught}
        if err:
            summary["error"] = err
        out.append(Report(f"sparsify/{i}", ok, summary,
                          [CaseRow(f"family{i}", "nodes", float(nodes), ok)]))
    return out


def run_dominate(cfg: dict, basis, ops) -> list[Report]:
    cases = int(cfg["dominate"]["cases"])
    seed = int(cfg["seed"])
    budget = int(cfg["estimate"]["budget"])
    b_id = basis.full_ball_id()
    members = basis.members(b_id)
    out = []
    for op in ops:
        consts = op.bo_constants(budget, seed)
        rows = []
        ok_all = True
        constants = []
        for i in range(cases):
            rng = np.random.default_rng([seed, 31, i])
            vals = np.zeros((basis.n_atoms, 1))
            vals[members, 0] = rng.normal(size=len(members))
            f = VecFunction(vals)
            try:
                bound = dominate_bo(op, consts, f, b_id)
                c = bound.constant
                ratio = bound.details["enclosing_ratio"]
                rate = bound.details["overlap_rate"]
                ok = ratio <= basis.K ** 3 + 1e-9 and rate > 0
            except BallBasisError:
                c, ratio, rate, ok = math.inf, math.inf, 0.0, False
            ok_all = ok_all and ok
            constants.append(c)
            rows.append(CaseRow(f"case{i}", "constant", c, ok))
            rows.append(CaseRow(f"case{i}", "enclosing_ratio", ratio, ok))
            rows.append(CaseRow(f"case{i}", "overlap_rate", rate, ok))
        summary = {"operator": op.name, "ball": b_id, "cases": cases,
                   "constants": constants,
                   "max_constant": max(constants) if constants else 0.0}
        out.append(Report(f"dominate/{op.name}", ok_all, summary, rows))
    return out


def run_mean_osc(cfg: dict, basis, ops) -> list[Report]:
    if basis.eta is None:
        return []
    family = [op for op in ops if op.restricted]
    if not family:
        return []
    beta = float(cfg["mean_osc"]["beta"])
    cases = int(cfg["mean_osc"]["cases"])
    seed = int(cfg["seed"])
    budget = int(cfg["estimate"]["budget"])
    b_id = basis.full_ball_id()
    consts = [op.bo_constants(budget, seed) for op in family]
    rows = []
    ok_all = True
    constants = []
    for i in range(cases):
        f = seeded_function(basis, seed, 37 + i)
        try:
            bound = dominate_mean_osc(family, f, b_id, beta=beta, consts=consts)
            c = bound.constant
            ok = True
        except BallBasisError:
            c, ok = math.inf, False
        ok_all = ok_all and ok
        constants.append(c)
        rows.append(CaseRow(f"case{i}", "constant", c, ok))
    summary = {"beta": beta, "ball": b_id, "cases": cases,
               "constants": constants,
               "max_constant": max(constants) if constants else 0.0,
               "family": [op.name for op in family]}
    return [Report("mean_osc", ok_all, summary, rows)]


def _build_weight(spec: dict, basis) -> Weight:
    kind = spec.get("kind", "unit")
    n = basis.n_atoms
    if kind == "unit":
        return Weight(np.ones(n))
    if kind == "half":
        w = np.ones(n)
        w[: n // 2] = float(spec.get("value", 2.0))
        return Weight(w)
    with np.errstate(over="ignore"):  # "power"; an overflow is an inf Weight rejects
        return Weight((1.0 + np.arange(n)) ** float(spec.get("exponent", 0.3)))


def run_verify(cfg: dict, basis, ops, suite_filter: str | None = None
               ) -> list[Report]:
    vcfg = cfg["verify"]
    # run_experiment checks suite_filter against the config's suites
    suites = list(vcfg["suites"]) if suite_filter is None else [suite_filter]
    seed = int(cfg["seed"])
    corpus = Corpus(seed, cfg["corpus"]["generators"],
                    int(cfg["corpus"]["size"]))
    thr = vcfg["thresholds"]
    budget = int(cfg["estimate"]["budget"])
    b_id = basis.full_ball_id()
    out = []

    if "weak_type" in suites:
        for prm in (Params.classical_profile(1.0), Params(1.0, 0.5, 1.0)):
            mx = lambda f, prm=prm: maximal(f, basis, prm)
            rep = weak_type_report(mx, corpus, basis, prm, bound=basis.K)
            rep.name = f"weak_type/maximal_rho{prm.rho:g}"  # see _FIXED_REPORTS
            out.append(rep)
        for op in ops:
            rep = weak_type_report(op, corpus, basis, op.params,
                                   bound=thr.get("weak_type"))
            rep.name = f"weak_type/{op.name}"
            out.append(rep)

    if "good_lambda" in suites:
        for op in ops:
            rep = good_lambda_report(op, op.bo_constants(budget, seed), corpus,
                                     threshold=thr.get("good_lambda", math.inf))
            rep.name = f"good_lambda/{op.name}"
            out.append(rep)

    if "exp_decay" in suites:
        f = seeded_function(basis, seed, 41)
        for op in ops:
            rep = exp_decay_report(op, f, b_id, "vs_maximal")
            rep.name = f"exp_decay/{op.name}"
            out.append(rep)
        if basis.eta is not None:
            fam = [op for op in ops if op.restricted]
            if fam:
                mm = maximal_modulation(fam)
                rep = exp_decay_report(mm, f, b_id, "vs_sharp")
                rep.name = "exp_decay/modulated_vs_sharp"
                out.append(rep)

    if "john_nirenberg" in suites:
        n = basis.n_atoms
        flog = VecFunction(np.log(float(n) / (np.arange(n) + 1.0))[:, None])
        rep = john_nirenberg_report(flog, basis)
        rep.name = "john_nirenberg/log"
        out.append(rep)

    if "bmo" in suites:
        reps = bmo_bounded_reports(ops, corpus, basis,
                                   threshold=thr.get("bmo", math.inf))
        for op, rep in zip(ops, reps):
            rep.name = f"bmo/{op.name}"
            out.append(rep)

    if "strong_domination" in suites:
        rng = np.random.default_rng([seed, 43])
        f = VecFunction(np.abs(rng.normal(size=(basis.n_atoms, 1))) + 0.1)
        rep = strong_domination_check(f, f, basis, b_id)
        out.append(rep)

    if "ap" in suites:
        w = _build_weight(vcfg["weight"], basis)
        rep = ap_characteristics(w, basis, float(vcfg["p"]))
        out.append(rep)
    return out


# -- emission -----------------------------------------------------------------------


def emit_report(reports: list[Report], out_dir: str) -> list[str]:
    """Write the report bundle (report.json, report.csv, one tail CSV per
    report with a tail, summary.txt); identical inputs produce byte-identical
    files."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {"reports": [r.to_dict() for r in reports],
           "passed": all(r.passed for r in reports)}
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1))
        fh.write("\n")
    written = [path]
    path = os.path.join(out_dir, "report.csv")
    with open(path, "w") as fh:
        fh.write("report,case,statistic,value,pass\n")
        for r in reports:
            for line in r.csv_lines()[1:]:
                fh.write(f"{r.name},{line}\n")
    written.append(path)
    for r in reports:
        tail = r.summary.get("tail")
        if tail:
            safe = r.name.replace("/", "_")
            path = os.path.join(out_dir, f"{safe}_tail.csv")
            with open(path, "w") as fh:
                fh.write("t,count,fraction\n")
                for t, c, fr in zip(tail["t"], tail["count"], tail["fraction"]):
                    fh.write(f"{t},{c},{_clean(float(fr))}\n")
            written.append(path)
    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w") as fh:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            keys = {k: _clean(v) for k, v in r.summary.items()
                    if not isinstance(v, (dict, list))}
            body = " ".join(f"{k}={v}" for k, v in keys.items())
            fh.write(f"{status} {r.name} {body}\n")
        fh.write("PASS\n" if all(r.passed for r in reports) else "FAIL\n")
    written.append(path)
    return written


# -- entry point --------------------------------------------------------------------


_COMMANDS = ("check-basis", "estimate", "sparsify", "dominate", "verify", "all")


def run_experiment(command: str, cfg: dict, suite: str | None = None) -> tuple[list[Report], list[str]]:
    # checked before any stage runs, so a bad value writes no bundle
    if suite is not None and command not in ("verify", "all"):
        raise ConfigError(f"--suite restricts verify and all, not {command}")
    if suite is not None and suite not in cfg["verify"]["suites"]:
        raise ConfigError(f"unknown suite {suite!r}")
    out = cfg["out"]
    # out, or the nearest path above it that exists, must be a directory
    above = os.path.abspath(out)
    while not os.path.exists(above):
        above = os.path.dirname(above)
    if not out or not os.path.isdir(above):
        raise ConfigError(f"out must name a directory, got {out!r}")
    basis = build_basis(cfg)
    ops = [build_operator(spec, basis, int(cfg["seed"]))
           for spec in cfg["operators"]]
    _check_report_names(ops)
    reports: list[Report] = []
    if command in ("check-basis", "all"):
        reports += run_check_basis(cfg, basis)
    if command in ("estimate", "all"):
        reports += run_estimate(cfg, basis, ops)
    if command in ("sparsify", "all"):
        reports += run_sparsify(cfg, basis)
    if command in ("dominate", "all"):
        reports += run_dominate(cfg, basis, ops)
        reports += run_mean_osc(cfg, basis, ops)
    if command in ("verify", "all"):
        reports += run_verify(cfg, basis, ops, suite_filter=suite)
    files = emit_report(reports, cfg["out"])
    return reports, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ballbasis",
        description="ball-basis pipelines: axioms, constants, sparse trees, "
                    "domination, and inequality verification")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config (and BALLBASIS_SEED) seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--suite", default=None,
                        help="restrict the verify stage to one suite")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _check_seed("--seed", args.seed)
        if args.out is not None:
            cfg["out"] = args.out
        reports, files = run_experiment(args.command, cfg, suite=args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BallBasisError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    failed = [r.name for r in reports if not r.passed]
    for path in files:
        print(f"wrote {path}")
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
