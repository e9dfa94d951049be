"""Workloads of the pipeline benchmark.

Each workload turns (cli module, seed) into a config and a basis factory. The
factory returns a fresh basis on every call, so every timed pipeline starts
with the cold per-basis caches a user of ``ballbasis all`` starts with.

dyadic-martingale
    The shipped config, unchanged (its own ``seed`` key). Operator applies
    dominate: the square function's per-ball loop inside ``truncate``'s
    generic path, reached through good_lambda and dominate. Ball statistics
    stay small.
grid-hilbert
    The shipped config, unchanged. The mirror of the first workload:
    BO-constant estimation and ball statistics dominate, while operator
    applies stay small because kernel truncation takes the interval path.
dyadic-permuted
    Generated from the benchmark seed: ``build_dyadic(9)`` with its atom
    labels permuted, so every ball is a non-interval and every
    ``basis.interval`` branch takes the member-matrix path. The operators are
    ``sparse`` and ``identity``, the only shipped operators that accept any
    basis kind; the other sections are those of dyadic-martingale. A change
    to the interval path that costs the non-interval path shows here.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("dyadic-martingale", "grid-hilbert", "dyadic-permuted")

PERMUTED_LEVELS = 9
PERMUTED_OPERATORS = [{"kind": "sparse", "name": "sparse"},
                      {"kind": "identity", "name": "identity"}]


def permuted_dyadic(levels: int, seed: int):
    """``build_dyadic(levels)`` with atom labels permuted by a seeded permutation.

    Atom weights are uniform, so every ball keeps its measure, and ball ids,
    hull map, K = 2 and eta = 2 carry over unchanged.
    """
    import numpy as np
    from ballbasis.space import Ball, BallBasis, build_dyadic

    base = build_dyadic(levels)
    perm = np.random.default_rng(seed).permutation(base.n_atoms)
    balls = [Ball(b.id, np.sort(perm[b.members]), b.measure) for b in base.balls]
    return BallBasis(base.space, balls, base.hull, K=base.K, eta=base.eta)


def load(name: str, cli, seed: int):
    """Return ``(cfg, make_basis)`` for workload ``name``."""
    if name == "dyadic-permuted":
        cfg = cli.load_config(str(ROOT / "configs" / "dyadic-martingale.json"))
        cfg["basis"] = {"kind": "dyadic-permuted", "size": PERMUTED_LEVELS}
        cfg["operators"] = [dict(spec) for spec in PERMUTED_OPERATORS]
        return cfg, lambda: permuted_dyadic(PERMUTED_LEVELS, seed)
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    cfg = cli.load_config(str(ROOT / "configs" / f"{name}.json"))
    return cfg, lambda: cli.build_basis(cfg)


def input_key(name: str, seed: int) -> str:
    """What the inputs of a run depend on: the shipped configs ignore the seed."""
    return f"{name}/seed{seed}" if name == "dyadic-permuted" else name


def build_operators(cli, cfg: dict, basis) -> list:
    return [cli.build_operator(spec, basis, int(cfg["seed"]))
            for spec in cfg["operators"]]


def check_permuted(cli, basis) -> None:
    """Refuse to time dyadic-permuted unless it really is a non-interval basis
    with the doubling constants of the dyadic one."""
    rep = cli.check_axioms(basis)
    if basis.interval is not False:
        raise SystemExit("dyadic-permuted: basis.interval is not False")
    if not (rep.passed and rep.k_min == 2.0 and rep.eta_min == 2.0):
        raise SystemExit(f"dyadic-permuted: axioms failed or constants moved "
                         f"(passed={rep.passed}, k_min={rep.k_min}, "
                         f"eta_min={rep.eta_min})")
