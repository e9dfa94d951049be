import numpy as np
import pytest

from ballbasis import Ball, BallBasis, MeasureSpace, build_dyadic, build_grid


def _relabelled(basis, seed, kind=None):
    """basis with its atoms relabelled by a seeded permutation: atom a becomes
    atom perm[a] and keeps its weight; balls keep their ids and measures."""
    perm = np.random.default_rng(seed).permutation(basis.n_atoms)
    weights = np.empty_like(basis.space.weights)
    weights[perm] = basis.space.weights
    balls = [Ball(b.id, np.sort(perm[b.members]), b.measure) for b in basis.balls]
    return BallBasis(MeasureSpace(weights), balls, basis.hull, K=basis.K,
                     eta=basis.eta, kind=kind), perm


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
