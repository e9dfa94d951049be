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


# -- scalar two-pointer loops ------------------------------------------------
# One loop per query over the stably sorted values of scalar f on an atom set
# arr with weights w: the reference the sorted-window queries of
# ballbasis.functional must equal bitwise.


def _sorted_prefix(f, arr, w):
    """Stable sort order of scalar f on arr, the sorted values, and the
    prefix sums of the weights in that order."""
    v = f.values[arr, 0]
    order = np.argsort(v, kind="stable")
    return order, v[order], np.concatenate([[0.0], np.cumsum(w[order])])


def _value_windows(sv, width):
    """For each i, (i, j) with sv[i..j] the longest run of the sorted values
    sv that starts at i and spans at most width."""
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j + 1 < len(sv) and sv[j + 1] - sv[i] <= width:
            j += 1
        yield i, j


def alpha_oscillation_by_loop(f, arr, w, alpha):
    """The least width of a run of sorted values of mass over alpha*mu."""
    _, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    best = float("inf")
    j = 0
    for i in range(len(sv)):
        j = max(j, i)
        while j < len(sv) and pre[j + 1] - pre[i] <= need:
            j += 1
        if j == len(sv):
            break
        best = min(best, float(sv[j] - sv[i]))
    return best


def alpha_core_by_loop(f, arr, w, alpha, slack):
    """The first run of largest mass among the runs of mass over alpha*mu
    and width at most slack times the alpha-oscillation."""
    best = alpha_oscillation_by_loop(f, arr, w, alpha)
    order, sv, pre = _sorted_prefix(f, arr, w)
    need = alpha * pre[-1]
    best_mass, best_ij = -1.0, None
    for i, j in _value_windows(sv, slack * best + 1e-15):
        mass = pre[j + 1] - pre[i]
        if mass > need and mass > best_mass:
            best_mass, best_ij = mass, (i, j)
    i, j = best_ij
    return np.sort(arr[order[i:j + 1]]), best


def median_by_loop(f, arr, w):
    """The median core (every run of mass over mu/2 and width at most twice
    the 1/2-oscillation) and f at its lowest atom."""
    osc0 = 2.0 * alpha_oscillation_by_loop(f, arr, w, 0.5)
    order, sv, pre = _sorted_prefix(f, arr, w)
    half = 0.5 * pre[-1]
    marked = np.zeros(len(arr), dtype=bool)
    for i, j in _value_windows(sv, osc0):
        if pre[j + 1] - pre[i] > half:
            marked[order[i:j + 1]] = True
    med = arr[marked]
    return med, f.values[int(med.min())].copy()
