import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballbasis import (ConfigError, Corpus, InfZero, Params, VecFunction,
                       build_dyadic, build_grid,
                       Weight, ZeroBmoNorm, ap_characteristics,
                       bmo_bounded_report, bmo_bounded_reports, bmo_norm,
                       conditional_expectation,
                       discrete_hilbert, estimate_bo_constants,
                       exp_decay_report, good_lambda_report, identity_operator,
                       john_nirenberg_report, martingale_transform, maximal,
                       median, square_function, strong_domination_check,
                       truncate, weak_type_report, zero_operator)
from ballbasis import cli, functional, maximal_modulation, verify
from ballbasis.operators import OperatorDescriptor
from ballbasis.verify import round_sig
from conftest import (BOUND_WEIGHT_KINDS, _relabelled, alpha_profile_by_alphas, bmo_bounded_by_loop,
                      bound_weights, good_lambda_by_cases,
                      good_lambda_ratio_by_levels, median_by_loop,
                      weak_type_by_cases, weak_type_ratio_by_levels,
                      weighted_interval_bases)


def _jn_tails_by_balls(f, basis, t_max=64):
    """Median- and average-centred John-Nirenberg tails by a Python loop over
    the balls and the levels t, in f's own norm, with each median from the
    scalar two-pointer loop or the exhaustive oracle: the reference for the
    size-grouped tails of john_nirenberg_report."""
    def norms(v):
        if f.norm_kind == "euclidean":
            return np.linalg.norm(v, axis=1)
        return np.abs(v).max(axis=1)

    norm = bmo_norm(f, basis)
    w = basis.space.weights
    tail_med = np.zeros(t_max + 1)
    tail_avg = np.zeros(t_max + 1)
    for b in basis.balls:
        ww = w[b.members]
        vals = f.values[b.members]
        if f.scalar:
            _, med = median_by_loop(f, b.members, ww)
        else:
            _, med = median(f, b.members, basis, method="exhaustive")
        mu = ww.sum()
        dev_m = norms(vals - med[None, :])
        dev_a = norms(vals - (vals * ww[:, None]).sum(axis=0) / mu)
        for t in range(t_max + 1):
            tail_med[t] = max(tail_med[t], float(ww[dev_m > t * norm].sum() / mu))
            tail_avg[t] = max(tail_avg[t], float(ww[dev_a > t * norm].sum() / mu))
    return tail_med, tail_avg


def _report_tails(rep):
    return tuple(np.array([r.value for r in rep.rows if r.statistic == stat])
                 for stat in ("tail_median_center", "tail_average_center"))


class TestCorpus:
    def test_bit_identical_regeneration(self, dyadic6):
        c1 = Corpus(seed=7, generators=["random_signs", "haar_mixtures"], size=5)
        c2 = Corpus(seed=7, generators=["random_signs", "haar_mixtures"], size=5)
        for (id1, f1), (id2, f2) in zip(c1.cases(64), c2.cases(64)):
            assert id1 == id2
            assert np.array_equal(f1.values, f2.values)

    def test_all_kinds_produce_cases(self):
        kinds = ["random_signs", "indicators", "delta_combs", "log_samples",
                 "haar_mixtures"]
        c = Corpus(seed=0, generators=kinds, size=2)
        cases = list(c.cases(32))
        assert len(cases) == 10
        for _, f in cases:
            assert f.values.shape[0] == 32

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Corpus(seed=0, generators=["white_noise"], size=1)

    def test_seed_changes_output(self):
        a = list(Corpus(seed=1, generators=["haar_mixtures"], size=1).cases(16))
        b = list(Corpus(seed=2, generators=["haar_mixtures"], size=1).cases(16))
        assert not np.array_equal(a[0][1].values, b[0][1].values)


class TestWeakType:
    def test_maximal_bounded_by_k(self, dyadic6):
        corpus = Corpus(seed=3, generators=["random_signs", "indicators",
                                            "haar_mixtures"], size=10)
        p = Params.classical_profile(1.0)

        def M(f):
            return maximal(f, dyadic6, p)

        rep = weak_type_report(M, corpus, dyadic6, p, bound=float(dyadic6.K))
        assert rep.passed
        assert rep.summary["max_ratio"] <= dyadic6.K

    def test_fractional_profile(self, dyadic6):
        corpus = Corpus(seed=3, generators=["indicators"], size=8)
        p = Params(1.0, 0.5, 1.0)

        def M(f):
            return maximal(f, dyadic6, p)

        rep = weak_type_report(M, corpus, dyadic6, p, bound=float(dyadic6.K))
        assert rep.passed

    def test_zero_operator(self, dyadic6):
        corpus = Corpus(seed=0, generators=["random_signs"], size=4)
        rep = weak_type_report(zero_operator(dyadic6), corpus, dyadic6,
                               Params.classical_profile(1.0))
        assert rep.summary["max_ratio"] == 0.0

    def test_report_serialization(self, dyadic6):
        corpus = Corpus(seed=0, generators=["random_signs"], size=2)
        rep = weak_type_report(zero_operator(dyadic6), corpus, dyadic6,
                               Params.classical_profile(1.0))
        doc = rep.to_dict()
        assert set(doc) == {"name", "passed", "summary", "cases"}
        # the bundle's JSON text parses back to the same dict
        assert json.loads(json.dumps(doc)) == doc
        lines = rep.csv_lines()
        assert lines[0] == "case,statistic,value,pass"


class TestGoodLambda:
    def test_martingale(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = estimate_bo_constants(T, budget=8)
        corpus = Corpus(seed=5, generators=["haar_mixtures"], size=6)
        rep = good_lambda_report(T, c, corpus, threshold=64.0)
        assert rep.passed
        assert np.isfinite(rep.summary["delta"])

    def test_deterministic(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        c = estimate_bo_constants(T, budget=8)
        corpus = Corpus(seed=5, generators=["haar_mixtures"], size=4)
        r1 = good_lambda_report(T, c, corpus)
        r2 = good_lambda_report(T, c, corpus)
        assert r1.to_dict() == r2.to_dict()


REPORT_BASES = {
    "dyadic6": lambda: build_dyadic(6),
    "grid16": lambda: build_grid(16),
    "dyadic7_relabelled": lambda: _relabelled(build_dyadic(7), seed=5)[0],
}


@pytest.fixture(scope="module", params=sorted(REPORT_BASES))
def report_basis(request):
    return REPORT_BASES[request.param]()


def _report_operators(basis):
    """Every shipped kind that accepts basis, built as the CLI builds it, and
    a modulation of the first two."""
    ops = []
    for kind in cli._OP_DEFAULTS:
        try:
            ops.append(cli.build_operator({"kind": kind}, basis, 0))
        except ConfigError:
            pass
    return ops + [maximal_modulation(ops[:2])]


def _report_corpus():
    return _CorpusWithDegenerateCases(Corpus(
        seed=4, generators=["random_signs", "indicators", "delta_combs",
                            "haar_mixtures"], size=3))


class TestReportsByStacks:
    """weak_type_report and good_lambda_report apply T (and T*) once to the
    corpus stack; the reports must equal those of one apply per case
    (conftest.weak_type_by_cases, good_lambda_by_cases)."""

    def test_weak_type_equals_per_case_loop(self, report_basis):
        basis = report_basis
        corpus = _report_corpus()
        ops = _report_operators(basis)
        p = Params.classical_profile(1.0)
        cases = ops + [truncate(ops[0]),
                       lambda f: maximal(f, basis, Params(1.0, 0.5, 1.0))]
        ratios = []
        for op in cases:
            params = getattr(op, "params", p)
            rep = weak_type_report(op, corpus, basis, params, 2.0)
            assert rep == weak_type_by_cases(op, corpus, basis, params, 2.0), op
            ratios.append(rep.summary["max_ratio"])
        assert {row.case for row in rep.rows} >= {"constant", "zero"}
        assert sum(r > 0 for r in ratios) >= len(ratios) - 1  # the zero operator

    def test_good_lambda_equals_per_case_loop(self, report_basis):
        # good_lambda truncates T, so it takes descriptors that declare a
        # truncation: a truncation declares none, a plain callable no basis
        basis = report_basis
        corpus = _report_corpus()
        for T in _report_operators(basis):
            consts = T.bo_constants(2, 0)
            # c = 8 keeps the comparison from being vacuous: every operator
            # but the two that truncate to 0 has a case with a ratio above 0
            rep = good_lambda_report(T, consts, corpus, 8.0, 1.5)
            assert rep == good_lambda_by_cases(T, consts, corpus, 8.0, 1.5), T.name
            assert (rep.summary["max_ratio"] > 0) == (T.name not in ("identity", "zero"))

    @pytest.mark.parametrize("kind,make", [("square_function", lambda: build_dyadic(6)),
                                           ("discrete_hilbert", lambda: build_grid(16))])
    def test_one_stacked_apply_per_report(self, monkeypatch, kind, make):
        """One apply_stack of T and one of truncate(T) per report, each over
        every case (a kernel truncation applies T once more inside); no
        OperatorDescriptor.apply per case."""
        basis = make()
        T = cli.build_operator({"kind": kind}, basis, 0)
        corpus = _report_corpus()
        k = len(list(corpus.cases(basis.n_atoms)))
        consts = estimate_bo_constants(T, budget=2)
        calls = []
        orig = OperatorDescriptor.apply_stack
        monkeypatch.setattr(OperatorDescriptor, "apply_stack", lambda self, stack, nk: (
            calls.append((self.name, len(stack)))) or orig(self, stack, nk))
        monkeypatch.setattr(OperatorDescriptor, "apply", None)
        weak_type_report(T, corpus, basis, T.params)
        assert calls == [(T.name, k)]
        calls.clear()
        good_lambda_report(T, consts, corpus)
        assert calls.count((f"trunc({T.name})", k)) == 1
        assert 1 <= calls.count((T.name, k)) <= 2
        assert len(calls) == {"square_function": 2, "discrete_hilbert": 3}[kind]


def _level_values(rng, n, kind):
    """n nonnegative values, about a third of them 0: "normal" |normal|,
    "integer" 0 .. 5 (repeated levels and exact ties of their products),
    "log" over 2**-20 .. 2**20."""
    vals = {"normal": lambda: np.abs(rng.normal(size=n)),
            "integer": lambda: rng.integers(0, 6, n).astype(float),
            "log": lambda: 2.0 ** rng.uniform(-20, 20, n)}[kind]()
    vals[rng.random(n) < 1 / 3] = 0.0
    return vals


LEVEL_KINDS = st.sampled_from(["normal", "integer", "log"])
WEIGHT_KINDS = st.sampled_from(BOUND_WEIGHT_KINDS)


class TestBoundThenConfirm:
    """The weak-type and good-lambda scans sum exactly only at the levels
    whose bounds may hold the max; each ratio must equal bitwise the scan
    with a masked sum per level (conftest.weak_type_ratio_by_levels,
    good_lambda_ratio_by_levels)."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), wkind=WEIGHT_KINDS, vkind=LEVEL_KINDS,
           rho=st.sampled_from([1.0, 0.5, 1 / 3]))
    def test_weak_type_ratio_equals_level_scan(self, seed, wkind, vkind, rho):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 129))
        w = bound_weights(rng, n, wkind)
        out = _level_values(rng, n, vkind)
        denom = float(2.0 ** rng.uniform(-5, 5))
        assert verify._weak_type_ratio(out, w, rho, denom) == weak_type_ratio_by_levels(
            out, w, rho, denom)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), wkind=WEIGHT_KINDS, vkind=LEVEL_KINDS,
           delta=st.sampled_from([0.1, 1.0, 10.0, math.inf]),
           right=st.sampled_from(["values", "scaled", "zero"]),
           block=st.sampled_from([None, 1, 3]))
    def test_good_lambda_ratio_equals_level_scan(self, seed, wkind, vkind, delta, right,
                                                 block):
        # right="zero" leaves every right set empty, so a level with a left
        # set makes the ratio inf; block caps a block of levels at that many
        # times n elements
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 129))
        w = bound_weights(rng, n, wkind)
        ts, mf = _level_values(rng, n, vkind), _level_values(rng, n, vkind)
        tf = {"values": lambda: _level_values(rng, n, vkind), "scaled": lambda: ts / 2.0,
              "zero": lambda: np.zeros(n)}[right]()
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(verify, "BLOCK_ELEMS", block * n)
            got = verify._good_lambda_ratio(tf, ts, mf, delta, w)
        assert got == good_lambda_ratio_by_levels(tf, ts, mf, delta, w)

    def test_good_lambda_inf_and_zero(self):
        """An empty right set beside a nonempty left one makes the ratio inf,
        found by the counts; no nonempty left set makes it 0."""
        w = np.array([1.0, 2.0, 3.0])
        ts, mf = np.array([0.0, 4.0, 1.0]), np.zeros(3)
        for tf, want in ((np.zeros(3), math.inf), (np.full(3, 9.0), 2.0 / 6.0)):
            assert verify._good_lambda_ratio(tf, ts, mf, 1.0, w) == want
            assert good_lambda_ratio_by_levels(tf, ts, mf, 1.0, w) == want
        assert verify._good_lambda_ratio(np.zeros(3), ts, np.full(3, 9.0), 1.0, w) == 0.0

    def test_weak_type_skips_nan_and_keeps_inf(self):
        """A NaN output lies in no superlevel set; an inf one makes the
        ratio inf, as in the scan."""
        w = np.array([1.0, 2.0, 3.0, 4.0])
        for out in (np.array([np.nan, 1.0, 2.0, 0.0]), np.array([np.nan, np.inf, 2.0, 0.0])):
            assert verify._weak_type_ratio(out, w, 1.0, 2.0) == weak_type_ratio_by_levels(
                out, w, 1.0, 2.0)
        assert verify._weak_type_ratio(np.array([np.nan, 0.0]), w[:2], 1.0, 2.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(data=weighted_interval_bases(), c=st.sampled_from([0.5, 8.0, 64.0]))
    def test_reports_equal_per_case_loops(self, data, c):
        basis, rng = data
        corpus = _CorpusWithDegenerateCases(Corpus(
            seed=int(rng.integers(100)), generators=["random_signs", "indicators",
                                                     "delta_combs", "haar_mixtures"], size=2))
        consts = SimpleNamespace(L0=float(rng.uniform(0.5, 2)), L1=float(rng.uniform(0, 2)))
        for T in _report_operators(basis):
            rep = weak_type_report(T, corpus, basis, T.params, 2.0)
            assert rep == weak_type_by_cases(T, corpus, basis, T.params, 2.0), T.name
            rep = good_lambda_report(T, consts, corpus, c, 1.5)
            assert rep == good_lambda_by_cases(T, consts, corpus, c, 1.5), T.name


class TestExpDecay:
    def test_identity_tail_vanishes(self, dyadic6, rng):
        T = identity_operator(dyadic6)
        f = VecFunction(rng.normal(size=64))
        rep = exp_decay_report(T, f, dyadic6.full_ball_id())
        assert rep.passed
        assert rep.summary["rate"] > 0

    def test_martingale_positive_rate(self, dyadic8, rng):
        eps = rng.integers(0, 2, size=dyadic8.n_balls) * 2 - 1
        T = martingale_transform(dyadic8, eps)
        f = VecFunction(rng.normal(size=256))
        rep = exp_decay_report(T, f, dyadic8.full_ball_id())
        assert rep.summary["rate"] > 0
        tail = rep.summary["tail"]
        assert set(tail) == {"t", "count", "fraction"}

    def test_vs_sharp_mode(self, dyadic8, rng):
        fam = [conditional_expectation(dyadic8, k) for k in range(9)]
        f = VecFunction(rng.normal(size=256))
        rep = exp_decay_report(fam[4], f, dyadic8.full_ball_id(),
                               mode="vs_sharp")
        assert rep.summary["rate"] > 0

    def test_unknown_mode(self, dyadic6):
        with pytest.raises(ConfigError):
            exp_decay_report(identity_operator(dyadic6),
                             VecFunction(np.ones(64)),
                             dyadic6.full_ball_id(), mode="banana")


class TestJohnNirenberg:
    def test_log_function(self):
        from ballbasis import build_grid
        g = build_grid(256)
        f = VecFunction(np.log(256.0 / (np.arange(256) + 1.0)))
        rep = john_nirenberg_report(f, g)
        assert rep.passed
        assert rep.summary["rate_median"] > 0
        assert rep.summary["rate_average"] > 0
        assert rep.summary["centering_consistent"]

    def test_two_value_step_profile(self, dyadic6):
        vals = np.zeros(64)
        vals[:32] = 1.0
        rep = john_nirenberg_report(VecFunction(vals), dyadic6)
        assert rep.summary["profile"] == "step"

    def test_constant_rejected(self, dyadic6):
        with pytest.raises(ZeroBmoNorm):
            john_nirenberg_report(VecFunction(np.ones(64)), dyadic6)

    @pytest.mark.parametrize("n, bound", [(64, 1 << 20), (256, 3 << 20)])
    def test_memory(self, n, bound):
        """The median representatives of every ball come one block of padded
        rows at a time: a traced peak under 1 MB on grid 64 and 3 MB on
        grid 256, with the size groups built beforehand."""
        basis = build_grid(n)
        basis.size_groups()
        f = VecFunction(np.log(n / (np.arange(n) + 1.0)))
        tracemalloc.start()
        try:
            john_nirenberg_report(f, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    def test_tails_equal_per_ball_loop(self, stat_basis, norm_kind):
        vals = np.random.default_rng(6).lognormal(size=stat_basis.n_atoms)
        f = VecFunction(vals, norm_kind)
        got = _report_tails(john_nirenberg_report(f, stat_basis))
        want = _jn_tails_by_balls(f, stat_basis)
        uniform = np.all(stat_basis.space.weights == stat_basis.space.weights[0])
        for g, w in zip(got, want):
            assert np.any(w > 0)
            if uniform:
                assert np.array_equal(g, w)
            else:
                # masked sums in another order: within an ulp or so
                assert np.allclose(g, w, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
    def test_vector_tails_in_own_norm(self, dyadic3, norm_kind, dim):
        f = VecFunction(np.random.default_rng(8).normal(size=(8, dim)), norm_kind)
        got = _report_tails(john_nirenberg_report(f, dyadic3))
        want = _jn_tails_by_balls(f, dyadic3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class _CorpusWithDegenerateCases:
    """A seeded corpus followed by a constant case (BMO norm 0) and the zero
    function (sup norm 0); only_degenerate drops the seeded cases."""

    def __init__(self, corpus, only_degenerate=False):
        self.corpus = corpus
        self.only_degenerate = only_degenerate

    def cases(self, n):
        if not self.only_degenerate:
            yield from self.corpus.cases(n)
        yield "constant", VecFunction(np.full(n, 2.0))
        yield "zero", VecFunction(np.zeros(n))


def _bmo_operator(name, dyadic6, grid16):
    """(operator, basis): descriptors (linear, nonlinear, truncated) and a
    plain callable."""
    if name == "martingale":
        eps = np.random.default_rng(2).integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        return martingale_transform(dyadic6, eps), dyadic6
    if name == "square":
        return square_function(dyadic6), dyadic6
    if name == "hilbert_star":
        return truncate(discrete_hilbert(grid16)), grid16
    return (lambda f: maximal(f, grid16, Params.classical_profile(1.0))), grid16


class TestBmoByStacks:
    """bmo_bounded_reports' two stacked passes against one apply and two
    bmo_norm calls per corpus case."""

    @pytest.mark.parametrize("mode", ["bmo", "linf"])
    @pytest.mark.parametrize("name", ["martingale", "square", "hilbert_star",
                                      "maximal"])
    def test_equals_per_case_loop(self, dyadic6, grid16, mode, name):
        op, basis = _bmo_operator(name, dyadic6, grid16)
        corpus = _CorpusWithDegenerateCases(Corpus(
            seed=9, generators=["haar_mixtures", "indicators", "delta_combs"], size=4))
        rep = bmo_bounded_reports([op], corpus, basis, mode, 2.0)[0]
        assert rep == bmo_bounded_by_loop(op, corpus, basis, mode, 2.0)
        assert bmo_bounded_report(op, corpus, basis, mode) == bmo_bounded_by_loop(
            op, corpus, basis, mode, math.inf)
        kept = [row.case for row in rep.rows]
        assert ("constant" in kept) == (mode == "linf") and "zero" not in kept
        assert len(kept) >= 12

    @pytest.mark.parametrize("mode", ["bmo", "linf"])
    def test_degenerate_corpus(self, dyadic6, grid16, mode):
        op, basis = _bmo_operator("square", dyadic6, grid16)
        corpus = _CorpusWithDegenerateCases(None, only_degenerate=True)
        rep = bmo_bounded_reports([op], corpus, basis, mode, 2.0)[0]
        assert rep == bmo_bounded_by_loop(op, corpus, basis, mode, 2.0)
        assert rep.summary["cases"] == (mode == "linf")

    @pytest.mark.parametrize("mode", ["bmo", "linf"])
    def test_corpus_norms_once_for_all_ops(self, monkeypatch, dyadic6, grid16, mode):
        """bmo_bounded_reports: the corpus norms once for every operator, and
        one sharp_all_stack of each operator's outputs; each report is the
        per-case loop's."""
        ops = [_bmo_operator(name, dyadic6, grid16)[0]
               for name in ("hilbert_star", "maximal")] + [discrete_hilbert(grid16)]
        corpus = _CorpusWithDegenerateCases(Corpus(
            seed=9, generators=["haar_mixtures", "delta_combs"], size=4))
        calls = []
        orig = verify.sharp_all_stack
        monkeypatch.setattr(verify, "sharp_all_stack", lambda *args: (
            calls.append(len(args[0]))) or orig(*args))
        reps = bmo_bounded_reports(ops, corpus, grid16, mode, 2.0)
        assert reps == [bmo_bounded_by_loop(op, corpus, grid16, mode, 2.0) for op in ops]
        assert len(calls) == len(ops) + (mode == "bmo")

    def test_bmo_suite_on_shipped_config(self, monkeypatch):
        """run_verify's bmo suite on the grid-hilbert config calls
        sharp_all_stack once for the corpus and once per operator."""
        cfg = cli.load_config(str(Path(__file__).parents[1] / "configs"
                                  / "grid-hilbert.json"))
        basis = cli.build_basis(cfg)
        ops = [cli.build_operator(spec, basis, cfg["seed"]) for spec in cfg["operators"]]
        calls = []
        orig = verify.sharp_all_stack
        monkeypatch.setattr(verify, "sharp_all_stack", lambda *args: (
            calls.append(len(args[0]))) or orig(*args))
        reps = cli.run_verify(cfg, basis, ops, suite_filter="bmo")
        assert len(calls) == 1 + len(ops)
        corpus = Corpus(cfg["seed"], cfg["corpus"]["generators"], cfg["corpus"]["size"])
        threshold = cfg["verify"]["thresholds"]["bmo"]
        assert len(reps) == len(ops)
        for op, rep in zip(ops, reps):
            ref = bmo_bounded_by_loop(op, corpus, basis, "bmo", threshold)
            ref.name = f"bmo/{op.name}"
            assert rep == ref


class TestBmoBounded:
    def test_martingale(self, dyadic6, rng):
        eps = rng.integers(0, 2, size=dyadic6.n_balls) * 2 - 1
        T = martingale_transform(dyadic6, eps)
        corpus = Corpus(seed=9, generators=["haar_mixtures", "indicators"],
                        size=6)
        rep = bmo_bounded_reports([T], corpus, dyadic6, threshold=16.0)[0]
        assert rep.passed
        assert rep.summary["max_ratio"] < 16.0

    def test_linf_mode(self, grid16):
        H = discrete_hilbert(grid16)
        corpus = Corpus(seed=9, generators=["delta_combs"], size=6)
        rep = bmo_bounded_reports([H], corpus, grid16, mode="linf",
                                  threshold=64.0)[0]
        assert rep.passed


class TestStrongDomination:
    def test_f_equals_g(self, dyadic6, rng):
        vals = np.abs(rng.normal(size=64)) + 0.1
        f = VecFunction(vals)
        rep = strong_domination_check(f, f, dyadic6, dyadic6.full_ball_id())
        assert rep.passed
        assert rep.summary["rate"] > 0

    def test_constant_f(self, dyadic6):
        f = VecFunction(np.full(64, 2.0))
        g = VecFunction(np.ones(64))
        rep = strong_domination_check(f, g, dyadic6, dyadic6.full_ball_id())
        assert rep.summary["beta_max"] == 0.0

    def test_vanishing_g(self, dyadic6):
        f = VecFunction(np.ones(64))
        g = VecFunction(np.zeros(64))
        with pytest.raises(InfZero):
            strong_domination_check(f, g, dyadic6, dyadic6.full_ball_id())

    @pytest.mark.parametrize("make,dim", [
        (lambda: build_dyadic(6), 1), (lambda: build_grid(16), 1),
        (lambda: _relabelled(build_dyadic(7), seed=5)[0], 1),
        (lambda: build_dyadic(4), 2)], ids=["dyadic6", "grid16", "dyadic7_relabelled",
                                             "dyadic4_vector"])
    def test_alpha_profile_equals_per_alpha_loop(self, make, dim):
        """The 19 beta rows come from one table (sorted windows of the ball
        repeated per alpha, or one subset oracle for a vector f) and equal
        one alpha_oscillation per alpha."""
        basis = make()
        vals = np.random.default_rng(6).normal(size=(basis.n_atoms, dim))
        f = VecFunction(np.where(vals > 1.0, 1.0, vals))  # ties among the values
        g = VecFunction(np.abs(vals[:, 0]) + 0.1)
        for b_id in (basis.full_ball_id(), basis.n_balls // 2):
            rep = strong_domination_check(f, g, basis, b_id)
            assert rep.rows[:19] == alpha_profile_by_alphas(f, g, basis, b_id)
            assert rep.summary["beta_max"] == max(r.value for r in rep.rows[:19])

    def test_one_sorted_window_table(self, monkeypatch, dyadic6, rng):
        """The profile is one 19-row table; the median builds the only other."""
        built = []
        orig = functional._SortedWindows

        class Counting(orig):
            def __init__(self, f, idx, weights):
                built.append(len(idx))
                super().__init__(f, idx, weights)

        monkeypatch.setattr(functional, "_SortedWindows", Counting)
        f = VecFunction(np.abs(rng.normal(size=64)) + 0.1)
        strong_domination_check(f, f, dyadic6, dyadic6.full_ball_id())
        assert sorted(built) == [1, 19]

    def test_vector_tails_in_own_norm(self, dyadic3):
        f = VecFunction(np.random.default_rng(4).normal(size=(8, 3)), "max")
        g = VecFunction(np.full(8, 0.3))
        full = dyadic3.full_ball_id()
        rep = strong_domination_check(f, g, dyadic3, full)
        tails = [r.value for r in rep.rows if r.statistic == "tail_fraction"]
        _, med = median(f, dyadic3.balls[full].members, dyadic3)
        dev = np.abs(f.values - med).max(axis=1)
        assert tails == [float(np.mean(dev > t * 0.3)) for t in range(65)]
        assert tails[3] == 0.75  # 0.875 in the euclidean norm


class TestMuckenhoupt:
    def test_unit_weight(self, dyadic4):
        rep = ap_characteristics(Weight(np.ones(16)), dyadic4, 2.0)
        assert rep.summary["characteristic"] == pytest.approx(1.0)
        assert (rep.summary["kind"], rep.summary["q"]) == ("A_p", None)

    def test_half_weight_hand_value(self, dyadic4):
        w = np.ones(16)
        w[:8] = 0.5
        rep = ap_characteristics(Weight(w), dyadic4, 2.0)
        assert rep.summary["characteristic"] == pytest.approx(1.125)

    def test_preconditions(self, dyadic4):
        with pytest.raises(ConfigError):
            ap_characteristics(Weight(np.ones(16)), dyadic4, 1.0)
        with pytest.raises(ConfigError):
            Weight(np.zeros(16))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_weight_entries_finite_and_positive(self, bad):
        w = np.ones(16)
        w[5] = bad
        with pytest.raises(ConfigError, match="finite and strictly positive"):
            Weight(w)


class TestRoundSig:
    def test_round_trip(self):
        assert round_sig(1.0 / 3.0) == float("%.12g" % (1.0 / 3.0))
        assert round_sig(0.0) == 0.0
