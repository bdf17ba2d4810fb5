"""Tests for the full estimator ladder (GS, MCE, LCE, DCE, DCEr, Holdout,
heuristic) on small Spark graphs, and the paper-shape checks of T3, T7, T8,
T11 and T12 (see DESIGN.md Section 5)."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import reference as R
from repro.core import compat, estimators
from repro.core.estimators import (
    dce,
    dcer,
    gold_standard,
    heuristic_hl,
    holdout,
    lce,
    mce,
    restart_points,
)
from repro.core.gradient import dce_energy, dce_gradient, dce_weights, structure_project
from repro.core.optimize import OptResult
from repro.core.sketch import GraphSketches, build_sketches
from repro.datasets import make_analog
from repro.experiments.harness import prepare
from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
from repro.graphs.generator import planted_graph


@pytest.fixture(scope="module")
def est_graph(spark):
    """A 2000-node heterophilous graph with 10% labels — enough signal for
    every estimator to land close to the planted H."""
    H = compat.skew_H(3, 8.0)
    g = planted_graph(2000, 20_000, [1 / 3] * 3, H, seed=51)
    edges = to_spark_edges(spark, g.edges).persist()
    edges.count()
    seeds_pdf = sample_seeds(g.labels, 0.1, seed=0)
    yield dict(
        g=g, H=H, edges=edges,
        seeds=to_spark_labels(spark, seeds_pdf),
        all_labels=to_spark_labels(spark, g.labels),
        rho_w=R.power_iteration_rho(*g.coo(), g.n),
    )
    edges.unpersist()


@pytest.fixture(scope="module")
def est_sketches(est_graph):
    return build_sketches(est_graph["edges"], est_graph["seeds"], 3, ell_max=5, nb=True)


def _check_valid(H, k=3):
    assert H.shape == (k, k)
    assert compat.is_symmetric(H, tol=1e-6)
    assert compat.is_doubly_stochastic(H, tol=1e-6)


def test_gold_standard_recovers_planted(est_graph):
    gs = gold_standard(est_graph["edges"], est_graph["all_labels"], 3)
    assert np.abs(gs.H - est_graph["H"]).max() < 0.02
    assert gs.method == "gs"


def test_mce_close_to_planted(est_graph, est_sketches):
    est = mce(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches)
    _check_valid(est.H)
    assert compat.l2_distance(est.H, est_graph["H"]) < 0.15


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_mce_variants_produce_valid_H(est_graph, variant):
    est = mce(est_graph["edges"], est_graph["seeds"], 3, variant=variant)
    _check_valid(est.H)
    assert est.method == f"mce_v{variant}"


def test_lce_recovers_pattern(est_graph):
    """LCE (with the jointly fitted LinBP scale; see estimators.lce) recovers
    the compatibility *pattern* — magnitudes are sharpened, which LinBP's own
    eps-rescaling absorbs (the paper's Fig 6f shows LCE ~ MCE in accuracy
    while worse in L2, same as here)."""
    est = lce(est_graph["edges"], est_graph["seeds"], 3)
    _check_valid(est.H)
    assert (est.H.argmax(axis=1) == est_graph["H"].argmax(axis=1)).all()
    assert compat.l2_distance(est.H, est_graph["H"]) < 0.8


def test_lce_statistics_match_numpy(tiny_spark, monkeypatch):
    """LCE's sketches ``A = N^T X`` and ``B = N^T N`` (N = W X) are the
    full-path ``M^(1)`` and ``M^(2)`` it builds, equal to the numpy reference,
    and its H is a minimum of the ratio objective transcribed in numpy."""
    built = []

    def recording_build_sketches(*args, **kwargs):
        built.append(build_sketches(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(estimators, "build_sketches", recording_build_sketches)
    est = lce(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k)
    X = tiny_spark.X_seed
    N1, N2 = R.full_n_frames(tiny_spark.src, tiny_spark.dst, X, 2)
    A, B = N1.T @ X, N1.T @ N1
    (sk,) = built
    assert np.array_equal(sk.M[0], R.m_matrix(X, N1)) and np.array_equal(sk.M[0], A)
    assert np.array_equal(sk.M[1], R.m_matrix(X, N2)) and np.array_equal(sk.M[1], B)

    def ratio(h):
        H = compat.h_to_H(h, tiny_spark.k)
        return -np.sum(A * H) ** 2 / np.trace(H.T @ B @ H)

    h = compat.H_to_h(est.H)
    assert ratio(h) == pytest.approx(est.energy, rel=1e-12)
    for step in np.vstack([np.eye(len(h)), -np.eye(len(h))]) * 1e-3:
        assert ratio(h + step) > est.energy


def _lce_ratio(h, A, B, k):
    """LCE's objective ``-<A, H>^2 / tr(H^T B H)`` and its gradient in h."""
    H = compat.h_to_H(h, k)
    a, b = np.sum(A * H), np.trace(H.T @ B @ H)
    return -a * a / b, structure_project(-(2 * a / b) * A + (2 * a * a / (b * b)) * (B @ H))


def test_lce_is_the_global_minimum():
    """LCE's closed form is the global minimum of its ratio objective: on
    planted graphs with k = 2..6, on one with an unseeded class (B singular)
    and on one with a single seeded class (the linear system singular), its
    H is valid, its energy is the ratio there, no lower than at 200 random
    points, and the gradient vanishes there."""
    rng = np.random.default_rng(0)
    cases = []
    for k in range(2, 7):
        g = planted_graph(600, 3_000, [1 / k] * k, compat.skew_H(k, 4.0), seed=60 + k)
        cases.append((g, sample_seeds(g.labels, 0.1, seed=k)))
    g = planted_graph(600, 3_000, [1 / 4] * 4, compat.skew_H(4, 6.0), seed=53)
    seeds = sample_seeds(g.labels, 0.1, seed=0)
    cases += [(g, seeds[seeds.label != 3]), (g, seeds[seeds.label == 0])]
    for g, seeds in cases:
        k = g.k
        X = R.onehot(list(zip(seeds.node, seeds.label)), g.n, k)
        N1, _ = R.full_n_frames(*g.coo(), X, 2)
        A, B = N1.T @ X, N1.T @ N1
        H, energy = estimators._lce_fit(A, B, k)
        _check_valid(H, k)
        h = compat.H_to_h(H)
        ratio, grad = _lce_ratio(h, A, B, k)
        assert ratio == pytest.approx(energy, rel=1e-9)
        others = compat.uniform_h(k) + rng.normal(0, 1 / k, (200, len(h)))
        assert all(ratio <= _lce_ratio(o, A, B, k)[0] for o in others)
        assert np.linalg.norm(grad) < 1e-9 * np.linalg.norm(A) / np.trace(B)


def test_dce_close_to_planted(est_graph, est_sketches):
    est = dce(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches)
    _check_valid(est.H)
    assert compat.l2_distance(est.H, est_graph["H"]) < 0.1


def test_dcer_at_least_as_good_as_dce(est_graph, est_sketches):
    e1 = dce(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches)
    er = dcer(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches,
              restarts=10, seed=0)
    _check_valid(er.H)
    assert er.energy <= e1.energy + 1e-9
    assert len(er.extra["restart_energies"]) <= 10


def test_mce_is_dce_with_ell_max_1(est_graph, est_sketches):
    """MCE (Eq 12) is the ell_max = 1 case of the DCE energy (Eq 13/14), and
    DCE is DCEr with one restart: each pair gives the same H and energy."""
    args = (est_graph["edges"], est_graph["seeds"], 3)
    pairs = {
        "mce = dce(ell_max=1)": (mce(*args, sketches=est_sketches),
                                 dce(*args, ell_max=1, sketches=est_sketches)),
        "dce = dcer(restarts=1)": (dce(*args, sketches=est_sketches),
                                   dcer(*args, restarts=1, sketches=est_sketches)),
    }
    for name, (a, b) in pairs.items():
        assert np.array_equal(a.H, b.H) and a.energy == b.energy, name


def test_restart_records_align(est_graph, est_sketches):
    """Every step-2 estimator reports each start's energy, gradient norm,
    iteration count and convergence flag; the best start is the reported
    energy, and its gradient norm is that of ``dce_gradient`` at the
    estimate."""
    args = (est_graph["edges"], est_graph["seeds"], 3)
    P = est_sketches.P
    for est, n_starts, ell_max, lam in (
        (mce(*args, sketches=est_sketches), 1, 1, 1.0),
        (dce(*args, sketches=est_sketches), 1, 5, 10.0),
        (dcer(*args, sketches=est_sketches, restarts=10, seed=0), 9, 5, 10.0),
    ):
        energies = est.extra["restart_energies"]
        grad_norm = est.extra["restart_grad_norm"]
        nit = est.extra["restart_nit"]
        converged = est.extra["restart_converged"]
        assert len(energies) == len(grad_norm) == len(nit) == len(converged) == n_starts
        assert min(energies) == est.energy
        at_estimate = dce_gradient(compat.H_to_h(est.H), P[:ell_max], dce_weights(lam, ell_max), 3)
        assert grad_norm[energies.index(est.energy)] == np.linalg.norm(at_estimate)
        assert all(c and 0.0 <= g < 1e-6 for c, g in zip(converged, grad_norm))
        assert all(n >= 1 for n in nit)
        assert all(isinstance(c, bool) for c in converged)


def test_dcer_deterministic(est_graph, est_sketches):
    a = dcer(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches,
             restarts=5, seed=3)
    b = dcer(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches,
             restarts=5, seed=3)
    assert np.allclose(a.H, b.H)


def test_dce_gs_init_reaches_low_energy(est_graph, est_sketches):
    est = dce(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches,
              h0=compat.H_to_h(est_graph["H"]))
    assert compat.l2_distance(est.H, est_graph["H"]) < 0.1


def test_timing_fields_populated(est_graph):
    est = dcer(est_graph["edges"], est_graph["seeds"], 3, restarts=3, seed=0)
    assert est.sketch_time > 0
    assert est.opt_time > 0
    assert est.total_time == pytest.approx(est.sketch_time + est.opt_time)


def test_sparse_labels_dcer_beats_mce(spark):
    """The paper's core claim: with very sparse labels, distant estimation
    beats myopic estimation (which sees almost no labeled neighbor pairs)."""
    H = compat.skew_H(3, 8.0)
    g = planted_graph(5000, 50_000, [1 / 3] * 3, H, seed=52)
    edges = to_spark_edges(spark, g.edges).persist()
    seeds_pdf = sample_seeds(g.labels, 0.004, seed=1)  # ~20 seeds
    seeds = to_spark_labels(spark, seeds_pdf)
    sk = build_sketches(edges, seeds, 3, ell_max=5, nb=True)
    e_mce = mce(edges, seeds, 3, sketches=sk)
    e_dcer = dcer(edges, seeds, 3, sketches=sk, restarts=10, seed=0)
    edges.unpersist()
    d_mce = compat.l2_distance(e_mce.H, H)
    d_dcer = compat.l2_distance(e_dcer.H, H)
    assert d_dcer < d_mce


def test_holdout_baseline_finds_reasonable_H(est_graph):
    est = holdout(est_graph["edges"], est_graph["seeds"], 3,
                  rho_w=est_graph["rho_w"], b=1, prop_iters=4, nm_max_iter=12,
                  seed=0)
    _check_valid(est.H)
    # the recovered accuracy (negative energy) should beat random (1/3)
    assert -est.energy > 0.5
    assert est.extra["n_inference_calls"] > 0


def test_heuristic_hl_pattern():
    gs = np.array([[0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    est = heuristic_hl(gs)
    _check_valid(est.H)
    # high positions must stay the argmax per row
    assert (est.H.argmax(axis=1) == gs.argmax(axis=1)).all()


def test_heuristic_hl_two_values():
    gs = np.array([[0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    est = heuristic_hl(gs)
    vals = np.unique(est.H.round(9))
    assert len(vals) == 2  # exactly High and Low after balancing


def test_estimation_then_propagation_matches_gs_accuracy(est_graph, est_sketches):
    """End-to-end Result 2: labeling with the DCEr estimate is within a few
    points of labeling with the gold standard."""
    from repro.propagation.linbp import accuracy_spark, linbp_propagate, predict_labels

    er = dcer(est_graph["edges"], est_graph["seeds"], 3, sketches=est_sketches,
              restarts=10, seed=0)
    accs = {}
    for name, Hm in [("dcer", er.H), ("gs", est_graph["H"])]:
        bel = linbp_propagate(est_graph["edges"], est_graph["seeds"], Hm,
                              rho_w=est_graph["rho_w"], iters=8)
        accs[name] = accuracy_spark(predict_labels(bel, 3),
                                    est_graph["all_labels"], est_graph["seeds"])
        bel.unpersist()
    assert accs["gs"] > 0.85
    assert abs(accs["dcer"] - accs["gs"]) < 0.05


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_step2_fits_the_variant_normalized_summaries(est_graph, est_sketches, variant):
    """Step 2 normalizes the sketch's ``M`` by the variant it is given
    (Eqs 9-11): MCE, DCE and DCEr on one set of sketches each report the
    energy that ``dce_energy`` gives on ``normalize_m(M, variant)`` at their
    estimate."""
    args = (est_graph["edges"], est_graph["seeds"], 3)
    fits = ((mce(*args, variant=variant, sketches=est_sketches), 1, 1.0),
            (dce(*args, variant=variant, sketches=est_sketches), 5, 10.0),
            (dcer(*args, variant=variant, restarts=2, seed=0, sketches=est_sketches), 5, 10.0))
    for est, ell_max, lam in fits:
        P = [R.normalize_m(M, variant) for M in est_sketches.M[:ell_max]]
        energy = dce_energy(compat.H_to_h(est.H), P, dce_weights(lam, ell_max), 3)
        assert est.energy == pytest.approx(energy, rel=1e-12), est.method


def test_sketches_of_another_variant_are_renormalized(est_graph, est_sketches,
                                                      deep_sketches):
    """Variant-1 sketches give the same variant-3 estimate as sketches whose
    ``P`` holds the variant-3 statistics of the same ``M``."""
    deep_v3 = GraphSketches(k=3, ell_max=8, nb=True, variant=3, M=deep_sketches.M,
                            P=[R.normalize_m(M, 3) for M in deep_sketches.M])
    args = (est_graph["edges"], est_graph["seeds"], 3)
    for est, kw in ((dce, {}), (dcer, dict(restarts=2, seed=0))):
        from_v1 = est(*args, sketches=est_sketches, variant=3, **kw)
        from_v3 = est(*args, sketches=deep_v3, variant=3, **kw)
        assert np.array_equal(from_v1.H, from_v3.H)
        assert from_v1.energy == from_v3.energy


def test_prebuilt_sketches_must_fit_the_estimate(tiny_graph, tiny_seeds):
    """Given sketches are checked, not truncated or reinterpreted: too few
    levels, another k, or full-path summaries raise ``ValueError``."""
    sk3 = _numpy_sketches(tiny_graph, tiny_seeds, ell_max=3)
    dcer(None, None, 3, ell_max=3, sketches=sk3, restarts=2, seed=0)  # fits: no error
    full = GraphSketches(k=3, ell_max=3, nb=False, variant=1, M=sk3.M, P=sk3.P)
    for call in (lambda: dcer(None, None, 3, ell_max=5, sketches=sk3),
                 lambda: dce(None, None, 3, ell_max=4, sketches=sk3),
                 lambda: mce(None, None, 4, sketches=sk3),
                 lambda: dcer(None, None, 3, ell_max=3, sketches=full)):
        with pytest.raises(ValueError, match="non-backtracking sketches"):
            call()


@pytest.fixture(scope="module")
def deep_sketches(est_graph):
    """Eight NB levels."""
    return build_sketches(est_graph["edges"], est_graph["seeds"], 3, ell_max=8, nb=True)


def test_deep_nb_statistics_track_h_power(est_graph, deep_sketches):
    """Fig 5a (T3): the length-8 non-backtracking statistics (variant 1)
    track H^8."""
    P8 = R.normalize_m(deep_sketches.M[7], 1)
    true = np.linalg.matrix_power(est_graph["H"], 8)[0, 1]
    assert abs(P8[0, 1] - true) < 0.2


@pytest.fixture(scope="module")
def lambda_grid(est_graph, est_sketches):
    """DCEr (r = 10) on prebuilt sketches over Fig 6b-d's lambda x ell_max grid."""
    return {
        (lam, em): dcer(est_graph["edges"], est_graph["seeds"], 3, ell_max=em,
                        lam=lam, restarts=10, seed=0, sketches=est_sketches)
        for lam in (0.1, 1.0, 10.0, 100.0) for em in (1, 2, 3, 5)
    }


def test_recommended_lambda_is_competitive(est_graph, lambda_grid):
    """Fig 6b-d (T8): the recommended (lambda = 10, ell_max = 5) is within 0.3
    of the best L2 distance to H over the grid."""
    l2 = {key: compat.l2_distance(est.H, est_graph["H"]) for key, est in lambda_grid.items()}
    assert l2[(10.0, 5)] < min(l2.values()) + 0.3


def test_restarts_are_cheap_on_prebuilt_sketches(est_graph, est_sketches, lambda_grid):
    """Fig 6h (T7): step 2 never touches the graph, so DCEr on prebuilt
    sketches takes seconds at most with r = 1 and with r = 10 restarts."""
    one = dcer(est_graph["edges"], est_graph["seeds"], 3, restarts=1, seed=0,
               sketches=est_sketches)
    assert one.opt_time < 5.0
    assert lambda_grid[(10.0, 5)].opt_time < 5.0  # r = 10 at the default lambda, ell_max


@pytest.fixture(scope="module")
def prop37(spark):
    """The Prop-37 analog (k = 3, d ~ 69) at n = 600, with 5% labels."""
    prep = prepare(spark, make_analog("prop37", seed=0, scale=0.05), 0.05, seed=0)
    yield prep
    prep.unpersist()


@pytest.fixture(scope="module")
def prop37_estimates(prop37):
    args = (prop37.edges, prop37.seeds, prop37.g.k)
    sk = build_sketches(*args, ell_max=5, nb=True)
    return dict(mce=mce(*args, sketches=sk), lce=lce(*args), dce=dce(*args, sketches=sk),
                dcer=dcer(*args, restarts=10, seed=0, sketches=sk))


@pytest.mark.parametrize("method", ["mce", "lce", "dce", "dcer"])
def test_l2_to_gold_standard_on_an_analog(prop37, prop37_estimates, method):
    """Fig 14 (T12): every sketch-based estimator lands within L2 2.0 of GS."""
    assert compat.l2_distance(prop37_estimates[method].H, prop37.gs_H) < 2.0


def test_dcer_labels_the_prop37_analog(prop37, prop37_estimates):
    """Fig 12 (T11): LinBP with the DCEr estimate labels the Prop-37 analog
    within 0.05 of LinBP with the gold standard, and better than the 0.45
    majority-class share. LinBP is the numpy mirror, which the Spark LinBP
    equals (test_linbp_spark)."""
    seeds = prop37.seeds.toPandas()
    seed_pairs = list(zip(seeds.node, seeds.label))

    def accuracy(H):
        F = R.linbp(*prop37.g.coo(), seed_pairs, H, prop37.g.n, rho_w=prop37.rho_w, iters=10)
        return R.accuracy(R.labels_from_beliefs(F), prop37.g.truth(), exclude=set(seeds.node))

    acc_gs = accuracy(prop37.gs_H)
    assert accuracy(prop37_estimates["dcer"].H) > max(0.45, acc_gs - 0.05)


def _numpy_sketches(g, seeds_pdf, ell_max=5):
    """Variant-1 NB sketches of ``g`` built by the numpy reference."""
    X = R.onehot(list(zip(seeds_pdf.node.astype(int), seeds_pdf.label.astype(int))), g.n, g.k)
    M = [R.m_matrix(X, N) for N in R.nb_n_frames(*g.coo(), X, ell_max)]
    return GraphSketches(k=g.k, ell_max=ell_max, nb=True, variant=1, M=M,
                         P=[R.normalize_m(m, 1) for m in M])


@pytest.fixture(scope="module")
def hepth_sketches():
    """The benchmark's sweep-k11 statistics: the Hep-Th analog (k = 11) at
    scale 0.1 with 5% seed labels, data seed 0."""
    g = make_analog("hepth", seed=0, scale=0.1)
    return _numpy_sketches(g, sample_seeds(g.labels, 0.05, seed=0))


def test_dcer_converges_at_k11(hepth_sketches):
    """Step 2 at k = 11 (k* = 55): every restart converges, at an energy below
    the 0.3727780 where gradient descent stopped at its iteration cap."""
    est = dcer(None, None, 11, sketches=hepth_sketches, seed=0)
    assert all(est.extra["restart_converged"]) and est.extra["converged"] is True
    assert est.energy < 0.372777
    _check_valid(est.H, k=11)


def test_dcer_with_an_unseeded_class():
    """A class with no seed labels has all-zero rows in M, so its rows of P
    are uniform; step 2 still converges on every restart to a valid H."""
    g = planted_graph(2000, 20_000, [1 / 4] * 4, compat.skew_H(4, 6.0), seed=53)
    seeds = sample_seeds(g.labels, 0.1, seed=0)
    sk = _numpy_sketches(g, seeds[seeds.label != 3])
    assert all(np.allclose(P[3], 0.25) for P in sk.P)
    est = dcer(None, None, 4, sketches=sk, seed=0)
    assert all(est.extra["restart_converged"])
    _check_valid(est.H, k=4)


def test_one_seed_per_class(spark, est_graph):
    """f -> 0: at f = 1e-4, the paper's lowest label fraction, the 2,000-node
    graph gets one seed per class. The Spark sketch still equals numpy, DCEr
    still returns a valid H and records whether step 2 converged, and LinBP
    with that H matches the numpy beliefs. No seed has a seeded neighbour, so
    LCE's ``A = M^(1)`` is 0, every H is optimal, and LCE returns J/k."""
    from repro.linops.ops import to_numpy_frame
    from repro.propagation.linbp import linbp_propagate

    g, edges = est_graph["g"], est_graph["edges"]
    seeds_pdf = sample_seeds(g.labels, 1e-4, seed=0)
    assert sorted(seeds_pdf.label) == [0, 1, 2]
    seeds = to_spark_labels(spark, seeds_pdf)
    pairs = dict(zip(seeds_pdf.node, seeds_pdf.label))
    src, dst = g.coo()
    X = R.onehot(pairs, g.n, 3)
    sk = build_sketches(edges, seeds, 3, ell_max=5)
    for ell, N in enumerate(R.nb_n_frames(src, dst, X, 5)):
        assert np.allclose(sk.M[ell], R.m_matrix(X, N), rtol=0, atol=1e-9), f"l={ell + 1}"
    est = dcer(edges, seeds, 3, sketches=sk, seed=0)
    _check_valid(est.H)
    assert isinstance(est.extra["converged"], bool)
    flat = lce(edges, seeds, 3)
    assert np.array_equal(flat.H, np.full((3, 3), 1 / 3)) and flat.energy == 0.0
    assert flat.extra == {"converged": True}
    bel = linbp_propagate(edges, seeds, est.H, rho_w=est_graph["rho_w"])
    got = to_numpy_frame(bel, g.n, 3)
    bel.unpersist()
    ref = R.linbp(src, dst, pairs, est.H, g.n, rho_w=est_graph["rho_w"])
    assert np.allclose(got, ref, atol=1e-9)


def test_unconverged_step2_warns(monkeypatch, hepth_sketches):
    """An estimate whose optimization stopped at the iteration cap says so:
    a RuntimeWarning, and ``extra["converged"]`` is False. DCEr solves by
    ``gradient_descent`` (Levenberg-Marquardt)."""
    def capped(fun, grad, x0):
        return OptResult(x0, fun(x0), 2000, False)

    monkeypatch.setattr(estimators, "gradient_descent", capped)
    with pytest.warns(RuntimeWarning, match="without converging"):
        est = dcer(None, None, 11, sketches=hepth_sketches, restarts=3, seed=0)
    assert est.extra["converged"] is False


def test_pipebench_hook_targets_resolve(spark, hepth_sketches):
    """The benchmark's tracing hooks (pipebench/tracing.py) patch estimator,
    sketch and LinBP names: each must exist and be looked up at call time, and
    ``dcer`` makes one solver call per start plus one for the MCE warm start."""
    path = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.Hooks(spark.sparkContext, trace=True)
    hooks.install()
    try:
        for module, name, original in hooks._saved:
            assert callable(original) and getattr(module, name) is not original, name
        dcer(None, None, 11, sketches=hepth_sketches, restarts=3, seed=0)
        assert hooks.counts["opt.restarts"] == len(restart_points(11, 3, seed=0)) + 1
        assert hooks.counts["opt.energy_calls"] > 0 and hooks.counts["opt.grad_calls"] > 0
    finally:
        hooks.uninstall()
