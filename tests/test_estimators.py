"""Tests for the full estimator ladder (GS, MCE, LCE, DCE, DCEr, Holdout,
heuristic) on small Spark graphs."""
from __future__ import annotations

import numpy as np
import pytest

from repro import reference as R
from repro.core import compat
from repro.core.estimators import (
    dce,
    dcer,
    gold_standard,
    heuristic_hl,
    holdout,
    lce,
    mce,
)
from repro.core.sketch import build_sketches
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
    return build_sketches(est_graph["edges"], est_graph["seeds"], 3,
                          ell_max=5, nb=True, variant=1)


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
    """MCE (Eq 12) is the ell_max = 1 case of the DCE energy (Eq 13/14)."""
    args = (est_graph["edges"], est_graph["seeds"], 3)
    m = mce(*args, sketches=est_sketches)
    d = dce(*args, ell_max=1, sketches=est_sketches)
    assert np.abs(m.H - d.H).max() <= 1e-12


def test_restart_records_align(est_graph, est_sketches):
    """Every step-2 estimator reports each start's energy, iteration count and
    convergence flag; the best start is the reported energy."""
    args = (est_graph["edges"], est_graph["seeds"], 3)
    for est, n_starts in (
        (mce(*args, sketches=est_sketches), 1),
        (dce(*args, sketches=est_sketches), 1),
        (dcer(*args, sketches=est_sketches, restarts=10, seed=0), 9),
    ):
        energies = est.extra["restart_energies"]
        nit = est.extra["restart_nit"]
        converged = est.extra["restart_converged"]
        assert len(energies) == len(nit) == len(converged) == n_starts
        assert min(energies) == est.energy
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
