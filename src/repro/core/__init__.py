"""The paper's primary contribution: compatibility estimation.

Submodules:

* ``compat``     — parameterization of symmetric doubly-stochastic matrices
                   (Eq 6 as one affine map), skew-``h`` matrices, distances.
* ``sketch``     — factorized path summation (Algorithm 4.4) over Spark
                   DataFrames: the graph summaries ``M^(l)``, ``P^(l)``.
* ``gradient``   — DCE energy (Eq 13/14; MCE is ell_max = 1), its weights and
                   its explicit gradient (Prop 4.7).
* ``optimize``   — from-scratch optimizers (Levenberg-Marquardt, one call per
                   start of the estimators' restart loop; Nelder-Mead for the
                   gradient-free Holdout baseline).
* ``estimators`` — MCE / LCE / DCE / DCEr / Holdout / heuristic / gold standard;
                   all but Holdout read the graph only through ``sketch``;
                   MCE, DCE and DCEr fit through one restart loop, and LCE is
                   one linear solve.
"""
