"""Multi-wave two-phase validation sampling toolkit.

Submodules
----------
records     the dyad table, the multi-wave design ledger, pi = n_s / N_s
fpca        sparse functional PCA (spline mixed-effects fit, PACE scores)
            and exposure derivation
models      weighted Cox / logistic fits with influence, and the working-model spec
allocation  per-stratum influence SDs, the wave rule, and the stratified draw
raking      IPW and generalized-raking estimation
multiframe  Hansen-Hurwitz combination of two sampling frames
imputation  parametric imputation and multiply-imputed influence
simulate    synthetic populations and the experiment harness
fileio      CSV/JSON schemas for every artifact, and the SHA-256-keyed parsed
            copy (``<name>.parsed``) beside each dyads and influence file
cli         the ``twophase`` command-line entry point
kernels     the numpy Breslow partial-likelihood pass, and the local-linear
            smoothers under ``smoothing``
smoothing   local-linear smoothing.  No package module imports it; it and
            ``kernels.local_linear_*`` stay only for the benchmark's frozen
            trace table, until the benchmark stops tracing them
errors      the typed errors, one CLI exit code per class
forking     forked worker processes, for the FPCA E-step and a replicate's
            ten estimates

The design core is array functions in ``allocation``, ``records`` and
``multiframe``.  The experiment harness (``simulate``) and the CLI are I/O
around it: the harness feeds it population arrays, the CLI the columns of
a ``records.DyadTable`` read from ``dyads.csv`` and ledgers mapped onto
its rows.
"""

__version__ = "0.1.0"

# The kernels are numpy only; the benchmark records this in its environment stamp.
KERNEL_BACKEND = "python"
