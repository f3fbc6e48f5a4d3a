"""Simulation and verification toolkit for multiparty energy-time
entanglement experiments: interferometric Mermin tests on GHZ / n-level
entangled states, exhaustive local-hidden-variable searches under different
postselection rules, beam-splitter network algebra, and a pulsed-source
coincidence model.
"""

import os
import sys

# The package's dense products are small, where OpenBLAS worker threads
# cost more than they save: they spin on start-up and must be woken for
# each call, which makes CLI runs slower and their timing erratic on a
# shared machine. Use one BLAS thread unless the caller chose a count;
# this takes effect only if numpy has not been imported yet.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .events import EventRecord, EventTable, all_equal, mermin_estimate
from .lhv import (
    FixedBinInstruction,
    LocalInstruction,
    PostselectedCorrelations,
    StrategyEnsemble,
    evaluate_postselected,
    event_stream,
    max_mu_setting_dependent,
    max_mu_setting_independent,
    mermin_classical_bound,
    saturating_model,
    scaled_model,
)
from .numerics import DEFAULT_TOL, StateVector, is_unitary, matmul, tensor
from .optics import (
    InterferometerNetwork,
    OpticalElement,
    beam_splitter,
    bs_unitary,
    compose,
    dft_unitary,
    generation_cascade,
    measurement_basis,
    phase_shifter,
    qutrit_analyzer,
    reck_decompose,
)
from .source import (
    coincidence_filter,
    four_photon_state,
    locality_audit,
    source_event_stream,
)
from .states import (
    MerminResult,
    MultiPartyState,
    correlators,
    expectation,
    ghz_state,
    mermin3,
    mermin_n,
    prepare_postselected,
    qunit_state,
    standard_settings,
)

__version__ = "0.1.0"
