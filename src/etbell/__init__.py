"""Simulation and verification toolkit for multiparty energy-time
entanglement experiments: interferometric Mermin tests on GHZ / n-level
entangled states, exhaustive local-hidden-variable searches under different
postselection rules, beam-splitter network algebra, and a pulsed-source
coincidence model.
"""

import importlib.machinery
import importlib.util
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

__version__ = "0.1.0"

# The public names, by defining module. Each module is bound here lazily:
# ``import etbell`` executes none of them, and a module's code runs on the
# first access to one of its attributes, so a command pays only for the
# modules it uses.
_EXPORTS = {
    "events": "EventTable all_equal mermin_estimate",
    "lhv": "PostselectedCorrelations StrategyEnsemble "
    "evaluate_postselected event_stream max_mu_setting_dependent max_mu_setting_independent "
    "saturating_model scaled_model",
    "mermin": "mermin_classical_bound",
    "numerics": "DEFAULT_TOL is_unitary",
    "optics": "InterferometerNetwork OpticalElement beam_splitter compose dft_unitary "
    "generation_cascade phase_shifter qutrit_analyzer reck_decompose",
    "source": "four_photon_state locality_audit source_event_stream",
    "states": "MerminResult MultiPartyState correlators expectation ghz_state mermin3 mermin_n "
    "postselect_coincident prepare_postselected qunit_state standard_settings",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

for _module in _EXPORTS:
    _spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{_module}", __path__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
