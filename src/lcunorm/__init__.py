"""LCU 1-norm estimation for molecular electronic-structure Hamiltonians.

Importing the package loads numpy alone.  scipy is imported inside the
functions that call it, on first use: dE/2's Lanczos, the BFGS searches
(orbital optimization, greedy CSA, the interaction-picture split) and
CSA's DF start.
"""

from .errors import NumericalError, ParseError
from .fragments import (
    Fragment,
    csa_greedy,
    double_factorize,
    fragment_tensor,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    make_rotation,
    reflection_term_count,
    rotate_tensors,
    theta_dim,
)
from .grouping import AcGroup, AcPartition, sorted_insertion
from .optimize import minimize, oo_pauli
from .pauli import PauliPolynomial, jordan_wigner, lambda_pauli_closed_form
from .picture import PictureSplit, split_interaction
from .pipeline import METHOD_ORDER, NormReport, emit_table, run_pipeline
from .spectra import SpectralRange, minimal_lcu, spectral_range
from .symshift import (
    SymmetryShift,
    apply_shift,
    optimize_shift,
    shift_one_body,
    shift_two_body,
    weighted_median,
)
from .tensors import (
    FIXTURE_NAMES,
    FcidumpRecord,
    SpatialTensors,
    fixture_path,
    load_fcidump,
    load_fixture,
    one_body_adjust,
    parse_fcidump,
    to_chemist,
    write_fcidump,
)

__version__ = "0.1.0"
