"""Entanglement-breaking analysis of qubit channels.

A qubit channel, given as its affine action r -> n + M r on Bloch
vectors, is entanglement-breaking (EB) exactly when the partial
transpose of its Choi state is positive semidefinite.  This package
provides that numeric oracle, closed-form criteria for the unital,
rank-deficient and single-axis-translation cases, time-resolved analysis
of three Markovian channel families, and amendment experiments (local
unitary interleaving and an abstract global map on two-qubit states).
"""

from .amend import (
    AmendmentReport,
    BuiltinExampleReport,
    GlobalAmendmentResult,
    UnitarySample,
    builtin_global_amendment_map,
    global_amendment_example,
    interleave,
    local_amendment_search,
    run_builtin_global_example,
)
from .basis import (
    OperatorBasis,
    bloch_from_state,
    coherence_from_state,
    gell_mann_basis,
    pauli_basis,
    state_from_bloch,
    state_from_coherence,
)
from .channel import (
    CanonicalDecomposition,
    CPTPReport,
    QubitChannelAffine,
    QuditAffineMap,
    apply_channel,
    apply_qudit_map,
    canonical_form,
    choi,
    choi_partial_transpose,
    compose,
    depolarizing_channel,
    diagonal_channel,
    identity_channel,
    identity_qudit_map,
    seb_example_channel,
    singlet_state,
    unitary_channel,
    validate_cptp,
)
from .ebtest import (
    Analysis,
    EBMethod,
    EBVerdict,
    SEBClass,
    analyze,
    classify_seb,
    closed_form_verdict,
    is_eb_numeric,
    lambda1_zero_spectrum,
    pt_margin,
    unital_eb_condition,
    unital_eb_condition_minmax,
    unital_spectra,
    uniaxial_eb_condition,
    uniaxial_spectra,
    uniaxial_verdict,
)
from .linalg import hermitian_eigenvalues, kron, partial_transpose, svd3
from .markov import (
    Decoherence,
    Depolarization,
    DynamicalFamily,
    Homogenization,
    HomogenizationF,
    TimeScan,
    channel_at,
    eb_onset,
    homogenization_eb_condition,
    homogenization_f,
    scan,
    scan_to_csv,
    scan_to_dict,
)

__version__ = "0.1.0"
