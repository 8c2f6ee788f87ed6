"""Measurement-space maps of quantum states.

Given a set of generalized measurements, every pure state has an image whose
amplitudes are the square roots of the outcome probabilities, one orthonormal
axis per outcome. The package computes that map, compares entanglement on
both sides of it, audits the local protocol constructions behind it, checks
the concurrence factorization relations for qubit channels, and evaluates
the counting bounds for mode entanglement.
"""

from .entanglement import (
    EntanglementReport,
    concurrence_mixed,
    concurrence_pure,
    measurement_space_entanglement,
    pure_entanglement,
    pure_entanglements,
)
from .linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    bell_phi_plus,
    eig_hermitian,
    fourier_matrix,
    haar_blocks,
    haar_state,
    haar_unitaries,
    haar_vectors,
    is_hermitian,
    tensor,
)
from .locc import (
    Channel,
    FourierStep,
    LoccTrace,
    PartyMove,
    fourier_step,
    konrad_check,
    random_konrad_trials,
    run_locc_construction,
)
from .measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    MeasurementSpaceState,
    local_images,
    map_to_measurement_space,
    noisy_operators,
    noisy_pair,
    random_measurement_set,
    z_projectors,
)
from .modes import (
    ModeSystem,
    composition_count,
    divisor_infima,
    useful_entanglement_bounds,
)
from .protocols import (
    OutcomeTable,
    ProtocolSpec,
    outcome_tables,
    random_protocol_batches,
    random_protocols,
    single_protocol,
    success_rates_mspace,
    success_rates_original,
)

__version__ = "0.1.0"
