"""Steady-state EIT spectra and parameter fits for laser-driven multi-level
defect ensembles with strong inhomogeneous broadening."""

from .model import (
    Coupling,
    DecayChannel,
    Dephasing,
    DetuningPoint,
    DriveField,
    Level,
    LevelSystemSpec,
    NoConsistentFrame,
    ValidationReport,
    assemble_hamiltonian,
    assign_rotating_frame,
    validate_system,
)
from .lindblad import (
    DegenerateSteadyState,
    Liouvillian,
    build_liouvillian,
    check_density_matrix,
    evolve,
    liouvillian_for,
    steady_state,
)
from .spectra import (
    InhomogeneitySpec,
    MagnetoMap,
    NonConvergedSampling,
    SpectrumTrace,
    ThresholdReport,
    default_delta_grid,
    dip_metrics,
    eit_threshold,
    feature_centroid,
    homogeneous_spectrum,
    inhomogeneous_spectrum,
    local_minima,
    magneto_map,
    power_from_rabi,
    probe_absorption,
    rabi_from_power,
)
from .spin import (
    NoSignChange,
    SpinModel,
    TransitionSet,
    delta_k,
    find_overlap_angle,
    level_structure,
    spin_hamiltonian,
)
from .fitting import (
    FitProblem,
    FitResult,
    FreeParameter,
    ObservedTrace,
    apply_parameter,
    fit,
    identifiability_report,
)
from .modelio import (
    ModelFormatError,
    config_hash,
    load_model,
    read_trace_csv,
    save_model,
    spec_from_dict,
    spec_to_dict,
    spin_from_dict,
    write_map_csv,
    write_trace_csv,
)
from . import presets

__version__ = "0.1.0"
