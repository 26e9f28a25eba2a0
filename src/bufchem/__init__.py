"""Equilibrium, stability, and design analysis for buffered chemostats.

A buffered chemostat splits one vessel into a main tank and a small
side tank fed from the same inlet; the side tank destabilizes the
washout state and, below a computable volume-split threshold, makes
the positive equilibrium unique and globally attracting.  This package
computes break-even concentrations, classifies phase portraits,
enumerates equilibria of the two-tank model with their eigenvalues,
locates the uniqueness threshold, integrates trajectories, and sizes
the side tank against whole-vessel enlargement.
"""
from .buffered import (
    InfeasibleBufferError,
    BRANCH_POSITIVE,
    BRANCH_WASHOUT,
    BufferedConfig,
    ConsistencyError,
    Equilibrium,
    IntervalSet,
    buffer_substrate,
    equilibrium_split,
    find_equilibria,
    growth_deficit,
    pivot_level,
    required_growth_ratio,
    surplus_region,
)
from .config import ConfigError, RunConfig, parse_config
from .design import (
    DesignReport,
    buffer_design,
    design_sweep,
    min_enlargement_ratio,
    uptake_capacity,
    washout_surplus,
)
from .kinetics import (
    BreakEvenInterval,
    CustomUnimodal,
    GrowthModel,
    Haldane,
    Monod,
    Peak,
)
from .multiplicity import (
    DomainCurve,
    MultiplicityReport,
    NoTangency,
    classify_case,
    split_threshold,
    split_threshold_crosscheck,
    stable_domain_curve,
)
from .simulate import (
    IntegratorSettings,
    StiffnessError,
    Trajectory,
    basin_probe,
    detect_convergence,
    integrate,
)
from .single import (
    BISTABLE,
    DegenerateBoundary,
    PERSISTENT,
    Parallel,
    Portrait,
    Serial,
    SingleParams,
    WASHOUT_ONLY,
    classify_portrait,
    washout_audit,
)
from .stability import (
    EigenReport,
    jacobian,
    numeric_eigenvalues,
    positive_eigenvalues,
    washout_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "InfeasibleBufferError",
    "BISTABLE",
    "BRANCH_POSITIVE",
    "BRANCH_WASHOUT",
    "BreakEvenInterval",
    "BufferedConfig",
    "ConfigError",
    "ConsistencyError",
    "CustomUnimodal",
    "DegenerateBoundary",
    "DesignReport",
    "DomainCurve",
    "EigenReport",
    "Equilibrium",
    "GrowthModel",
    "Haldane",
    "IntegratorSettings",
    "IntervalSet",
    "Monod",
    "MultiplicityReport",
    "NoTangency",
    "PERSISTENT",
    "Parallel",
    "Peak",
    "Portrait",
    "RunConfig",
    "Serial",
    "SingleParams",
    "StiffnessError",
    "Trajectory",
    "WASHOUT_ONLY",
    "basin_probe",
    "buffer_design",
    "buffer_substrate",
    "classify_case",
    "classify_portrait",
    "design_sweep",
    "detect_convergence",
    "equilibrium_split",
    "find_equilibria",
    "growth_deficit",
    "integrate",
    "jacobian",
    "min_enlargement_ratio",
    "numeric_eigenvalues",
    "parse_config",
    "pivot_level",
    "positive_eigenvalues",
    "required_growth_ratio",
    "split_threshold",
    "split_threshold_crosscheck",
    "stable_domain_curve",
    "surplus_region",
    "uptake_capacity",
    "washout_audit",
    "washout_eigenvalues",
    "washout_surplus",
    "__version__",
]
