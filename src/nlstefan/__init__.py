"""Lattice laboratory for a regularized nonlocal two-phase free boundary flow.

The package solves implicit time steps of ``d/dt (u + beta_eps(u)) + L u = 0``
where ``L`` is a singular nonlocal operator of fractional p-Laplacian type,
and ships the measurement tools used to study the solutions: oscillation
ladders on intrinsically scaled cylinders, nonlocal tail functionals, energy
audits, and the small algebraic lemmas that drive the regularity iteration.
"""

from .analysis import (Cylinder, GeometricDecayReport, IterationParams,
                       IterVerdict, LevelTailRecord, MeasureDensityReport,
                       ModulusReport, SequenceLevel, boundary_sequences,
                       fit_log_modulus, geometric_convergence,
                       initial_sequences, interior_sequences, intrinsic_theta,
                       lemma_iter_epsilon, lemma_iter_verify,
                       level_set_fraction, measure_density, modulus_ladder,
                       oscillation, oscillation_scale, sequence_tail_report)
from .continuation import (ConvergenceReport, FamilyEntry, FamilyResult,
                           LimitPair, convergence_report, limit_pair,
                           run_family)
from .config import (CATALOG, Preset, RunConfig, emit_run_config, load_preset,
                     parse_run_config, realize)
from .enthalpy import RegularizedEnthalpy, beta_graph, normalization_constant
from .errors import (DegenerateCutoffError, EmptyCylinderError,
                     EmptyWindowError, InconsistentFamilyError,
                     InsufficientSamplesError, InvalidExponentError,
                     InvalidParamsError, NewtonDivergenceError, NlstefanError,
                     NonpositiveExcessError, SchemaViolationError,
                     UnresolvedBandError)
from .lattice import Grid, OperatorWorkspace, check_exponents, phi_p, tail
from .solver import (CaccioppoliReport, LatticeProblem, MaxPrincipleReport, SolverConfig,
                     StepDiagnostics, Trajectory, caccioppoli_audit, energy_history,
                     max_principle_check, normalize, solve, space_time_bump,
                     structural_audit, weak_residual)

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "CaccioppoliReport", "ConvergenceReport", "Cylinder",
    "DegenerateCutoffError", "EmptyCylinderError", "EmptyWindowError",
    "FamilyEntry", "FamilyResult",
    "GeometricDecayReport", "Grid", "InconsistentFamilyError",
    "InsufficientSamplesError", "InvalidExponentError", "InvalidParamsError",
    "IterVerdict", "IterationParams",
    "LatticeProblem", "LevelTailRecord", "LimitPair", "MaxPrincipleReport",
    "MeasureDensityReport", "ModulusReport",
    "NewtonDivergenceError", "NlstefanError", "NonpositiveExcessError",
    "OperatorWorkspace", "Preset", "RegularizedEnthalpy",
    "RunConfig", "SchemaViolationError", "SequenceLevel", "SolverConfig",
    "StepDiagnostics", "Trajectory", "UnresolvedBandError",
    "beta_graph", "boundary_sequences", "caccioppoli_audit",
    "check_exponents", "convergence_report", "emit_run_config",
    "energy_history", "fit_log_modulus", "geometric_convergence",
    "initial_sequences", "interior_sequences",
    "intrinsic_theta", "lemma_iter_epsilon",
    "lemma_iter_verify", "level_set_fraction", "limit_pair", "load_preset",
    "max_principle_check", "measure_density", "modulus_ladder",
    "normalization_constant", "normalize", "oscillation", "oscillation_scale",
    "parse_run_config", "phi_p", "realize", "run_family",
    "sequence_tail_report", "solve", "space_time_bump", "structural_audit",
    "tail", "weak_residual",
]
