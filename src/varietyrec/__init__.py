"""Minimal-measurement certification and recovery for signals on
algebraic varieties: dimension formulas and sample-count bounds,
injectivity certification with constructive refutations, and recovery
solvers for sparse, low-rank, and quadratic (phase) sampling."""

from .varieties import (VarietySpec, dim_sparse, dim_low_rank,
                        dim_complex_symmetric, difference_closure, project,
                        membership, equivalence_distance)
from .sampling import (MeasurementEnsemble, SampleVector, apply,
                       lift_rank_one, lift_ensemble, tau, tau_inverse,
                       gen_gaussian_vectors, gen_gaussian_matrices,
                       gen_symmetric_rank, gen_hermitian_rank, derived_rng,
                       ensemble_to_json, ensemble_from_json, save_ensemble,
                       load_ensemble, samples_to_json, samples_from_json,
                       save_samples, load_samples)
from .injectivity import (SearchConfig, Witness, SearchResult,
                          InjectivityVerdict, MinorSystemResult, ProbeResult,
                          certify, witness_search, witness_to_collision,
                          collision_residual, collision_is_distinct,
                          complement_property, minor_residual,
                          verify_kernel_minor_system, admissibility_probe,
                          symmetric_sampler, dense_sampler,
                          CERTIFIED_EXACT, NO_WITNESS_FOUND,
                          REFUTED_WITH_WITNESS, INCONCLUSIVE,
                          VANISHES_ON_ALL_SAMPLES, NON_DEGENERATE)
from .bounds import (BoundsReport, alpha, codim_bad_set, sparse_minimal,
                     lowrank_minimal, real_pr_bounds, complex_pr_bounds,
                     standard_pr_facts, generic_report)
from .recovery import (RecoverConfig, RecoveryOutcome, recover_sparse,
                       recover_low_rank, recover_phase, phase_transition_sweep)
from .refdata import (BUILTIN_11_MATRICES, builtin11_ensemble, corner_skew,
                      data_digest, EXPECTED_DIGEST)

__version__ = "0.1.0"
