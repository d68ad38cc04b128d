"""Right quaternionic Hilbert-space operator toolkit.

Quaternion scalars and their complex 2x2 representation, finite right
modules with basis-dependent left scalar multiplications, dense right-linear
operators with adjoints and spherical spectra, and deficiency indices of
symmetric banded operators -- every identity backed by a complex-embedding
brute-force oracle.
"""

from . import errors
from .quat import (ATOL, I, J, K, ONE, Quaternion, embed2x2, format_quaternion,
                   from_embed2x2, parse_quaternion, qconj, qmatmul, qmul,
                   qnormsq, random_quaternion, random_unit_imaginary)
from .rmodule import (Basis, QVector, delta_map, expand, gram_schmidt, inner,
                      left_scale, random_basis, random_qvector,
                      random_real_rotation_basis, reconstruct,
                      basis_from_literals, vector_from_literals)
from .qoperator import (CriteriaReport, QOperator, SymmetryReport,
                        criteria_report, hermitian_random, left_scalar,
                        norm_identity_check, random_operator, real_symmetric,
                        resolvent_poly, scalar_op, shift_left_scalar,
                        symmetry_predicates)
from .embed import (chi, eigenvalues_c, kernel_q, rank_q, structure_map, unvec,
                    vec)
from .spectrum import (EigenSphere, RealityVerdict, SpectrumReport,
                       point_sspectrum, resolvent_bound_check,
                       resolvent_inverse_norm, selfadjoint_iff_real)
from .deficiency import (BandedOperator, DeficiencyReport, FormalSolution,
                         SummabilityVerdict, basis_invariance_check,
                         classify_l2, classify_solution, deficiency_indices,
                         formal_solutions, free_jacobi, from_config,
                         index_stability_scan, jacobi_sq, number_operator,
                         recurrence_residual,
                         truncated_kernel, von_neumann_evidence, PRESETS)

__version__ = "0.1.0"
