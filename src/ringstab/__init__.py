"""Symmetry-adapted stability analysis of rotating ring systems.

Point-mass relative equilibria (homogeneous potentials) and point-vortex
relative equilibria built from concentric regular and semiregular polygons
share a dihedral symmetry; this package block-diagonalizes their
linearizations along the isotypic decomposition of displacement space and
factors the characteristic polynomial accordingly.
"""

from .config import ConfigError, JobConfig, parse_config, parse_config_text
from .dynamics import (Potential, ReleqSolution, StabilityOperator, apply_j,
                       equivariance_residual, gradient, hessian, hessian_fd,
                       hessian_fd_residual, homogeneous, newtonian,
                       releq_residual, solve_releq, stability_operator,
                       translation_kernel_residual, vortex)
from .geometry import RingSpec, RingSystem, build, center, regular, ring_positions, semiregular
from .stability import (BlockReport, FactorizationReport, PolyFactor,
                        classical_checks, dense_oracle, factorize)
from .svg import emit_svg, render_svg
from .symbasis import (SymBasis, assemble_global_basis, gram_residual,
                       multiplicities, symmetry_certificate, translation_field)

__version__ = "0.1.0"
