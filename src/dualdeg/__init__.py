"""Duality verification for fixed-point operator representations of
periodic, Dirichlet, delay and nonlocal boundary value problems.

The package discretizes the classical catalog of fixed-point operators for
these problems, computes topological degrees of their finite reductions,
and verifies empirically that dual representations of the same problem
carry the same degree.
"""

from .certify import (CommonCoreReport, DualityReport, FunctionBall,
                      HomotopyCertificate, certify_homotopies,
                      check_common_core, find_fixed_points, verify_duality)
from .degree import (DegreeResult, DomainSpec, box_domain,
                     brouwer_1d, brouwer_2d_winding, brouwer_nd_regular,
                     fixed_point_degree, fourier_block_signs, pullback_domain)
from .flows import VectorFieldSpec, dde_flow, flow, mu_dirichlet, mu_periodic, \
    poincare
from .gridfn import DelayKernel, Grid, GridFunction
from .operators import C1Function, OperatorHandle, build, build_finite
from .problems import ProblemSpec, RunReport, catalog, get_problem, \
    load_problem, run

__version__ = "0.1.0"
