"""Schur-Szego composition, Narayana polynomials, and certified root analysis.

`roots_float`, `is_hyperbolic` and `interlace_check` are library API for any
polynomial over Q, beyond the Narayana family the commands check: no
`verify-all` check calls the first, and the `roots` command calls the other
two on N_n only. So are `poly_gcd`, the monic gcd over Q, which
`roots --interlace` calls only after a verdict other than strict
interlacing, and `factor_symmetric_functions`, the paper's own construction
(the elementary symmetric functions of a polynomial's composition factors),
which no command calls.
"""

from .exactpoly import (
    RationalMatrix,
    RationalPoly,
    binomial,
    interpolate,
    kernel,
    solve_linear,
)
# roots, the largest module, is imported before css, narayana and spectra: without a
# bytecode cache its compilation sets the peak memory of the import, which is lower
# while fewer modules are resident
from .roots import (
    RootIsolation,
    interlace_check,
    is_hyperbolic,
    isolate_roots,
    poly_gcd,
    refine,
    roots_float,
)
from .css import (
    AffineMapQ,
    build_phi,
    css_compose,
    css_compose_multi,
    factor_symmetric_functions,
)
from .narayana import (
    catalan,
    dyck_peak_count,
    narayana_number,
    narayana_poly_direct,
    narayana_poly_recurrence,
    triangle_matrix,
)
from .spectra import (
    ExpansionEstimate,
    SpectrumReport,
    eigenpolynomial,
    eigenvalues_closed_form,
    m_transform,
    richardson_limit,
    sigma_system_solve,
    spectrum_report,
    verify_mjnj,
)
from .asymptotics import (
    RecurrenceSpec,
    StepCDF,
    cdf_kappa,
    characteristic_roots,
    density_rho,
    empirical_cdf,
    equimodular_check,
    ks_distance,
    plemelj_density,
    poincare_ratio,
    psi_n,
    theta_limit,
    theta_n,
)

__version__ = "0.1.0"
