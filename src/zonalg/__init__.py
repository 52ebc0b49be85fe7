"""Plane Minkowski algebra of centrally symmetric convex bodies.

Bodies are finite sums of centered segments plus an exact disc; the lifted
space of formal differences carries a quadratic extension of area, a
generalized isoperimetric inequality, and an inner product whose
reproducing kernel on [0, pi] is K(phi, psi) = 2 - (pi/2) sin|phi - psi|.
"""

from .bodies import (
    ORIGIN,
    UNIT_DISC,
    UNIT_SQUARE,
    Body,
    Point,
    area,
    atom_form,
    body,
    canonicalize,
    disc,
    hausdorff,
    minkowski_add,
    mixed_area,
    perimeter,
    rotate,
    scale,
    segment,
    support,
    vertices,
    width,
)
from .inequalities import (
    CheckReport,
    ReductionStep,
    ReductionTrace,
    check_bm_classical,
    check_bm_generalized,
    check_isoperimetric,
    check_schwarz_deficit,
    equality_case_check,
    hyperbolic_witness,
    reduce_pair,
    rotation_fn_E,
    rotation_fn_F,
    singular_min,
)
from .lifted import (
    LiftedVector,
    add,
    bilinear_M,
    deficit,
    eps_form,
    equivalent,
    from_body,
    inner,
    inner_raw,
    lift,
    measure_ext,
    neg,
    norm,
    norm_bp,
    norm_c,
    perimeter_ext,
    scale_real,
)
from .rkhs import (
    GramMatrix,
    WidthFunction,
    evaluate,
    gram,
    interpolate,
    kernel,
    kernel_vector,
    psd_min_eig,
    sample,
)

__version__ = "0.1.0"
