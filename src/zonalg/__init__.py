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
    ReductionStep,
    ReductionTrace,
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
    from_body,
    hyperbolic_witness,
    inner,
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
    evaluate,
    gram,
    grid_eigenvalues,
    interpolate,
    kernel,
    kernel_vector,
    sample,
)

__version__ = "0.1.0"
