"""Exact calculus of decorated stable graphs over rational-tails curves."""

__version__ = "0.1.0"

from .trees import (  # noqa: F401
    H0,
    Decoration,
    InvalidArgument,
    Tree,
    build_tree,
    capacity,
    enumerate_decorations,
    enumerate_rt_graphs,
    enumerate_stable_trees,
    enumerate_trees0,
    make_decoration,
)
from .weights import coeff_c, coeff_c_im, coeff_d, coefficient, enumerate_weightings  # noqa: F401
from .strata0 import (  # noqa: F401
    Class0,
    collide,
    glue_push_gamma,
    glue_push_sigma0,
    integrate,
    is_zero,
    pair,
    product_with_stratum,
    pullback_forget,
    push_tree,
    pushforward_forget,
)
from .cycles import (  # noqa: F401
    DecPolynomial,
    VerificationReport,
    dec_polynomial,
    e_cycle,
    verify_closed_forms,
    verify_collide0,
    verify_decrec,
    verify_dect,
    verify_ei_pushforward,
    verify_recursion_a,
    verify_recursion_all,
    verify_vanishing,
    z_cycle,
    z_truncated,
)
from .rtclasses import (  # noqa: F401
    RtClass,
    PushedClass,
    collide_rt,
    e_class,
    emit_relation,
    f_class,
    f_class_m,
    multiply_divisor,
    pullback_forget_rt,
    pushforward_phi,
    pushforward_point,
    verify_colliding_rt,
    verify_frec,
)
