"""Hardy spaces, Szego kernels and Toeplitz operators on reflection-group
quotients of the polydisc and the ball, computed exactly at desk scale."""

from .groups import (
    Character,
    Group,
    GroupElement,
    GroupSpec,
    builtin_characters,
    make_character,
    make_group,
    parse_group_spec,
)
from .invariants import (
    BasicMap,
    BasisIndexSet,
    EllPoly,
    basic_map,
    basis_element,
    ell,
    index_set,
    jacobian,
    lift,
    lower,
    project,
)
from .kernels import (
    KernelSpec,
    base_kernel,
    ellipsoid_constants,
    make_kernel_spec,
    pushforward_integral,
    quotient_kernel,
    reproducing_check,
    series_kernel,
    tetrablock_kernel,
)
from .laurent import (
    HarmonicPoly,
    LaurentPoly,
    act,
    harmonic_extension,
    sphere_inner,
    sphere_pair_integral,
    torus_inner,
    wirtinger_D,
)
from .toeplitz import (
    SymbolPair,
    ToeplitzWindow,
    apply_toeplitz,
    ball_toeplitz_entry,
    bh_check,
    compactness_probe,
    correspondence_check,
    hol_project,
    product_compare,
    semd2_check,
    symbol_recover,
    toeplitz_window,
)

__version__ = "0.1.0"
