"""Hardy spaces, Szego kernels and Toeplitz operators on reflection-group
quotients of the polydisc and the ball, computed exactly at desk scale."""

from importlib import import_module

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
    GammaBasis,
    basic_map,
    ell,
    index_set,
    jacobian,
    lift,
    lower,
    project,
)
from .laurent import (
    LaurentPoly,
    act,
    harmonic_extension,
    sphere_inner,
    torus_inner,
    wirtinger_D,
)

# toeplitz and parts of kernels compute on numpy arrays; their names are imported on
# first access (PEP 562), so `import hardyq` and the group and invariant
# layers do not load numpy
_MODULE_OF = {
    **dict.fromkeys(("KernelSpec", "base_kernel", "ellipsoid_constants", "make_kernel_spec",
                     "quotient_kernel", "tetrablock_kernel"), "kernels"),
    **dict.fromkeys(("SymbolPair", "ToeplitzWindow", "apply_toeplitz",
                     "bh_check", "compactness_probe", "correspondence_check", "hol_project",
                     "product_compare", "semd2_check", "symbol_recover", "toeplitz_window"),
                    "toeplitz"),
}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
