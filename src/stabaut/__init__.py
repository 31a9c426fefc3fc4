"""Exact computation with stabilized automorphisms of full shifts.

The names below are re-exported lazily (PEP 562): `import stabaut` loads
no submodule, and the first use of a name imports the module defining it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "codes": (
        "Automorphism", "StabilizedCode", "apply_to_periodic", "aut_commutator", "aut_compose",
        "aut_equals", "commutes_with_shift_power", "compose", "enumerate_automorphisms",
        "equals", "verify_inverse_pair",
    ),
    "dimrep": (
        "ExponentVector", "RayCount", "dimension_multiplier", "is_inert", "ray_image_count",
        "stabilized_dim_group",
    ),
    "generators": (
        "SimpleGraphPerm", "flip", "flip_on_even", "inflate", "letter_permutation", "mth_root_of",
        "periodic_letter_permutation", "recode_to_power", "shift_power",
        "swap_commutator_witness", "symbol_permutation",
    ),
    "invariants": (
        "Verdict", "distinguish_classical", "distinguish_stabilized", "omega", "roots_set",
        "sl2_z4_report",
    ),
    "krembed": (
        "MarkerScheme", "WindowConfig", "coded_stretches", "embed_automorphism", "embed_code",
        "find_marker_scheme", "read_at",
    ),
    "permlab": (
        "GroupHandle", "Permutation", "group_order", "is_primitive", "jordan_verdict",
        "p_cycle_search", "star", "three_cycle_from_arrangement",
    ),
    "shifts": (
        "PeriodicPoint", "SftMatrix", "count_least_period_orbits", "count_periodic",
        "language_words", "power_alphabet_index",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as `stabaut.codes`
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
