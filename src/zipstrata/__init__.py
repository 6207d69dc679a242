"""Exact zip-stratification toolkit.

Combinatorics of twisted parabolic stratifications (Weyl groups, minimal
coset representatives, twisted Bruhat orders), exhaustive finite-field
experiments (zip-orbit censuses, stratum point-count polynomials, Lang
preimages), classification of filtered Frobenius modules, and display
groups over truncated Witt rings.  Everything is exact integer
arithmetic; no floating point enters any invariant.

The usual entry points:

    create_weyl, longest_element      Weyl groups and their elements
    zip_from_cocharacter              a twisted stratification datum
    stratum_poset, purity_check       the stratum hierarchy and its gaps
    make_zip_datum, zip_orbit_census  matrix-level exhaustive orbit sweeps
    dieudonne_to_fzip, classify       operator pairs to stratum labels
    make_ring, check_reduction        truncated Witt rings and displays
    counterexample_gl2                the codimension-2 boundary example

The command line mirrors these: ``python3 -m zipstrata.cli --help``.
"""

from .coxeter import (
    WeylElement,
    WeylGroup,
    bruhat_leq,
    create_weyl,
    element_from_word,
    longest_element,
    min_coset_reps,
    word_string,
)
from .ffield import FiniteField, get_field
from .fzip import (
    FZipConcrete,
    FZipType,
    classify,
    dieudonne_to_fzip,
    enumerate_strata,
    fzip_from_json,
    fzip_to_json,
    standard_zip,
)
from .grouplab import (
    counterexample_gl2,
    lang_preimage,
    make_zip_datum,
    stratum_point_count,
    stratum_point_polynomial,
    zip_orbit_census,
)
from .witt import GaloisRing, GaloisRingElement, check_reduction, make_ring
from .zipdatum import (
    PsiMismatch,
    build_zip,
    export_poset,
    import_poset,
    purity_check,
    stratum_poset,
    zip_from_cocharacter,
)

__version__ = "0.1.0"

__all__ = [
    "FZipConcrete",
    "FZipType",
    "FiniteField",
    "GaloisRing",
    "GaloisRingElement",
    "PsiMismatch",
    "WeylElement",
    "WeylGroup",
    "bruhat_leq",
    "build_zip",
    "check_reduction",
    "classify",
    "counterexample_gl2",
    "create_weyl",
    "dieudonne_to_fzip",
    "element_from_word",
    "enumerate_strata",
    "export_poset",
    "fzip_from_json",
    "fzip_to_json",
    "get_field",
    "import_poset",
    "lang_preimage",
    "longest_element",
    "make_ring",
    "make_zip_datum",
    "min_coset_reps",
    "purity_check",
    "standard_zip",
    "stratum_point_count",
    "stratum_point_polynomial",
    "stratum_poset",
    "word_string",
    "zip_from_cocharacter",
    "zip_orbit_census",
]
