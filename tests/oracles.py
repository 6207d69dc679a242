"""Brute-force oracles shared by the tests.

Each one computes by exhaustion or by a textbook characterisation what the
package computes by a faster route, and none of them is reached from
`src/`: the subword characterisation of Bruhat order, the sign of a root,
the whole zip group as a list of pairs, and the field product on digit
lists.
"""

import operator
from functools import lru_cache

from zipstrata.coxeter import ENUMERATION_GUARD, Root, TooLarge, WeylElement
from zipstrata.ffield import FiniteField, Mat, _coeff_mul, mat_frobenius
from zipstrata.grouplab import (
    ZipDatumGroupLevel,
    _block_positions,
    _fillings,
    _levi_part,
    _points_field,
    parabolic_points,
)


def root_is_positive(root: Root) -> bool:
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=None)
def _bruhat_interval(w: WeylElement) -> frozenset[WeylElement]:
    out = {w.group.identity()}
    for i in w.reduced_word():
        s = w.group.simple_reflection(i)
        out |= {x * s for x in out}
    return frozenset(out)


def bruhat_leq_subword(v: WeylElement, w: WeylElement) -> bool:
    """Subword characterisation of Bruhat order; oracle for bruhat_leq."""
    if v.group != w.group:
        raise ValueError("elements of different groups")
    return v in _bruhat_interval(w)


def zip_group_points(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """All pairs (p', p) of the zip group over the degree-`ext` extension."""
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    upper_strict = _block_positions(classes, n, operator.lt)
    lowers = parabolic_points(n, ff, datum.I, lower=True)
    total = len(lowers) * ff.order ** len(upper_strict)
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"the zip group has {total} points")
    k = datum.twist_exponent
    out = []
    for p_prime in lowers:
        levi = mat_frobenius(ff, _levi_part(p_prime, classes, n), k)
        out.extend((p_prime, p) for p in _fillings(levi, upper_strict, ff.order))
    return tuple(out)


def field_product(field: FiniteField, a: int, b: int) -> int:
    """a * b on digit lists, one polynomial product and reduction; oracle for the tables."""
    digits = _coeff_mul(field._digits(a), field._digits(b), field.modulus, field.p)
    return field._from_digits(digits)
