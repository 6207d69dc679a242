"""Batch command-line surface tying the library modules together.

Each subcommand is a self-contained run: flags in, one deterministic result
stream out.  A subcommand's handler, registered as its ``run`` default, reads
its flags from the parsed namespace and returns its result text with its exit
code; ``main`` writes that text once, to stdout or to a file named by --out
written atomically (temp file plus rename), and maps exceptions to exit codes.
Progress notes go to stderr so that result streams stay clean for piping.

Exit codes
----------
0   success, or a property check that passed
2   usage errors: unknown flags, missing required flags, invalid parameters
3   domain errors: malformed input data, incompatible twists, oversized runs
4   property-check failures: a purity or reduction check that ran and failed
5   invariant errors: a computed result broke an identity it must satisfy
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .coxeter import InvariantError, ParabolicType, create_weyl, longest_element, min_coset_reps, word_string
from .ffield import get_field, is_prime, prime_power
from .fzip import classify, fzip_from_json, fzip_type, type_to_parabolic
from .grouplab import counterexample_gl2, levi_of_blocks, make_zip_datum, zip_group_order, zip_orbit_census
from .witt import check_reduction, orbit_census_level
from .zipdatum import (
    PsiMismatch,
    build_zip,
    export_poset,
    import_poset,
    purity_check,
    purity_check_poset,
    stratum_poset,
    zip_from_cocharacter,
)

__all__ = ["main"]

USAGE_ERROR = 2
DOMAIN_ERROR = 3
CHECK_FAILED = 4
INVARIANT_ERROR = 5


class _UsageError(ValueError):
    """Parameter validation failed after argparse accepted the flags."""


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write the result stream, atomically when a file is requested."""
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, out_path)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated list of integers")


def _parse_ext_range(text: str) -> tuple[int, ...]:
    """Extension degrees given as '3', '1,2,3', or '1..3'."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise _UsageError("--ext expects degrees like 2, 1,2,3 or 1..3")
        if start < 1 or stop < start:
            raise _UsageError("--ext range must be increasing and positive")
        return tuple(range(start, stop + 1))
    values = _parse_int_list(text, "--ext")
    if not values or any(v < 1 for v in values):
        raise _UsageError("--ext degrees must be positive")
    return values


def _field_size(q: int) -> tuple[int, int]:
    """The (p, d) of a --q value; anything but a prime power is a usage error."""
    try:
        return prime_power(q)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _blocks_to_simples(blocks: Sequence[int], n: int) -> ParabolicType:
    if any(b < 1 for b in blocks):
        raise _UsageError("--blocks entries must be positive")
    if sum(blocks) != n:
        raise _UsageError(f"--blocks must sum to n={n}")
    return levi_of_blocks(blocks)


def _datum_from_flags(ns: argparse.Namespace):
    """Build the zip combinatorics a strata-style command describes."""
    if ns.group is None:
        raise _UsageError("--group is required")
    delta = None
    if ns.delta not in (None, "id"):
        delta = _parse_int_list(ns.delta, "--delta")
    if ns.group == "GL":
        if ns.n is None:
            raise _UsageError("--n is required for --group GL")
        if ns.blocks is None:
            raise _UsageError("--blocks is required for --group GL")
        if ns.n < 2:
            raise _UsageError("--n must be at least 2")
        blocks = _parse_int_list(ns.blocks, "--blocks")
        simples = _blocks_to_simples(blocks, ns.n)
        group = create_weyl("A", ns.n - 1)
        gl_center = True
    else:
        if ns.rank is None:
            raise _UsageError(f"--rank is required for --group {ns.group}")
        try:
            group = create_weyl(ns.group, ns.rank)
        except ValueError as exc:
            raise _UsageError(str(exc))
        simples = _parse_int_list(ns.I, "--I") if ns.I is not None else ()
        gl_center = False
    # invalid I, J or delta parameters surface as ValueError here; only an
    # incompatible twist (PsiMismatch) is a genuine domain error
    try:
        if ns.J is not None:
            return build_zip(group, simples, _parse_int_list(ns.J, "--J"), delta, gl_center=gl_center)
        return zip_from_cocharacter(group, simples, delta, gl_center=gl_center)
    except PsiMismatch:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc))


# ---------------------------------------------------------------------------
# the commands
# ---------------------------------------------------------------------------


def cmd_weyl(ns: argparse.Namespace) -> tuple[str, int]:
    try:
        group = create_weyl(ns.family, ns.rank)
    except ValueError as exc:
        raise _UsageError(str(exc))
    w0 = longest_element(group)
    if ns.format == "json":
        text = _dump_json(
            {
                "family": group.family,
                "rank": group.rank,
                "order": group.order,
                "positive_roots": group.positive_root_count,
                "longest_word": list(w0.reduced_word()),
            }
        )
    else:
        text = (
            f"family: {group.family}\n"
            f"rank: {group.rank}\n"
            f"order: {group.order}\n"
            f"positive_roots: {group.positive_root_count}\n"
            f"longest_word: {word_string(w0)}\n"
        )
    return text, 0


def cmd_strata(ns: argparse.Namespace) -> tuple[str, int]:
    datum = _datum_from_flags(ns)
    _progress(
        f"building stratum poset for {datum.group.family}{datum.group.rank} "
        f"with I={sorted(datum.I.indices)}"
    )
    return export_poset(stratum_poset(datum), ns.format), 0


def cmd_purity_check(ns: argparse.Namespace) -> tuple[str, int]:
    if ns.replay is not None:
        with open(ns.replay, "r", encoding="utf-8") as handle:
            poset = import_poset(handle.read())
        _progress(f"replaying poset with {len(poset.carrier)} strata from {ns.replay}")
        report = purity_check_poset(poset)
    else:
        datum = _datum_from_flags(ns)
        _progress(
            f"checking purity for {datum.group.family}{datum.group.rank} "
            f"with I={sorted(datum.I.indices)}"
        )
        report = purity_check(datum)
    code = 0 if report.passed else CHECK_FAILED
    if ns.format == "json":
        payload = {
            "passed": report.passed,
            "strata_checked": report.strata_checked,
            "violations": [
                {
                    "stratum": list(v.stratum),
                    "boundary_stratum": list(v.boundary_stratum),
                    "length": v.length,
                    "boundary_length": v.boundary_length,
                }
                for v in report.violations
            ],
        }
        return _dump_json(payload), code
    lines = [
        f"strata checked: {report.strata_checked}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    for v in report.violations:
        lines.append(
            f"violation: stratum {list(v.stratum)} (length {v.length}) covers "
            f"{list(v.boundary_stratum)} (length {v.boundary_length})"
        )
    return "\n".join(lines) + "\n", code


def cmd_classify(ns: argparse.Namespace) -> tuple[str, int]:
    with open(ns.input, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        z = fzip_from_json(text)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed module description: {exc!r}")
    label = classify(z, max_ext=ns.max_ext)
    n, par = type_to_parabolic(fzip_type(z))
    carrier = min_coset_reps(create_weyl("A", n - 1), par)
    length = label.w.length
    top = max(w.length for w in carrier)
    if length == top and length == 0:
        position = "open and closed"
    elif length == top:
        position = "open"
    elif length == 0:
        position = "closed"
    else:
        position = "intermediate"
    if label.certificate is None:
        raise InvariantError("a classify label must carry its witness")
    if ns.format == "json":
        text = _dump_json(
            {
                "word": list(label.w.reduced_word()),
                "length": length,
                "position": position,
                "witness_ext": label.certificate.ext,
                "strata_total": len(carrier),
            }
        )
    else:
        text = (
            f"{position} stratum, length {length}\n"
            f"label: {word_string(label.w)}\n"
            f"witness extension: {label.certificate.ext}\n"
            f"strata in the ambient poset: {len(carrier)}\n"
        )
    return text, 0


def cmd_orbits(ns: argparse.Namespace) -> tuple[str, int]:
    exts = _parse_ext_range(ns.ext)
    prime, degree = _field_size(ns.q)
    n = ns.n
    if n < 2:
        raise _UsageError("--n must be at least 2")
    if ns.blocks is not None:
        simples = _blocks_to_simples(_parse_int_list(ns.blocks, "--blocks"), n)
    else:
        simples = ()
    datum = make_zip_datum(n, get_field(prime, degree), simples)
    censuses = []
    for ext in exts:
        _progress(f"sweeping zip orbits over the degree-{ext} extension")
        census = zip_orbit_census(datum, ext)
        order_e = zip_group_order(datum, ext)
        censuses.append(
            {
                "ext": census.ext,
                "group_order": census.group_order,
                "zip_group_order": order_e,
                "orbit_stabilizer_identity": "size * stabilizer_order == zip_group_order",
                "orbits": [
                    {
                        "rep": [list(row) for row in r.rep],
                        "size": r.size,
                        "stabilizer_order": r.stabilizer_order,
                        "cell": list(r.cell) if r.cell is not None else None,
                    }
                    for r in census.orbits
                ],
            }
        )
    text = _dump_json(
        {
            "n": n,
            "q": ns.q,
            "I": sorted(datum.I.indices),
            "censuses": censuses,
        }
    )
    return text, 0


def cmd_witt(ns: argparse.Namespace) -> tuple[str, int]:
    n, p, d, m, d_block = ns.n, ns.p, ns.d, ns.m, ns.d_block
    if not is_prime(p):
        raise _UsageError(f"--p must be prime, got {p}")
    if d < 1 or m < 1 or n < 1:
        raise _UsageError("--d, --m and --n must be positive")
    if not 0 <= d_block <= n:
        raise _UsageError("--d-block must lie between 0 and n")
    if ns.check_reduction:
        _progress(
            f"checking orbit reduction from level {m} to level 1 "
            f"for n={n}, p={p}, d={d}"
        )
        report = check_reduction(n, p, d, m, d_block)
        return _dump_json(report), CHECK_FAILED if report["violations"] else 0
    _progress(f"sweeping display orbits at level {m}")
    census = orbit_census_level(n, p, d, m, d_block)
    text = _dump_json(
        {
            "params": {"n": n, "p": p, "d": d, "m": m, "d_block": d_block},
            "level": census.ext,
            "group_order": census.group_order,
            "orbits": [
                {
                    "rep": [[list(v.coeffs) for v in row] for row in r.rep],
                    "size": r.size,
                    "stabilizer_order": r.stabilizer_order,
                }
                for r in census.orbits
            ],
        }
    )
    return text, 0


def cmd_counterexample(ns: argparse.Namespace) -> tuple[str, int]:
    qs = _parse_int_list(ns.q, "--q")
    if not qs:
        raise _UsageError("--q must list at least one prime power")
    for q in qs:
        _field_size(q)
    rows = []
    for q in qs:
        _progress(f"certifying the conjugation counterexample over F_{q}")
        rows.append(counterexample_gl2(q))
    if ns.format == "json":
        text = _dump_json(
            [
                {
                    "q": c.q,
                    "orbit_size": c.orbit_sizes[0],
                    "expected_q_squared_minus_one": c.q * c.q - 1,
                    "orbit_sizes": list(c.orbit_sizes),
                    "orbit_dimension": c.orbit_dimension,
                    "ambient_dimension": c.ambient_dimension,
                    "codimension": c.codimension,
                    "fiber_size": c.fiber_size,
                    "boundary_drop": c.boundary_drop,
                }
                for c in rows
            ]
        )
    else:
        lines = [
            "q  |O_1|  q^2-1  dim  ambient  codim  fiber  drop",
        ]
        for c in rows:
            lines.append(
                f"{c.q}  {c.orbit_sizes[0]}  {c.q * c.q - 1}  {c.orbit_dimension}  "
                f"{c.ambient_dimension}  {c.codimension}  {c.fiber_size}  {c.boundary_drop}"
            )
        lines.append(
            "the identity joins the orbit closure inside the fiber, two dimensions down"
        )
        text = "\n".join(lines) + "\n"
    return text, 0


# ---------------------------------------------------------------------------
# parser and the one run path
# ---------------------------------------------------------------------------


def _add_strata_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", choices=["GL", "A", "B", "C", "D"])
    sub.add_argument("--n", type=int, help="matrix size for --group GL")
    sub.add_argument("--rank", type=int, help="rank for the family groups")
    sub.add_argument("--blocks", help="comma block sizes for --group GL")
    sub.add_argument("--I", help="comma simple indices of the parabolic type I")
    sub.add_argument("--J", help="comma simple indices of J (defaults from the twist)")
    sub.add_argument("--delta", help="diagram automorphism as comma images, default id")
    sub.add_argument("--out", help="output file, written atomically")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipstrata",
        description="deterministic batch commands for stratum combinatorics",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    weyl = commands.add_parser("weyl", help="summarise a Weyl group")
    weyl.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
    weyl.add_argument("--rank", required=True, type=int)
    weyl.add_argument("--format", default="text", choices=["text", "json"])
    weyl.add_argument("--out")
    weyl.set_defaults(run=cmd_weyl)

    strata = commands.add_parser("strata", help="export a stratum poset")
    _add_strata_flags(strata)
    strata.add_argument("--format", default="json", choices=["json", "dot"])
    strata.set_defaults(run=cmd_strata)

    purity = commands.add_parser("purity-check", help="check one-step closures")
    _add_strata_flags(purity)
    purity.add_argument("--replay", help="check a previously exported poset file")
    purity.add_argument("--format", default="text", choices=["text", "json"])
    purity.set_defaults(run=cmd_purity_check)

    cls = commands.add_parser("classify", help="classify a filtered Frobenius module")
    cls.add_argument("input", help="path to a JSON file describing the module")
    cls.add_argument("--max-ext", dest="max_ext", type=int, default=3)
    cls.add_argument("--format", default="text", choices=["text", "json"])
    cls.add_argument("--out")
    cls.set_defaults(run=cmd_classify)

    orbits = commands.add_parser("orbits", help="exhaustive zip-orbit census")
    orbits.add_argument("--n", required=True, type=int)
    orbits.add_argument("--q", required=True, type=int)
    orbits.add_argument("--ext", default="1", help="degrees as 2, 1,2,3 or 1..3")
    orbits.add_argument("--blocks", help="comma block sizes, default all singletons")
    orbits.add_argument("--format", default="json", choices=["json"])
    orbits.add_argument("--out")
    orbits.set_defaults(run=cmd_orbits)

    witt = commands.add_parser("witt", help="display orbits over truncated Witt rings")
    witt.add_argument("--p", required=True, type=int)
    witt.add_argument("--d", required=True, type=int)
    witt.add_argument("--m", required=True, type=int)
    witt.add_argument("--n", required=True, type=int)
    witt.add_argument("--d-block", dest="d_block", type=int, default=1)
    witt.add_argument("--check-reduction", action="store_true")
    witt.add_argument("--format", default="json", choices=["json"])
    witt.add_argument("--out")
    witt.set_defaults(run=cmd_witt)

    cx = commands.add_parser("counterexample", help="the conjugation-orbit regression")
    cx.add_argument("--q", required=True, help="comma list of prime powers")
    cx.add_argument("--format", default="text", choices=["text", "json"])
    cx.add_argument("--out")
    cx.set_defaults(run=cmd_counterexample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        text, code = ns.run(ns)
        _emit(text, ns.out)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except InvariantError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return INVARIANT_ERROR


if __name__ == "__main__":
    sys.exit(main())
