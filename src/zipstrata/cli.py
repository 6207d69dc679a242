"""Batch command-line surface tying the library modules together.

Each subcommand is a self-contained run: flags in, one deterministic result
stream out.  Results go to stdout, or to a file named by --out written
atomically (temp file plus rename); progress notes go to stderr so that
result streams stay clean for piping.

Exit codes
----------
0   success, or a property check that passed
2   usage errors: unknown flags, missing required flags, invalid parameters
3   domain errors: malformed input data, incompatible twists, oversized runs
4   property-check failures: a purity or reduction check that ran and failed
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coxeter import create_weyl, longest_element, word_string
from .ffield import get_field, is_prime, prime_power
from .fzip import Undetermined, classify, enumerate_strata, fzip_from_json, fzip_type
from .grouplab import (
    TooLarge,
    counterexample_gl2,
    make_zip_datum,
    zip_group_points,
    zip_orbit_census,
)
from .witt import check_reduction, make_ring, orbit_census_level
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

__all__ = ["RunConfig", "main"]

USAGE_ERROR = 2
DOMAIN_ERROR = 3
CHECK_FAILED = 4


@dataclass(frozen=True)
class RunConfig:
    """A parsed invocation: the command, its parameters, and output routing."""

    command: str
    parameters: dict
    output_path: Optional[str] = None
    format: str = "text"


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


def _blocks_to_simples(blocks: Sequence[int], n: int) -> tuple[int, ...]:
    if any(b < 1 for b in blocks):
        raise _UsageError("--blocks entries must be positive")
    if sum(blocks) != n:
        raise _UsageError(f"--blocks must sum to n={n}")
    cuts = set()
    running = 0
    for b in blocks[:-1]:
        running += b
        cuts.add(running)
    return tuple(i for i in range(1, n) if i not in cuts)


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


def cmd_weyl(cfg: RunConfig) -> int:
    p = cfg.parameters
    try:
        group = create_weyl(p["family"], p["rank"])
    except ValueError as exc:
        raise _UsageError(str(exc))
    w0 = longest_element(group)
    if cfg.format == "json":
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
    _emit(text, cfg.output_path)
    return 0


def cmd_strata(cfg: RunConfig, ns: argparse.Namespace) -> int:
    datum = _datum_from_flags(ns)
    _progress(
        f"building stratum poset for {datum.group.family}{datum.group.rank} "
        f"with I={sorted(datum.I.indices)}"
    )
    poset = stratum_poset(datum)
    _emit(export_poset(poset, cfg.format), cfg.output_path)
    return 0


def cmd_purity_check(cfg: RunConfig, ns: argparse.Namespace) -> int:
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
    if cfg.format == "json":
        text = _dump_json(payload)
    else:
        lines = [
            f"strata checked: {report.strata_checked}",
            f"result: {'PASS' if report.passed else 'FAIL'}",
        ]
        for v in report.violations:
            lines.append(
                f"violation: stratum {list(v.stratum)} (length {v.length}) covers "
                f"{list(v.boundary_stratum)} (length {v.boundary_length})"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.output_path)
    return 0 if report.passed else CHECK_FAILED


def cmd_classify(cfg: RunConfig) -> int:
    p = cfg.parameters
    with open(p["input"], "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        z = fzip_from_json(text)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed module description: {exc!r}")
    label = classify(z, max_ext=p["max_ext"])
    poset = enumerate_strata(fzip_type(z))
    length = label.w.length
    top = max(poset.length_of)
    if length == top and length == 0:
        position = "open and closed"
    elif length == top:
        position = "open"
    elif length == 0:
        position = "closed"
    else:
        position = "intermediate"
    assert label.certificate is not None
    if cfg.format == "json":
        text = _dump_json(
            {
                "word": list(label.w.reduced_word()),
                "length": length,
                "position": position,
                "witness_ext": label.certificate.ext,
                "strata_total": len(poset.carrier),
            }
        )
    else:
        text = (
            f"{position} stratum, length {length}\n"
            f"label: {word_string(label.w)}\n"
            f"witness extension: {label.certificate.ext}\n"
            f"strata in the ambient poset: {len(poset.carrier)}\n"
        )
    _emit(text, cfg.output_path)
    return 0


def cmd_orbits(cfg: RunConfig) -> int:
    p = cfg.parameters
    prime, degree = _field_size(p["q"])
    n = p["n"]
    if n < 2:
        raise _UsageError("--n must be at least 2")
    if p["blocks"] is not None:
        simples = _blocks_to_simples(_parse_int_list(p["blocks"], "--blocks"), n)
    else:
        simples = ()
    datum = make_zip_datum(n, get_field(prime, degree), simples)
    censuses = []
    for ext in p["exts"]:
        _progress(f"sweeping zip orbits over the degree-{ext} extension")
        census = zip_orbit_census(datum, ext)
        pairs = len(zip_group_points(datum, ext))
        assert all(r.size * r.stabilizer_order == pairs for r in census.orbits)
        censuses.append(
            {
                "ext": census.ext,
                "group_order": census.group_order,
                "zip_group_order": pairs,
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
            "q": p["q"],
            "I": sorted(datum.I.indices),
            "censuses": censuses,
        }
    )
    _emit(text, cfg.output_path)
    return 0


def cmd_witt(cfg: RunConfig) -> int:
    p = cfg.parameters
    if not is_prime(p["p"]):
        raise _UsageError(f"--p must be prime, got {p['p']}")
    if p["d"] < 1 or p["m"] < 1 or p["n"] < 1:
        raise _UsageError("--d, --m and --n must be positive")
    if not 0 <= p["d_block"] <= p["n"]:
        raise _UsageError("--d-block must lie between 0 and n")
    make_ring(p["p"], p["d"], p["m"])
    if p["check_reduction"]:
        _progress(
            f"checking orbit reduction from level {p['m']} to level 1 "
            f"for n={p['n']}, p={p['p']}, d={p['d']}"
        )
        report = check_reduction(p["n"], p["p"], p["d"], p["m"], p["d_block"])
        _emit(_dump_json(report), cfg.output_path)
        return 0 if not report["violations"] else CHECK_FAILED
    _progress(f"sweeping display orbits at level {p['m']}")
    census = orbit_census_level(p["n"], p["p"], p["d"], p["m"], p["d_block"])
    text = _dump_json(
        {
            "params": {
                "n": p["n"],
                "p": p["p"],
                "d": p["d"],
                "m": p["m"],
                "d_block": p["d_block"],
            },
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
    _emit(text, cfg.output_path)
    return 0


def cmd_counterexample(cfg: RunConfig) -> int:
    p = cfg.parameters
    for q in p["qs"]:
        _field_size(q)
    rows = []
    for q in p["qs"]:
        _progress(f"certifying the conjugation counterexample over F_{q}")
        rows.append(counterexample_gl2(q))
    if cfg.format == "json":
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
    _emit(text, cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
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

    strata = commands.add_parser("strata", help="export a stratum poset")
    _add_strata_flags(strata)
    strata.add_argument("--format", default="json", choices=["json", "dot"])

    purity = commands.add_parser("purity-check", help="check one-step closures")
    _add_strata_flags(purity)
    purity.add_argument("--replay", help="check a previously exported poset file")
    purity.add_argument("--format", default="text", choices=["text", "json"])

    cls = commands.add_parser("classify", help="classify a filtered Frobenius module")
    cls.add_argument("input", help="path to a JSON file describing the module")
    cls.add_argument("--max-ext", dest="max_ext", type=int, default=3)
    cls.add_argument("--format", default="text", choices=["text", "json"])
    cls.add_argument("--out")

    orbits = commands.add_parser("orbits", help="exhaustive zip-orbit census")
    orbits.add_argument("--n", required=True, type=int)
    orbits.add_argument("--q", required=True, type=int)
    orbits.add_argument("--ext", default="1", help="degrees as 2, 1,2,3 or 1..3")
    orbits.add_argument("--blocks", help="comma block sizes, default all singletons")
    orbits.add_argument("--format", default="json", choices=["json"])
    orbits.add_argument("--out")

    witt = commands.add_parser("witt", help="display orbits over truncated Witt rings")
    witt.add_argument("--p", required=True, type=int)
    witt.add_argument("--d", required=True, type=int)
    witt.add_argument("--m", required=True, type=int)
    witt.add_argument("--n", required=True, type=int)
    witt.add_argument("--d-block", dest="d_block", type=int, default=1)
    witt.add_argument("--check-reduction", action="store_true")
    witt.add_argument("--format", default="json", choices=["json"])
    witt.add_argument("--out")

    cx = commands.add_parser("counterexample", help="the conjugation-orbit regression")
    cx.add_argument("--q", required=True, help="comma list of prime powers")
    cx.add_argument("--format", default="text", choices=["text", "json"])
    cx.add_argument("--out")

    return parser


def _dispatch(ns: argparse.Namespace) -> int:
    out, fmt = getattr(ns, "out", None), getattr(ns, "format", "text")
    if ns.command == "weyl":
        return cmd_weyl(RunConfig(ns.command, {"family": ns.family, "rank": ns.rank}, out, fmt))
    if ns.command == "strata":
        return cmd_strata(RunConfig(ns.command, vars(ns), out, fmt), ns)
    if ns.command == "purity-check":
        return cmd_purity_check(RunConfig(ns.command, vars(ns), out, fmt), ns)
    if ns.command == "classify":
        return cmd_classify(
            RunConfig(ns.command, {"input": ns.input, "max_ext": ns.max_ext}, out, fmt)
        )
    if ns.command == "orbits":
        exts = _parse_ext_range(ns.ext)
        return cmd_orbits(
            RunConfig(
                ns.command,
                {"n": ns.n, "q": ns.q, "exts": exts, "blocks": ns.blocks},
                out,
                fmt,
            )
        )
    if ns.command == "witt":
        return cmd_witt(
            RunConfig(
                ns.command,
                {
                    "p": ns.p,
                    "d": ns.d,
                    "m": ns.m,
                    "n": ns.n,
                    "d_block": ns.d_block,
                    "check_reduction": ns.check_reduction,
                },
                out,
                fmt,
            )
        )
    if ns.command == "counterexample":
        qs = _parse_int_list(ns.q, "--q")
        if not qs:
            raise _UsageError("--q must list at least one prime power")
        return cmd_counterexample(RunConfig(ns.command, {"qs": qs}, out, fmt))
    raise AssertionError(f"unhandled command {ns.command}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _dispatch(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PsiMismatch, Undetermined, TooLarge) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
