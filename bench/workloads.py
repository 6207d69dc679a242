"""The four benchmark workloads: their seeded inputs, jobs and exact checks.

`draw(workload, seed)` picks a workload's inputs and needs nothing but the
standard library, so the same seed always yields the same inputs.  `build`
turns those inputs into jobs, constructing the workload's structures through
the library's public constructors; that part is the set-up a run times.
Each job returns its output; `canon` turns the output into JSON-ready data
whose sha256 is compared with the reference, and `check` raises when an
exact invariant fails.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("strata", "census", "classify", "witt")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Rank-2 and rank-3 classify inputs are drawn per class of the reference, so
# every seed sweeps the same mix of levels: the classes differ by witness
# extension (or Undetermined) and by the orbit sizes the sweep visits.
CLASSIFY_QUOTAS = {
    "r2": {"U/6,72,9126": 2, "ext2/9,1296": 8, "ext1/6": 2, "ext1/9": 2},
    "r3": {"U/32": 2, "U/48": 2, "ext1/16": 2, "ext1/24": 2, "ext1/48": 2},
}
# (FZipType entries, characteristic, matrix size, max_ext) of each universe.
CLASSIFY_UNIVERSES = {
    "r2": ({0: 1, 1: 1}, 3, 2, 3),
    "r3": ({0: 1, 1: 2}, 2, 3, 1),
}

ORDINARY = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
SUPERSINGULAR = (((0, 1), (0, 0)), ((0, 1), (0, 0)))

WITT_ELEMENTS_PER_RING = 30
WITT_RING_BOUND = 10_000
DISPLAY_TRIPLES = 60
D4_PAIRS = 20_000
STABILIZER_POINTS = 1


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    canon: Callable[[Any], Any] = lambda out: out
    check: Callable[[Any, dict], None] = lambda out, ctx: None
    props: Callable[[Any], dict] = lambda out: {}
    cli: bool = False
    seeded: bool = False  # its input is drawn from the seed

    def reference_key(self, inputs_digest: str) -> str:
        """Seeded jobs have a reference only for the inputs it was captured on."""
        return f"{self.name}@{inputs_digest[:16]}" if self.seeded else self.name


@dataclass
class Workload:
    inputs: dict
    jobs: list[Job]


class CheckFailed(AssertionError):
    """An exact invariant of a job's output does not hold."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"zipstrata-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# stdlib helpers used by draws and checks
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


def zip_group_order(blocks, q: int) -> int:
    """|E| for the GL_n zip datum with these Levi blocks over F_q."""
    n = sum(blocks)
    out = q ** (n * n - sum(b * b for b in blocks))
    for b in blocks:
        out *= gl_order(b, q)
    return out


def rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_invertible(rng: random.Random, n: int, p: int, modulus: int) -> tuple:
    """A matrix over Z/modulus whose reduction mod the prime p is invertible."""
    while True:
        m = tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(n))
        if rank_mod_p(m, p) == n:
            return m


def witt_rings() -> list[tuple[int, int, int]]:
    """(p, d, m) of every Galois ring W_m(F_{p^d}) with at most 10^4 elements."""
    out = []
    for p in range(2, WITT_RING_BOUND + 1):
        if not is_prime(p):
            continue
        md, size = 1, p
        while size <= WITT_RING_BOUND:
            out.extend((p, d, md // d) for d in range(1, md + 1) if md % d == 0)
            md += 1
            size *= p
    return out


def weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in "BC":
        return 2**rank * math.factorial(rank)
    return 2 ** (rank - 1) * math.factorial(rank)


def subgroup_order(group, I) -> int:
    """|W_I| by closing the identity under the simple reflections in I."""
    gens = [group.simple_reflection(i) for i in I]
    seen = {group.identity()}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                v = w * s
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    return len(seen)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def word(w) -> list[int]:
    return list(w.reduced_word())


def mat(m) -> list:
    return [list(row) for row in m]


# ---------------------------------------------------------------------------
# draws: seeded inputs, stdlib only
# ---------------------------------------------------------------------------


def draw(workload: str, seed: int, reference: dict | None = None) -> dict:
    """The seeded inputs of one workload run; the exhaustive parts are fixed."""
    rng = rng_for(workload, seed)
    if workload == "strata":
        return {"d4_pairs": [[rng.randrange(192), rng.randrange(192)] for _ in range(D4_PAIRS)]}
    if workload == "census":
        return {
            "stabilizer_points": [
                random_invertible(rng, 4, 2, 2) for _ in range(STABILIZER_POINTS)
            ]
        }
    if workload == "classify":
        classes = (reference or load_reference())["classify_classes"]
        picked = {}
        for universe, quotas in CLASSIFY_QUOTAS.items():
            by_class: dict[str, list[int]] = {}
            for idx, cls in enumerate(classes[universe]):
                by_class.setdefault(cls, []).append(idx)
            chosen = []
            for cls, k in sorted(quotas.items()):
                chosen.extend(rng.sample(by_class[cls], k))
            picked[universe] = sorted(chosen)
        return picked
    if workload == "witt":
        elements = []
        for p, d, m in witt_rings():
            q = p**m
            elements.append(
                [[rng.randrange(q) for _ in range(d)] for _ in range(WITT_ELEMENTS_PER_RING)]
            )
        triples = [
            [rng.randrange(2916), rng.randrange(2916), random_invertible(rng, 2, 3, 9)]
            for _ in range(DISPLAY_TRIPLES)
        ]
        return {"elements": elements, "triples": triples}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# strata: Weyl-group combinatorics only
# ---------------------------------------------------------------------------

# Data of the purity sweep: every family of rank <= 3 and A4 with every I and
# every diagram twist, and D4 with I empty under all six twists.  The rest of
# rank 4 (11 of the 13 s full sweep) stays out to keep one run short; B4, C4
# and D4 posets are exported and re-imported below.
# (family, rank, the types I to check; None means every I)
SWEEP = [(f, r, None) for f in "ABCD" for r in (1, 2, 3) if (f, r) != ("D", 1)]
SWEEP += [("A", 4, None), ("D", 4, [()])]
ROUND_TRIPS = [("B", 4, (1,)), ("C", 4, (1, 2)), ("D", 4, (2,)), ("A", 5, (1, 3))]
K3_ARGS = ["strata", "--group", "GL", "--n", "22", "--blocks", "1,20,1"]


def _diagram_twists(cox, group) -> list[tuple[int, ...]]:
    twists = []
    for perm in itertools.permutations(range(1, group.rank + 1)):
        try:
            cox.validate_diagram_automorphism(group, perm)
        except ValueError:
            continue
        twists.append(perm)
    return twists


def build_strata(zs, inputs: dict) -> list[Job]:
    cox, zd, cli = zs.coxeter, zs.zipdatum, zs.cli
    sweep = []
    for family, rank, subsets in SWEEP:
        group = cox.create_weyl(family, rank)
        if subsets is None:
            subsets = [I for k in range(rank + 1) for I in itertools.combinations(range(1, rank + 1), k)]
        for delta in _diagram_twists(cox, group):
            for I in subsets:
                sweep.append((family, rank, delta, I, zd.zip_from_cocharacter(group, I, delta)))
    b4, d4 = cox.create_weyl("B", 4), cox.create_weyl("D", 4)
    trips = [
        (f, r, I, zd.zip_from_cocharacter(cox.create_weyl(f, r), I))
        for f, r, I in ROUND_TRIPS
    ]

    def purity_sweep():
        return [(f, r, d, I, zd.purity_check(z)) for f, r, d, I, z in sweep]

    def purity_canon(out):
        return [
            [f, r, list(d), list(I), rep.strata_checked, rep.passed, len(rep.violations)]
            for f, r, d, I, rep in out
        ]

    def purity_check(out, ctx):
        require(len(out) == len(sweep), "one report per datum")
        for f, r, d, I, rep in out:
            require(rep.passed and not rep.violations, f"purity fails on {f}{r} I={I}")
            group = cox.create_weyl(f, r)
            require(
                rep.strata_checked * subgroup_order(group, I) == weyl_order(f, r),
                f"#strata * |W_I| != |W| on {f}{r} I={I}",
            )

    def purity_props(out):
        strata = [rep.strata_checked for *_, rep in out]
        w_i = [weyl_order(f, r) // rep.strata_checked for f, r, d, I, rep in out]
        return {
            "purity_data": len(out),
            "strata_total": sum(strata),
            "strata_max": max(strata),
            "W_I_orders": {str(k): w_i.count(k) for k in sorted(set(w_i))},
        }

    def relation(group, pairs):
        elements = group.elements()
        return "".join(
            "1" if cox.bruhat_leq(elements[i], elements[j]) else "0" for i, j in pairs
        )

    b4_pairs = list(itertools.product(range(len(b4.elements())), repeat=2))
    d4_pairs = [tuple(p) for p in inputs["d4_pairs"]]

    def order_check(group, pairs):
        def check(out, ctx):
            elements = group.elements()
            for (i, j), bit in zip(pairs, out):
                v, w = elements[i], elements[j]
                if i == j:
                    require(bit == "1", "Bruhat order is reflexive")
                if bit == "1":
                    require(v.length <= w.length, "Bruhat order raises length")
            if len(pairs) == len(elements) ** 2:
                n = len(elements)
                for i in range(n):
                    for j in range(i + 1, n):
                        require(
                            not (out[i * n + j] == out[j * n + i] == "1"),
                            "Bruhat order is antisymmetric",
                        )
        return check

    def k3(fmt):
        return lambda: run_cli(cli, K3_ARGS + ["--format", fmt])

    def k3_check(out, ctx):
        code, text = out
        require(code == 0, "strata CLI exits 0")
        if text.startswith("{"):
            require(len(json.loads(text)["strata"]) == 462, "the (1,20,1) datum has 462 strata")
        else:
            require(text.count("[label=") == 462, "the DOT export has 462 nodes")

    def round_trips():
        out = []
        for f, r, I, z in trips:
            text = zd.export_poset(zd.stratum_poset(z), "json")
            back = zd.import_poset(text)
            out.append((f, r, I, text, zd.export_poset(back, "json"), zd.purity_check_poset(back)))
        return out

    def trips_canon(out):
        return [[f, r, list(I), text, rep.passed, rep.strata_checked] for f, r, I, text, _, rep in out]

    def trips_check(out, ctx):
        for f, r, I, text, again, rep in out:
            require(text == again, f"export/import is not a round trip on {f}{r}")
            require(rep.passed, f"purity fails on the re-imported {f}{r}")
            require(
                rep.strata_checked * subgroup_order(cox.create_weyl(f, r), I) == weyl_order(f, r),
                f"#strata * |W_I| != |W| on {f}{r}",
            )

    return [
        Job("strata.purity_sweep", purity_sweep, purity_canon, purity_check, purity_props),
        Job("strata.bruhat_leq.B4_all_pairs", lambda: relation(b4, b4_pairs),
            check=order_check(b4, b4_pairs)),
        Job("strata.bruhat_leq.D4_drawn_pairs", lambda: relation(d4, d4_pairs),
            check=order_check(d4, d4_pairs), seeded=True),
        Job("strata.cli.k3_json", k3("json"), check=k3_check, cli=True),
        Job("strata.cli.k3_dot", k3("dot"), check=k3_check, cli=True),
        Job("strata.export_import_round_trips", round_trips, trips_canon, trips_check),
    ]


# ---------------------------------------------------------------------------
# census: whole-group orbit sweeps over finite fields
# ---------------------------------------------------------------------------

# (label, n, p, d, I, ext, Levi blocks): many orbits with a small zip group
# E, and few orbits with a large one.
CENSUSES = [
    ("GL4_F2_I2", 4, 2, 1, (2,), 1, (1, 2, 1)),
    ("GL2_F16_over_F2", 2, 2, 1, (), 4, (1, 1)),
    ("GL2_F7", 2, 7, 1, (), 1, (1, 1)),
]
ORBITS_ARGS = ["orbits", "--n", "2", "--q", "3", "--ext", "1..2"]
COUNTEREXAMPLE_QS = (2, 3, 4, 5)


def _census_canon(census):
    return {
        "ext": census.ext,
        "group_order": census.group_order,
        "orbits": [
            [mat(r.rep), r.size, r.stabilizer_order, list(r.cell) if r.cell is not None else None]
            for r in census.orbits
        ],
    }


def build_census(zs, inputs: dict) -> list[Job]:
    ff, gl, cli = zs.ffield, zs.grouplab, zs.cli
    jobs = []
    data = {}
    for label, n, p, d, I, ext, blocks in CENSUSES:
        field_ = ff.get_field(p, d)
        if ext > 1:
            ff.get_field(p, d * ext)
        datum = gl.make_zip_datum(n, field_, I)
        data[label] = datum
        Q = p ** (d * ext)
        order_e = zip_group_order(blocks, Q)

        def check(out, ctx, n=n, Q=Q, order_e=order_e):
            require(sum(out.sizes()) == out.group_order == gl_order(n, Q), "orbits cover GL_n(F_Q)")
            for r in out.orbits:
                require(r.size * r.stabilizer_order == order_e, "|orbit| * |stabilizer| == |E|")

        def props(out, order_e=order_e):
            k = len(out.orbits)
            return {"orbits": k, "E": order_e, "orbits_x_E": k * order_e,
                    "orbits_per_point": k / out.group_order}

        jobs.append(Job(
            f"census.zip_orbit_census.{label}",
            lambda datum=datum, ext=ext: gl.zip_orbit_census(datum, ext),
            _census_canon, check, props,
        ))

    def counterexamples():
        return [gl.counterexample_gl2(q) for q in COUNTEREXAMPLE_QS]

    def cx_canon(out):
        return [[c.q, list(c.orbit_sizes), c.orbit_dimension, c.codimension, c.fiber_size,
                 c.boundary_drop] for c in out]

    def cx_check(out, ctx):
        for c in out:
            require(c.orbit_sizes[0] == c.q * c.q - 1, "regular unipotent orbit has q^2-1 points")
            require(c.fiber_size == c.q * c.q and c.codimension == 2, "the boundary drops by two")

    jobs.append(Job("census.counterexample_gl2", counterexamples, cx_canon, cx_check))

    def orbits_check(out, ctx):
        code, text = out
        require(code == 0, "orbits CLI exits 0")
        for c in json.loads(text)["censuses"]:
            Q = 3 ** c["ext"]
            sizes = [o["size"] for o in c["orbits"]]
            require(sum(sizes) == c["group_order"] == gl_order(2, Q), "orbits cover GL_2(F_Q)")
            require(c["zip_group_order"] == zip_group_order((1, 1), Q), "|E| has its closed form")
            require(all(o["size"] * o["stabilizer_order"] == c["zip_group_order"]
                        for o in c["orbits"]), "|orbit| * |stabilizer| == |E|")

    jobs.append(Job("census.cli.orbits_n2_q3_ext1-2", lambda: run_cli(cli, ORBITS_ARGS),
                    check=orbits_check, cli=True))

    datum = data["GL4_F2_I2"]
    points = [tuple(tuple(row) for row in g) for g in inputs["stabilizer_points"]]

    def stabilizers():
        return [(len(gl.stabilizer(datum, g)), gl.bruhat_cell(datum, g).reduced_word()) for g in points]

    def stab_check(out, ctx):
        census = ctx["census.zip_orbit_census.GL4_F2_I2"]
        known = {(r.size, tuple(r.cell)) for r in census.orbits}
        order_e = zip_group_order((1, 2, 1), 2)
        for stab, cell in out:
            require(order_e % stab == 0, "the stabilizer order divides |E|")
            require((order_e // stab, tuple(cell)) in known, "orbit size and cell match the census")

    jobs.append(Job("census.stabilizer_and_cell.GL4_F2_I2_drawn", stabilizers,
                    lambda out: [[s, list(c)] for s, c in out], stab_check, seeded=True))
    return jobs


# ---------------------------------------------------------------------------
# classify: orbit search over growing extension fields
# ---------------------------------------------------------------------------


def build_classify(zs, inputs: dict) -> list[Job]:
    ff, gl, fz = zs.ffield, zs.grouplab, zs.fzip
    jobs = []
    for universe in ("r2", "r3"):
        entries, p, n, max_ext = CLASSIFY_UNIVERSES[universe]
        t = fz.FZipType.of(entries)
        base = ff.get_field(p, 1)
        for s in range(2, max_ext + 1):
            ff.get_field(p, s)
        points = gl.gl_points(n, base)
        _, par = fz.type_to_parabolic(t)
        datum = gl.make_zip_datum(n, base, par)
        for idx in inputs[universe]:
            g = points[idx]
            jobs.append(Job(
                f"classify.{universe}.{idx}",
                lambda t=t, g=g, p=p, max_ext=max_ext: _classify_module(fz, t, g, p, max_ext),
                _label_canon,
                _witness_check(ff, gl, datum, g, p),
                _label_props,
            ))

    shapes = {"ordinary": ORDINARY, "supersingular": SUPERSINGULAR}

    def dieudonne():
        out = {}
        for name, (F, V) in shapes.items():
            z = fz.dieudonne_to_fzip(F, V)
            out[name] = (z, fz.classify(z))
        return out

    def dieudonne_check(out, ctx):
        require(out["ordinary"][1].w.reduced_word() == (1,), "ordinary is the open stratum")
        require(out["supersingular"][1].w.reduced_word() == (), "supersingular is closed")

    jobs.append(Job(
        "classify.dieudonne_to_fzip",
        dieudonne,
        lambda out: {k: [fz.fzip_to_json(z), word(lab.w)] for k, (z, lab) in out.items()},
        dieudonne_check,
    ))

    r2_entries, r2_p, _, _ = CLASSIFY_UNIVERSES["r2"]
    r2_type = fz.FZipType.of(r2_entries)
    r2_points = gl.gl_points(2, ff.get_field(r2_p, 1))
    modules = [r2_points[idx] for idx in inputs["r2"][:4]]

    def algebra():
        out = []
        for g in modules:
            z = fz.fzip_from_group_element(r2_type, g, p=r2_p)
            text = fz.fzip_to_json(z)
            out.append((z, text, fz.fzip_from_json(text), fz.dual(z), fz.tensor(z, fz.tate_zip(1, p=r2_p))))
        return out

    def algebra_check(out, ctx):
        for z, text, back, dz, shifted in out:
            require(back == z, "the JSON encoding round-trips")
            require(fz.dual(dz) == z, "dual is an involution")
            require(fz.fzip_type(dz) == fz.fzip_type(z).reflect(), "dual reflects the type")
            require(fz.fzip_type(shifted).entries == ((1, 1), (2, 1)), "a weight-one line shifts weights")

    jobs.append(Job(
        "classify.json_dual_tensor.drawn",
        algebra,
        lambda out: [[text, fz.fzip_to_json(dz), fz.fzip_to_json(sh)] for _, text, _, dz, sh in out],
        algebra_check,
        seeded=True,
    ))
    return jobs


def _classify_module(fz, t, g, p, max_ext):
    z = fz.fzip_from_group_element(t, g, p=p)
    try:
        return fz.classify(z, max_ext=max_ext)
    except fz.Undetermined:
        return None


def _label_canon(label):
    if label is None:
        return "Undetermined"
    w = label.certificate
    return [word(label.w), w.ext, mat(w.representative)]


def _label_props(label):
    return {"witness": "Undetermined" if label is None else f"ext{label.certificate.ext}"}


def _witness_check(ff, gl, datum, g, p):
    """The witness found by classify lies in the zip orbit of the module's g."""

    def check(label, ctx):
        if label is None:
            return
        w = label.certificate
        big = ff.get_field(p, w.ext)
        start = g if w.ext == 1 else ff.mat_embed(big.embedding_from(ff.get_field(p, 1)), g)
        hits, _ = gl.zip_orbit_search(datum, start, [w.representative], ext=w.ext)
        require(hits == (w.representative,), "the witness lies in the module's orbit")

    return check


# ---------------------------------------------------------------------------
# witt: Galois-ring arithmetic, one ring with many ops and many rings with few
# ---------------------------------------------------------------------------

WITT_ARGS = ["witt", "--p", "2", "--d", "1", "--m", "3", "--n", "2", "--check-reduction"]


def build_witt(zs, inputs: dict) -> list[Job]:
    wt, cli = zs.witt, zs.cli
    rings = [wt.make_ring(p, d, m) for p, d, m in witt_rings()]
    ring3 = wt.make_ring(3, 1, 2)
    wt.make_ring(2, 1, 3)
    wt.make_ring(2, 1, 1)
    elements = inputs["elements"]

    def identity():
        out = []
        for ring, drawn in zip(rings, elements):
            p = ring.p
            out.append(sum(
                1 for coeffs in drawn
                if wt.frobenius(wt.verschiebung(x := wt.GaloisRingElement(ring, tuple(coeffs)))) == x * p
            ))
        return out

    def identity_check(out, ctx):
        require(len(out) == 1350, "every ring with at most 10^4 elements")
        require(all(k == WITT_ELEMENTS_PER_RING for k in out), "sigma(V(x)) == p*x on every element")

    def display_axioms():
        points = wt.display_group_points(ring3, 2, 1)
        out = []
        for i, j, z in inputs["triples"]:
            x, y = points[i], points[j]
            xy = x * y
            zz = wt.ring_matrix(ring3, z)
            out.append((
                wt.rmat_mul(ring3, wt.iota(x), wt.iota(y)) == wt.iota(xy),
                wt.rmat_mul(ring3, wt.sigma_mu(x), wt.sigma_mu(y)) == wt.sigma_mu(xy),
                wt.display_action(xy, zz) == wt.display_action(x, wt.display_action(y, zz)),
            ))
        return len(points), out

    def display_check(out, ctx):
        count, laws = out
        require(count == 2916, "the display group over W_2(F_3) has 2916 points")
        require(all(all(row) for row in laws), "iota, sigma_mu are homomorphisms and the action is one")

    def reduction_check(out, ctx):
        code, text = out
        require(code == 0, "witt CLI exits 0")
        report = json.loads(text)
        require(report["violations"] == [], "every level-3 orbit reduces into one level-1 orbit")
        require(report["orbits_m"] >= report["orbits_1"] > 0, "level 3 refines level 1")

    def witt_props(out):
        return {"rings": len(rings), "elements_per_ring": WITT_ELEMENTS_PER_RING,
                "element_ops_per_ring": 3 * WITT_ELEMENTS_PER_RING}

    return [
        Job("witt.cli.check_reduction_p2_m3_n2", lambda: run_cli(cli, WITT_ARGS),
            check=reduction_check, cli=True),
        Job("witt.frobenius_verschiebung.all_rings_drawn", identity,
            check=identity_check, props=witt_props, seeded=True),
        Job("witt.display_axioms.W2F3_drawn", display_axioms, check=display_check, seeded=True),
    ]


BUILDERS = {
    "strata": build_strata,
    "census": build_census,
    "classify": build_classify,
    "witt": build_witt,
}


def build(workload: str, seed: int, zs, reference: dict | None = None) -> Workload:
    inputs = draw(workload, seed, reference)
    return Workload(inputs, BUILDERS[workload](zs, inputs))
