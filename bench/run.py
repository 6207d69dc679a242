"""The zipstrata benchmark.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the root of a checkout.  Each measurement is one fresh interpreter
(bench/child.py) that imports zipstrata from src/, sets the workload up, runs
its fixed job list once and checks every output.  Children run one after
another, never two at once, until --seconds is used up; the end-to-end
metrics are the medians over the children.  With --trace 1 the run
alternates an untraced child with a traced one and reports the per-layer
metrics of the traced children plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A child that crashes, or a tree without src/zipstrata,
ends the run with a non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
MAX_CHILDREN = 64

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _ratio(num: str, den: str, scale: float = 1.0):
    def f(layers):
        d = layers.get(den, 0) * scale
        return layers.get(num, 0) / d if d else 0.0
    return f


def _half(key: str):
    return lambda layers: layers.get(key, 0) / 2


def _layer_self(prefix: str):
    return lambda layers: sum(
        v for k, v in layers.items() if k.startswith(prefix + ".") and k.endswith(".self_s")
    )


# (name, unit, better, how to read it from the traced child's summary).  A
# plain string is read as is; "products" are (left, right) pairs applied, two
# matrix products each, counted as the product calls made directly under the
# sweep's span.
PER_LAYER = [
    ("coxeter.self_s", "s", "lower", _layer_self("coxeter")),
    ("coxeter.bruhat_leq.calls", "count", "lower", "coxeter.bruhat_leq.calls"),
    ("coxeter.bruhat_leq.self_s", "s", "lower", "coxeter.bruhat_leq.self_s"),
    ("coxeter.min_coset_reps.self_s", "s", "lower", "coxeter.min_coset_reps.self_s"),
    ("coxeter.create_weyl.self_s", "s", "lower", "coxeter.create_weyl.self_s"),
    ("coxeter.create_weyl.setup_s", "s", "lower", "coxeter.create_weyl.setup_s"),
    ("zipdatum.self_s", "s", "lower", _layer_self("zipdatum")),
    ("zipdatum.zip_from_cocharacter.setup_s", "s", "lower", "zipdatum.zip_from_cocharacter.setup_s"),
    ("zipdatum.stratum_poset.self_s", "s", "lower", "zipdatum.stratum_poset.self_s"),
    ("zipdatum.stratum_poset.strata", "count", "lower", "zipdatum.stratum_poset.strata"),
    ("zipdatum.purity_check.self_s", "s", "lower", "zipdatum.purity_check.self_s"),
    ("zipdatum.export_poset.self_s", "s", "lower", "zipdatum.export_poset.self_s"),
    ("zipdatum.export_poset.bytes", "B", "lower", "zipdatum.export_poset.bytes"),
    ("zipdatum.import_poset.self_s", "s", "lower", "zipdatum.import_poset.self_s"),
    ("ffield.self_s", "s", "lower", _layer_self("ffield")),
    ("ffield.get_field.self_s", "s", "lower", "ffield.get_field.self_s"),
    ("ffield.get_field.setup_s", "s", "lower", "ffield.get_field.setup_s"),
    ("ffield.mat_mul.calls", "count", "lower", "ffield.mat_mul.calls"),
    ("ffield.mat_mul.self_s", "s", "lower", "ffield.mat_mul.self_s"),
    ("ffield.mat_mul.scalar_mults", "count", "lower", "ffield.mat_mul.scalar_mults"),
    ("ffield.mat_inv.calls", "count", "lower", "ffield.mat_inv.calls"),
    ("ffield.mat_inv.self_s", "s", "lower", "ffield.mat_inv.self_s"),
    ("ffield.field_mul.calls", "count", "lower", "ffield.field_mul.calls"),
    ("grouplab.self_s", "s", "lower", _layer_self("grouplab")),
    ("grouplab.gl_points.points", "count", "lower", "grouplab.gl_points.points"),
    ("grouplab.zip_group_points.calls", "count", "lower", "grouplab.zip_group_points.calls"),
    ("grouplab.zip_group_points.points", "count", "lower", "grouplab.zip_group_points.points"),
    ("grouplab.zip_orbit_census.self_s", "s", "lower", "grouplab.zip_orbit_census.self_s"),
    ("grouplab.zip_orbit_census.orbits", "count", "lower", "grouplab.zip_orbit_census.orbits"),
    ("grouplab.zip_orbit_census.products", "count", "lower",
     _half("ffield.mat_mul<grouplab.zip_orbit_census")),
    ("grouplab.zip_orbit_census.useful_ratio", "ratio", "higher",
     _ratio("grouplab.zip_orbit_census.points", "ffield.mat_mul<grouplab.zip_orbit_census", 0.5)),
    ("grouplab.bruhat_cell.self_s", "s", "lower", "grouplab.bruhat_cell.self_s"),
    ("grouplab.zip_orbit_search.calls", "count", "lower", "grouplab.zip_orbit_search.calls"),
    ("grouplab.zip_orbit_search.visited", "count", "lower", "grouplab.zip_orbit_search.visited"),
    ("grouplab.zip_orbit_search.products", "count", "lower",
     _half("ffield.mat_mul<grouplab.zip_orbit_search")),
    ("grouplab.zip_orbit_search.useful_ratio", "ratio", "higher",
     _ratio("grouplab.zip_orbit_search.visited", "ffield.mat_mul<grouplab.zip_orbit_search", 0.5)),
    ("grouplab.zip_orbit_search.self_s", "s", "lower", "grouplab.zip_orbit_search.self_s"),
    ("fzip.self_s", "s", "lower", _layer_self("fzip")),
    ("fzip.classify.calls", "count", "lower", "fzip.classify.calls"),
    ("fzip.classify.self_s", "s", "lower", "fzip.classify.self_s"),
    ("fzip.classify.levels_swept", "count", "lower", "grouplab.zip_orbit_search<fzip.classify"),
    ("fzip.classify.undetermined", "count", "lower", "fzip.classify.raised.Undetermined"),
    ("fzip.attached_group_element.self_s", "s", "lower", "fzip.attached_group_element.self_s"),
    ("fzip.fzip_from_group_element.self_s", "s", "lower", "fzip.fzip_from_group_element.self_s"),
    ("witt.self_s", "s", "lower", _layer_self("witt")),
    ("witt.make_ring.calls", "count", "lower", "witt.make_ring.calls"),
    ("witt.make_ring.self_s", "s", "lower", "witt.make_ring.self_s"),
    ("witt.make_ring.setup_s", "s", "lower", "witt.make_ring.setup_s"),
    ("witt.element_mul.calls", "count", "lower", "witt.element_mul.calls"),
    ("witt.element_add.calls", "count", "lower", "witt.element_add.calls"),
    ("witt.frobenius.calls", "count", "lower", "witt.frobenius.calls"),
    ("witt.verschiebung.calls", "count", "lower", "witt.verschiebung.calls"),
    ("witt.rmat_mul.calls", "count", "lower", "witt.rmat_mul.calls"),
    ("witt.rmat_mul.self_s", "s", "lower", "witt.rmat_mul.self_s"),
    ("witt.rmat_inv.calls", "count", "lower", "witt.rmat_inv.calls"),
    ("witt.display_group_points.points", "count", "lower", "witt.display_group_points.points"),
    ("witt.display_orbit_partition.self_s", "s", "lower", "witt.display_orbit_partition.self_s"),
    ("witt.display_orbit_partition.products", "count", "lower",
     _half("witt.rmat_mul<witt.display_orbit_partition")),
    ("witt.display_orbit_partition.useful_ratio", "ratio", "higher",
     _ratio("witt.display_orbit_partition.points", "witt.rmat_mul<witt.display_orbit_partition", 0.5)),
    ("witt.check_reduction.self_s", "s", "lower", "witt.check_reduction.self_s"),
    ("cli.main.calls", "count", "lower", "cli.main.calls"),
    ("cli.main.self_s", "s", "lower", "cli.main.self_s"),
    ("cli.stdout_bytes", "B", "lower", "cli.stdout_bytes"),
    ("bench.self_s", "s", "lower", "bench.job.self_s"),
    ("trace.wall_s", "s", "lower", "bench.job.total_s"),
    ("trace.setup_s", "s", "lower",
     lambda layers: sum(v for k, v in layers.items() if k.endswith(".setup_s"))),
    ("trace.overhead_s", "s", "lower", None),  # traced minus untraced wall_s
    ("trace.spans", "count", "lower", "trace.spans"),
]


class RunFailed(RuntimeError):
    """A child could not produce a record; the run ends without a result."""


def environment() -> dict:
    """What produced these numbers: commit, source hash, interpreter, machine."""
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one child to completion and return its record."""
    # Every child compiles the sources afresh and writes nothing into the tree,
    # so the first child of a checkout sets up like every other one.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONOPTIMIZE", None)  # result checks use assert; never run them optimised
    t_spawn = time.perf_counter()
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--spawned-at", repr(t_spawn),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload} child did not finish within the run's time limit")
    if proc.returncode != 0:
        raise RunFailed(f"{workload} child exited with {proc.returncode}:\n{err.strip()}")
    sys.stderr.write(err)
    record = json.loads(out.strip().splitlines()[-1])
    record["elapsed_s"] = time.perf_counter() - t_spawn
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Children one after another until the budget would be exceeded."""
    start = time.perf_counter()
    budget_end = start + seconds
    hard_end = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        plain.append(spawn(workload, seed, False, hard_end))
        if trace:
            traced.append(spawn(workload, seed, True, hard_end))
        rounds.append(time.perf_counter() - t0)
        if len(rounds) >= MAX_CHILDREN:
            break
        if time.perf_counter() + statistics.median(rounds) > budget_end:
            break
    return plain, traced


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, unit, _, source in PER_LAYER:
        if source is None:
            value = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        elif callable(source):
            value = statistics.median(source(rec["layers"]) for rec in traced)
        else:
            value = statistics.median(rec["layers"].get(source, 0) for rec in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def summarize(plain: list[dict], traced: list[dict], trace: bool) -> dict:
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {name: {"value": median_of(plain, name), "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def input_properties(props: dict[str, dict]) -> dict:
    """Per-job properties; string-valued ones are tallied across the jobs."""
    out: dict = {}
    for job, values in props.items():
        for key, value in values.items():
            if isinstance(value, str):
                tally = out.setdefault(key, {})
                tally[value] = tally.get(value, 0) + 1
            else:
                out.setdefault(job, {})[key] = value
    return out


def report(workload: str, seed: int, plain: list[dict], traced: list[dict], result: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"workload {workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced children")
    for name, unit in END_TO_END:
        vals = sorted(r[name] for r in plain)
        print(f"  {name:<12} {statistics.median(vals):10.4f} {unit:<4} (min {vals[0]:.4f}, max {vals[-1]:.4f})")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<12} {frac:10.4f} ratio ({result['failed']} of {result['attempted']} jobs)")
    if traced:
        overhead = result["metrics"]["trace.overhead_s"]["value"]
        print(f"  {'trace overhead':<12} {overhead:10.4f} s    (traced minus untraced wall_s)")
    for rec in plain + traced:
        for job, err in rec["errors"].items():
            print(f"  FAILED {job}: {err}")
    print("props " + json.dumps(input_properties(plain[0]["props"]), sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the zipstrata benchmark.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "zipstrata" / "__init__.py").is_file():
        print(f"no zipstrata sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    try:
        for name in names:
            plain, traced = measure(name, ns.seed, ns.seconds, bool(ns.trace))
            results[name] = summarize(plain, traced, bool(ns.trace))
            report(name, ns.seed, plain, traced, results[name])
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if ns.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[ns.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
