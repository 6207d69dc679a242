"""One workload run in a fresh interpreter.

    python3 bench/child.py --workload census --seed 3 --trace 0 --spawned-at T

Imports zipstrata from the checkout's src/, builds the workload (set-up),
runs each job once, then checks every output against the reference digests
and the job's exact invariants.  The last line of stdout is one JSON record.
T is the parent's time.perf_counter() just before the spawn; on Linux that
clock is system-wide, so set-up is measured from the spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def digest(value) -> str:
    data = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def import_zipstrata():
    sys.path.insert(0, str(SRC_DIR))
    import zipstrata
    from zipstrata import cli, coxeter, ffield, fzip, grouplab, witt, zipdatum

    if Path(zipstrata.__file__).resolve().parent != SRC_DIR / "zipstrata":
        raise ImportError(f"zipstrata came from {zipstrata.__file__}, not from {SRC_DIR}")
    return zipstrata, SimpleNamespace(
        coxeter=coxeter, zipdatum=zipdatum, ffield=ffield, grouplab=grouplab,
        fzip=fzip, witt=witt, cli=cli,
    )


def run(workload: str, seed: int, trace: bool = False, spawned_at: float | None = None,
        only: list[str] | None = None, reference: dict | None = None) -> dict:
    """Set up, run and check one workload; returns the child's record."""
    t_start = time.perf_counter()
    package, zs = import_zipstrata()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(package)
    reference = reference or workloads.load_reference()

    def setup():
        return workloads.build(workload, seed, zs, reference)

    wl = setup() if tracer is None else tracer.call("bench.setup", setup)
    jobs = [j for j in wl.jobs if only is None or j.name in only]
    counts_before_jobs = dict(tracer.flush_counts()) if tracer is not None else {}

    outputs, durations, errors = {}, {}, {}
    clock = time.perf_counter
    t_first = clock()
    for job in jobs:
        t0 = clock()
        try:
            out = job.run() if tracer is None else tracer.call("bench.job", job.run)
        except Exception as exc:  # an unexpected exception is a failed job
            traceback.print_exc()
            errors[job.name] = f"raised {type(exc).__name__}: {exc}"
            out = None
        durations[job.name] = clock() - t0
        outputs[job.name] = out
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wrappers = tracing.installed_wrappers(package)
    if tracer is not None:
        tracer.uninstall()

    digests = reference["digests"]
    inputs_digest = digest(wl.inputs)
    results, props, stdout_bytes = {}, {}, 0
    for job in jobs:
        key = job.reference_key(inputs_digest)
        entry = results[job.name] = {"seconds": durations[job.name], "key": key}
        if job.name in errors:
            continue
        out = outputs[job.name]
        try:
            entry["digest"] = got = digest(job.canon(out))
            want = digests.get(key)
            if want is not None and want != got:
                errors[job.name] = f"digest {got[:12]} differs from the reference {want[:12]}"
            job.check(out, outputs)
            props[job.name] = job.props(out)
            if job.cli:
                stdout_bytes += len(out[1].encode())
        except Exception as exc:
            errors.setdefault(job.name, f"check {type(exc).__name__}: {exc}")

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(jobs),
        "failed": len(errors),
        "errors": errors,
        "wall_s": sum(durations.values()),
        "setup_s": t_first - (spawned_at if spawned_at is not None else t_start),
        "peak_rss_mb": rss_kib / 1024.0,
        "jobs": results,
        "props": props,
        "inputs": inputs_digest,
        "wrappers_installed": wrappers,
    }
    if tracer is not None:
        layers = tracing.summarize(tracer, counts_before_jobs)
        own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if abs(own - layers["bench.job.total_s"]) > 1e-6 * layers["bench.job.total_s"]:
            errors["trace"] = "the spans' self times do not add up to the traced wall time"
            record["failed"] = len(errors)
        layers["cli.stdout_bytes"] = stdout_bytes
        layers["trace.spans"] = len(tracer.span_name)
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload once.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--only", action="append", help="run only the named job (repeatable)")
    ns = ap.parse_args(argv)
    record = run(ns.workload, ns.seed, bool(ns.trace), ns.spawned_at, ns.only)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
