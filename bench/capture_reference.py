"""Capture bench/reference.json from the current source tree.

    python3 bench/capture_reference.py

Run it only on a commit whose outputs are known to be right: the digests it
writes are what every later run is compared against.  It records

- the class of every classify candidate (witness extension or Undetermined,
  plus the orbit sizes the sweep visits), which the seeded draw stratifies by;
- the sha256 of every job's canonical output for seed 0;
- the digest of every classify candidate, so drawn classify jobs are checked
  by digest for every seed.
"""

from __future__ import annotations

import json
import sys

import child
import workloads

DEFAULT_SEED = 0


def classify_classes(zs) -> dict[str, list[str]]:
    fz, gl, ff = zs.fzip, zs.grouplab, zs.ffield
    visited: list[int] = []
    search = fz.zip_orbit_search

    def logged(*args, **kwargs):
        result = search(*args, **kwargs)
        visited.append(result[1])
        return result

    fz.zip_orbit_search = logged
    try:
        out = {}
        for universe, (entries, p, n, max_ext) in workloads.CLASSIFY_UNIVERSES.items():
            t = fz.FZipType.of(entries)
            classes = []
            for g in gl.gl_points(n, ff.get_field(p, 1)):
                visited.clear()
                label = workloads._classify_module(fz, t, g, p, max_ext)
                kind = "U" if label is None else f"ext{label.certificate.ext}"
                classes.append(f"{kind}/{','.join(map(str, visited))}")
            out[universe] = classes
        return out
    finally:
        fz.zip_orbit_search = search


def main() -> int:
    _, zs = child.import_zipstrata()
    classes = classify_classes(zs)
    reference = {"classify_classes": classes, "digests": {}}
    digests = reference["digests"]
    everything = {u: list(range(len(c))) for u, c in classes.items()}
    for job in workloads.build_classify(zs, everything):
        if job.name.startswith(("classify.r2.", "classify.r3.")):
            digests[job.name] = child.digest(job.canon(job.run()))
    for name in workloads.WORKLOADS:
        record = child.run(name, DEFAULT_SEED, reference=reference)
        if record["failed"]:
            print(f"{name}: invariant checks failed: {record['errors']}", file=sys.stderr)
            return 1
        for entry in record["jobs"].values():
            digests.setdefault(entry["key"], entry["digest"])
        print(f"{name}: {record['attempted']} jobs, {record['wall_s']:.2f} s", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
