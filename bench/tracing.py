"""Spans and counters recorded from outside the program.

`Tracer.install` patches the public functions of every zipstrata module
with wrappers that record one span (name, start, end, parent) per call into
flat in-memory arrays.  A handful of scalar kernels are too hot to time;
their wrappers only count calls.  An untraced run installs nothing.
"""

from __future__ import annotations

import time
from array import array

MODULES = ("coxeter", "zipdatum", "ffield", "grouplab", "fzip", "witt", "cli")

# The only cli function wrapped; the cmd_* helpers run inside it, so its self
# time is parsing, formatting and writing, minus the library spans.
CLI_FUNCTIONS = ("main",)

# Scalar kernels called millions of times: counted, not timed.  Their time
# lands in the self time of the span that called them.
COUNT_ONLY_METHODS = (
    ("ffield", "FiniteField", "mul", "ffield.field_mul.calls"),
    ("witt", "GaloisRingElement", "__mul__", "witt.element_mul.calls"),
    ("witt", "GaloisRingElement", "__add__", "witt.element_add.calls"),
)


def _shape_mults(args, result):
    _, a, b = args[:3]
    return len(a) * len(b) * (len(b[0]) if b else 0)


# Work counts taken from a call's arguments or result, keyed by function.
MEASURES = {
    "ffield.mat_mul": (("scalar_mults", _shape_mults),),
    "zipdatum.stratum_poset": (("strata", lambda args, r: len(r.carrier)),),
    "zipdatum.export_poset": (("bytes", lambda args, r: len(r.encode())),),
    "grouplab.gl_points": (("points", lambda args, r: len(r)),),
    "grouplab.zip_group_points": (("points", lambda args, r: len(r)),),
    "grouplab.zip_orbit_census": (
        ("orbits", lambda args, r: len(r.orbits)),
        ("points", lambda args, r: sum(r.sizes())),
    ),
    "grouplab.zip_orbit_search": (("visited", lambda args, r: r[1]),),
    "witt.display_group_points": (("points", lambda args, r: len(r)),),
    "witt.display_orbit_partition": (("points", lambda args, r: sum(len(o) for o in r)),),
}


class Tracer:
    """Flat span storage; index -1 is the parent of root spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, measures=()):
        """Wrap fn so that every call records a span under `name`."""
        fid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        clock = time.perf_counter
        raised_prefix = name + ".raised."
        measures = tuple((f"{name}.{suffix}", f) for suffix, f in measures)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tag = raised_prefix + type(exc).__name__
                counts[tag] = counts.get(tag, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            for key, measure in measures:
                counts[key] = counts.get(key, 0) + measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__bench_traced__ = True
        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so that calls are only counted."""
        cell = self._cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__bench_traced__ = True
        return wrapper

    def call(self, name: str, fn):
        """Run fn() as a root span; the harness's own share is its self time."""
        return self.span(name, fn)()

    def flush_counts(self) -> dict[str, int]:
        for key, cell in self._cells.items():
            self.counts[key] = cell[0]
        return self.counts

    # -- patching ----------------------------------------------------------

    def install(self, package) -> int:
        """Patch every zipstrata namespace; returns the number of wrappers."""
        import importlib

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not _is_public_function(obj, mod.__name__, attr):
                    continue
                if short == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.span(name, obj, MEASURES.get(name, ()))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapped)
        for short, cls_name, meth, key in COUNT_ONLY_METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self.counter(key, vars(cls)[meth]))
        return len(self._patched)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def spans(self) -> list[tuple[int, int, float, float]]:
        return list(zip(self.span_name, self.span_parent, self.span_start, self.span_end))


def _is_public_function(obj, module_name: str, attr: str) -> bool:
    return (
        not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
        and getattr(obj, "__name__", None) == attr
    )


def installed_wrappers(package) -> int:
    """How many traced wrappers are reachable from the package's modules."""
    import sys

    found = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
            continue
        for value in list(vars(mod).values()):
            if getattr(value, "__bench_traced__", False):
                found += 1
            elif isinstance(value, type):
                found += sum(
                    1 for v in vars(value).values() if getattr(v, "__bench_traced__", False)
                )
    return found


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    spans is a sequence of (name, parent, start, end) with parent -1 for a
    root.  Overlapping children are merged, and children are clipped to
    their parent's interval, so the result never counts an instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        kids = children.get(idx)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer, before_jobs: dict[str, int]) -> dict[str, float]:
    """Per-function metrics of the job spans, with set-up kept apart.

    Spans under a root named "bench.setup" only add their self time to
    "<name>.setup_s"; every other span adds to "<name>.calls", ".self_s" and
    ".total_s", and to "<name><<parent>" call counts.  Counters are taken
    relative to `before_jobs`, their values when the first job started.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    names = tracer.names
    setup_id = tracer.name_id("bench.setup")
    roots: list[int] = []
    out: dict[str, float] = {}
    for idx, ((fid, parent, start, end), own) in enumerate(zip(spans, selfs)):
        root = idx if parent < 0 else roots[parent]
        roots.append(root)
        name = names[fid]
        if spans[root][0] == setup_id:
            out[name + ".setup_s"] = out.get(name + ".setup_s", 0.0) + own
            continue
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
        out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + (end - start)
        if parent >= 0:
            edge = f"{name}<{names[spans[parent][0]]}"
            out[edge] = out.get(edge, 0) + 1
    for key, value in tracer.flush_counts().items():
        out[key] = value - before_jobs.get(key, 0)
    return out
