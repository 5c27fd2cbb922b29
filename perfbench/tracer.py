"""Per-layer tracing from outside the program.

The tracer replaces public tropnc functions with timing wrappers in every
tropnc module namespace that holds them, so calls between modules are
seen too.  Each wrapped call adds to its name's call count and total
time; its self time is the total minus the time of wrapped calls made
inside it.  Counts that need the call's arguments or result are recorded
as raw records and derived after tracing stops, so that deriving them is
not timed.  Nothing under src/ is modified; `uninstall` restores every
replaced attribute.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time

# (module, attribute) pairs wrapped by the tracer.  "PlueckerVector" wraps
# the class constructor.
TARGETS = (
    ("combinat", "maximal_noncrossing_collections"),
    ("ncfan", "nc_decompose"),
    ("ncfan", "psi"),
    ("ladder", "rho"),
    ("ladder", "enumerate_path_families"),
    ("pluecker", "PlueckerVector"),
    ("pluecker", "is_positive_tropical"),
    ("planar", "planar_expand"),
    ("planar", "tropical_u"),
    ("weight", "weight_report"),
    ("weight", "pk_weight"),
    ("weight", "bridge"),
    ("troplin", "diameter_check"),
    ("troplin", "bounded_complex_vertices"),
    ("troplin", "is_connected"),
    ("troplin", "bounded_complex_edges"),
    ("troplin", "face_dimension_at"),
)

# Marks the stderr line on which a traced CLI child reports its sums.
TRACE_PREFIX = "PERFBENCH_TRACE "

# Calls whose arguments or results feed a derived count.
RECORDED = ("ncfan.nc_decompose", "ladder.rho", "troplin.bounded_complex_vertices")

# Per-layer metrics reported by a traced run: (name, unit, better).
LAYER_METRICS = (
    ("combinat.maximal_noncrossing_collections.total_s", "s", "lower"),
    ("ncfan.nc_decompose.calls", "count", "lower"),
    ("ncfan.nc_decompose.total_s", "s", "lower"),
    ("ncfan.nc_decompose.self_s", "s", "lower"),
    ("ncfan.psi.total_s", "s", "lower"),
    ("ncfan.cones_per_decompose", "computed_count", "lower"),
    ("ladder.rho.calls", "count", "lower"),
    ("ladder.rho.total_s", "s", "lower"),
    ("ladder.rho.self_s", "s", "lower"),
    ("ladder.enumerate_path_families.calls", "count", "lower"),
    ("ladder.enumerate_path_families.total_s", "s", "lower"),
    ("ladder.path_families_per_rho", "computed_count", "lower"),
    ("pluecker.PlueckerVector.calls", "count", "lower"),
    ("pluecker.PlueckerVector.total_s", "s", "lower"),
    ("pluecker.is_positive_tropical.total_s", "s", "lower"),
    ("planar.planar_expand.calls", "count", "lower"),
    ("planar.planar_expand.total_s", "s", "lower"),
    ("planar.planar_expand.self_s", "s", "lower"),
    ("planar.tropical_u.calls", "count", "lower"),
    ("planar.tropical_u.total_s", "s", "lower"),
    ("weight.weight_report.self_s", "s", "lower"),
    ("weight.pk_weight.total_s", "s", "lower"),
    ("weight.bridge.total_s", "s", "lower"),
    ("troplin.diameter_check.total_s", "s", "lower"),
    ("troplin.diameter_check.self_s", "s", "lower"),
    ("troplin.bounded_complex_vertices.total_s", "s", "lower"),
    ("troplin.bounded_complex_vertices.self_s", "s", "lower"),
    ("troplin.is_connected.calls", "count", "lower"),
    ("troplin.bounded_complex_edges.total_s", "s", "lower"),
    ("troplin.bounded_complex_edges.self_s", "s", "lower"),
    ("troplin.face_dimension_at.calls", "count", "lower"),
    ("troplin.sector_assignments", "computed_count", "lower"),
    ("troplin.vertices", "count", "higher"),
    ("troplin.vertex_yield", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("trace.untraced_round_s", "s", "lower"),
    ("trace.traced_round_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _tropnc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tropnc" or name.startswith("tropnc."))]


class Tracer:
    """Timing wrappers around TARGETS, plus any extra (module, attr) pairs."""

    def __init__(self, extra=()):
        self.targets = TARGETS + tuple(extra)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.records: dict[str, list] = {name: [] for name in RECORDED}
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        records = self.records.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
            if records is not None:
                records.append((args, kwargs, result))
            return result

        return traced

    def install(self):
        for modname, attr in self.targets:
            module = sys.modules["tropnc." + modname]
            orig = getattr(module, attr)
            name = f"{modname}.{attr}"
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                orig.__init__ = self._wrap(name, init)
                self._restore.append((orig, "__init__", init))
                continue
            wrapped = self._wrap(name, orig)
            for m in _tropnc_modules():
                if vars(m).get(attr) is orig:
                    setattr(m, attr, wrapped)
                    self._restore.append((m, attr, orig))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def sums(self) -> dict[str, float]:
        """Flat name -> value map of calls/total_s/self_s per wrapped name,
        plus the raw counts behind the derived metrics.  Call after
        `uninstall`, so that deriving the counts is not traced."""
        from tropnc import combinat, ladder, planar, troplin

        out: dict[str, float] = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_time

        out["ncfan.cones_scanned"] = sum(
            len(combinat.maximal_noncrossing_collections(t.k, t.n))
            for (t, *_), _, _ in self.records["ncfan.nc_decompose"])

        families_at: dict[tuple[int, int], int] = {}

        def families(k: int, n: int) -> int:
            if (k, n) not in families_at:
                families_at[k, n] = sum(
                    len(ladder.enumerate_path_families(combinat.ksubset(n, I)))
                    for I in itertools.combinations(range(1, n + 1), k))
            return families_at[k, n]

        out["ladder.path_families"] = sum(
            families(t.k, t.n) for (t, *_), _, _ in self.records["ladder.rho"])

        assignments = vertices = 0
        for args, kwargs, report in self.records["troplin.bounded_complex_vertices"]:
            coeffs = args[1] if len(args) > 1 else kwargs.get("coeffs")
            if coeffs is None:
                coeffs = planar.planar_expand(args[0])
            assignments += math.prod(
                len(troplin.central_roof(J).W) for J, c in coeffs.items() if c != 0)
            vertices += len(report.vertices)
        out["troplin.sector_assignments"] = assignments
        out["troplin.vertices"] = vertices
        return out


def merge(into: dict[str, float], more: dict[str, float]):
    """Add the sums of `more` into `into`."""
    for name, value in more.items():
        into[name] = into.get(name, 0) + value


def layer_metrics(sums: dict[str, float]) -> dict[str, float]:
    """The LAYER_METRICS values from summed traces; absent layers read 0."""

    def ratio(num: str, den: str) -> float:
        return sums.get(num, 0) / sums[den] if sums.get(den) else 0

    derived = {
        "ncfan.cones_per_decompose": ratio("ncfan.cones_scanned", "ncfan.nc_decompose.calls"),
        "ladder.path_families_per_rho": ratio("ladder.path_families", "ladder.rho.calls"),
        "troplin.vertex_yield": ratio("troplin.vertices", "troplin.sector_assignments"),
    }
    return {name: derived.get(name, sums.get(name, 0)) for name, _, _ in LAYER_METRICS}
