"""Span tracer for the traced run.

The tracer wraps public functions of the library from outside: no file of
the program changes.  A function is wrapped in every namespace that binds
it -- its defining module, modules that from-import it (for example
`analysis.orbit_diagnostics`, `acceptance.tube_samples`) and module-level
lists such as `acceptance._CRITERIA` -- and `uninstall` puts every original
back.

Each call records a span (id, parent id, function, start, end) in memory;
`write_spans` writes them out once the run is over.  Self time is a span's
duration minus the durations of its direct child spans.  The library is
single-threaded and waits on no queue, lock or I/O, so there is no wait
time to record.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# The functions traced per module.  `acceptance` contributes its criteria.
LAYERS = {
    "geometry": ("kob_dist", "kob_matrix", "horofunction", "horo_raw",
                 "dist_to_geodesic", "koranyi_functional",
                 "boundary_adapted_point", "with_reference", "apply",
                 "apply_raw"),
    "catalog": ("step_point", "adapted_step", "evaluate", "jacobian",
                "estimate_dilation", "classify_dynamics",
                "ensure_pole_clearance", "self_map_check"),
    "orbits": ("stopping_time", "harvest_chain", "orbit_diagnostics",
               "analyze_orbit", "newton_preimage",
               "backward_orbit_via_preimages", "construct_backward_orbit",
               "orbit_csv"),
    "analysis": ("orbit_distance_profile", "shift_recovery",
                 "tube_covering_check", "region_equivalence_check",
                 "premodel_validate"),
    "sampling": ("tube_samples", "sample_horodisc"),
    "cli": ("parse_mapspec", "main"),
}
CRITERIA = tuple(f"criterion_{n:02d}" for n in range(1, 10))

# What a call returned, summed per function, for the ratio metrics.
RESULT_COUNTS = {
    "orbits.construct_backward_orbit": lambda r: len(r.orbit),
    "orbits.backward_orbit_via_preimages": lambda r: len(r.orbit) - 1,
    "catalog.adapted_step": lambda r: r is not None,
    "sampling.tube_samples": len,
}


def traced_names():
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"acceptance.{c}" for c in CRITERIA]


class Tracer:
    def __init__(self):
        self.names = traced_names()
        n = len(self.names)
        self.calls = [0] * n
        self.raised = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.results = [0] * n
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_fn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._id_stack = [-1]
        self._child_s = [0.0]
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "ballorbits" or name.startswith("ballorbits.")}
        originals = []
        for fid, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            mod = pkg[f"ballorbits.{mod_name}"]
            if mod_name == "acceptance":
                fn = next(c for c in mod._CRITERIA
                          if c.__name__.startswith(fn_name + "_"))
            else:
                fn = getattr(mod, fn_name)
            originals.append((fn, self._wrap(fid, fn)))
        for mod in pkg.values():
            space = vars(mod)
            for key, val in list(space.items()):
                for fn, wrapper in originals:
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((space, key, fn))
                if isinstance(val, list):
                    for i, item in enumerate(val):
                        for fn, wrapper in originals:
                            if item is fn:
                                val[i] = wrapper
                                self._restore.append((val, i, fn))

    def uninstall(self):
        for container, key, fn in reversed(self._restore):
            container[key] = fn
        self._restore.clear()

    def _wrap(self, fid, fn):
        calls, raised = self.calls, self.raised
        self_s, total_s = self.self_s, self.total_s
        ids, child_s = self._id_stack, self._child_s
        s_id, s_parent, s_fn = self.span_id, self.span_parent, self.span_fn
        s_start, s_end = self.span_start, self.span_end
        count_result = RESULT_COUNTS.get(self.names[fid])
        results = self.results
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = ids[-1]
            ids.append(sid)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                t1 = clock()
                ids.pop()
                dur = t1 - t0
                self_s[fid] += dur - child_s.pop()
                child_s[-1] += dur
                total_s[fid] += dur
                calls[fid] += 1
                s_id.append(sid)
                s_parent.append(parent)
                s_fn.append(fid)
                s_start.append(t0)
                s_end.append(t1)
            if count_result is not None:
                results[fid] += count_result(result)
            return result

        return wrapper

    # -- read-out ----------------------------------------------------------

    def fid(self, name):
        return self.names.index(name)

    def calls_under(self, child, ancestor):
        """Spans of `child` that have a span of `ancestor` above them."""
        c, a = self.fid(child), self.fid(ancestor)
        parent_of = dict(zip(self.span_id, self.span_parent))
        fn_of = dict(zip(self.span_id, self.span_fn))
        n = 0
        for sid, fn in zip(self.span_id, self.span_fn):
            if fn != c:
                continue
            p = parent_of.get(sid, -1)
            while p != -1:
                if fn_of[p] == a:
                    n += 1
                    break
                p = parent_of.get(p, -1)
        return n

    def write_spans(self, path):
        """All spans as arrays in one .npz file, with the function names."""
        import numpy as np
        np.savez(path, id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 function=np.frombuffer(self.span_fn, dtype=np.int32),
                 start_s=np.frombuffer(self.span_start),
                 end_s=np.frombuffer(self.span_end),
                 names=np.array(self.names))
