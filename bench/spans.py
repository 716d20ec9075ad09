"""Spans at twistlab's layer boundaries, recorded from outside the program.

install() rebinds, for the duration of a traced pass, the public names at
each layer boundary to wrappers that record a span per call:

* the functions cli imports from cohomology, words and fourier, and every
  serialize function cli reaches through its `serialize` module name;
* the functions cohomology imports from fourier, lattice and words, and,
  rebound in cohomology's own namespace so that calls inside the layer
  (solve -> relation_residual -> extend) are split too, the cohomology
  functions cli imports plus extend, the word extension that relation
  residuals run through;
* the arithmetic methods of fourier.SparseVector.

Bindings are found by inspecting the modules, so a name the program adds
or drops at one of these boundaries is traced without editing this file.
Classes are not wrapped, and calls inside words, lattice and serialize
stay inside their caller's span.

A span has a name, a start, an end, a parent and the op it belongs to.
Spans live in flat arrays while the run lasts and are written out when it
ends.  Self time is a span's duration minus the durations of its children.
"""

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

ROOT = "cli.main"
KEY = "trace.key"
ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "norm_sq", "norm")


def _is_function(obj):
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__module__")


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names = []
        self.sid = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.points = Counter()  # span id -> support points handed in
        self.repeats = Counter()  # span id -> calls whose key was seen in the op
        self.raised = Counter()  # (span id, exception name) -> count
        self.seen = set()
        self.fp_cache = {}
        self.key_sid = self.span_id(KEY)
        self.saved = []

    def span_id(self, name):
        if name not in self.sid:
            self.sid[name] = len(self.names)
            self.names.append(name)
        return self.sid[name]

    def open(self, sid):
        i = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op_id = op_id
        self.seen.clear()
        self.fp_cache.clear()
        return self.open(self.span_id(ROOT))

    def note_repeat(self, sid, key_fn, args):
        "Compute the call's key inside a trace.key span, outside the call's own."
        i = self.open(self.key_sid)
        key = (sid, key_fn(*args))
        if key in self.seen:
            self.repeats[sid] += 1
        else:
            self.seen.add(key)
        self.close(i)

    def wrap(self, fn, name, key=None, points=None):
        sid = self.span_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if key is not None:
                tracer.note_repeat(sid, key, args)
            if points is not None:
                tracer.points[sid] += points(*args)
            i = tracer.open(sid)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[sid, type(exc).__name__] += 1
                raise
            finally:
                tracer.close(i)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------ installation

    def _rebind(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, tw):
        "Wrap the boundaries of the twistlab package tw (see the module doc)."
        cli, coh, fourier = tw.cli, tw.cohomology, tw.fourier

        def vector_fp(v):
            # vectors are not mutated once built, so one hash per object and
            # op suffices; the cache keeps v alive so its id is not reused
            got = self.fp_cache.get(id(v))
            if got is None or got[1] is not v.coeffs:
                got = self.fp_cache[id(v)] = (v, v.coeffs, hash(frozenset(v.coeffs.items())))
            return got[2]

        special = {
            getattr(fourier, "act", None): dict(
                key=lambda M, v: (M.rows, vector_fp(v)), points=lambda M, v: len(v)
            ),
            # k only picks the exponent; the per-vector profile is what repeats
            getattr(fourier, "decay_constant", None): dict(key=lambda v, *k: vector_fp(v)),
        }
        wrapped = {}

        def wrapper(fn):
            if fn not in wrapped:
                name = "%s.%s" % (_layer(fn), fn.__name__)
                wrapped[fn] = self.wrap(fn, name, **special.get(fn, {}))
            return wrapped[fn]

        def rebind(module, layers, own=()):
            for attr, obj in list(vars(module).items()):
                if _is_function(obj) and (_layer(obj) in layers or attr in own):
                    self._rebind(module, attr, wrapper(obj))

        cli_facing = [a for a, o in vars(cli).items() if _is_function(o) and _layer(o) == "cohomology"]
        rebind(cli, ("cohomology", "words", "fourier"))
        rebind(coh, ("fourier", "lattice", "words"), own=cli_facing + ["extend"])
        self._rebind(cli, "serialize", _SerializeProxy(tw.serialize, wrapper))
        vec = fourier.SparseVector
        for attr in ARITH:
            if attr in vars(vec):
                fn = vars(vec)[attr]
                self._rebind(vec, attr, self.wrap(fn, "fourier.SparseVector.%s" % attr))

    def uninstall(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def self_times(self):
        "Per-span self time: duration minus the durations of child spans."
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, array("d", (dur[i] - child[i] for i in range(n)))

    def totals(self):
        "name -> (calls, total seconds, self seconds)."
        dur, own = self.self_times()
        calls, total, selft = Counter(), Counter(), Counter()
        for i, sid in enumerate(self.name):
            calls[sid] += 1
            total[sid] += dur[i]
            selft[sid] += own[i]
        return {
            self.names[sid]: (calls[sid], total[sid], selft[sid]) for sid in calls
        }

    def children_of(self, parent_name):
        "name -> total seconds of the direct children of spans called parent_name."
        psid = self.sid.get(parent_name)
        out = Counter()
        for i, sid in enumerate(self.name):
            p = self.parent[i]
            if p >= 0 and self.name[p] == psid:
                out[self.names[sid]] += self.end[i] - self.start[i]
        return out

    def write(self, path, metrics):
        "Write the metrics and every span as columns (gzip JSON); times are seconds from the first span."
        t0 = self.start[0] if len(self.start) else 0.0
        obj = {
            "metrics": metrics,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": list(self.name),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(obj, fh, separators=(",", ":"))


class _SerializeProxy:
    "Stands in for the serialize module inside cli; its functions are wrapped."

    def __init__(self, module, wrapper):
        self._module = module
        self._wrapper = wrapper

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if _is_function(obj) and obj.__module__ == self._module.__name__:
            obj = self._wrapper(obj)
        setattr(self, attr, obj)
        return obj
