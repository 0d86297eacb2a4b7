"""Layer tracer that wraps the package's public functions from outside.

Installing rebinds each traced function in every package module namespace
that holds it (``cli.e_fb``, ``feedback.gallager_exp``, ``sim.modulo``,
...), so calls between layers pass through a wrapper; the package source is
untouched.  ``SchemeConfig`` is a class, so its ``__init__`` is wrapped.

Every wrapped call adds its duration to its own counters and to its
caller's child time, which gives busy and self time per function.  Calls of
the entry points below are also kept as spans (name, start, end, parent
span, op id).  The hot leaf functions, called up to a million times per
run, are only counted, against the nearest kept span.
"""

from __future__ import annotations

import json
import time

# layer -> traced functions: the entry points each layer offers to the
# layers above it and to users.  Trivial closed-form helpers (capacity,
# rate conversions, coefficient formulas) stay unwrapped: a wrapper would
# cost more than their body and distort every self time around them.
LAYERS = {
    "cli": ("main",),
    "feedback": ("e_fb", "balance_looseness", "high_snr_bound",
                 "out_of_region_exponent"),
    "exponents": ("gallager_exp", "sphere_packing_exp", "poltyrev_exponent"),
    "sim": ("estimate_error_prob", "run_trial", "run_coupled_trial",
            "SchemeConfig"),
    "lattices": ("make_lattice", "modulo", "quantize_nn", "sample_dither",
                 "scale_to_power"),
    "jscc": ("wz_encode", "wz_receive"),
}

# counted and timed, but without a span per call
LEAVES = {
    "exponents.gallager_exp",
    "exponents.sphere_packing_exp",
    "exponents.poltyrev_exponent",
    "lattices.modulo",
    "lattices.quantize_nn",
}


def _family(args, kwargs):
    return str(args[0] if args else kwargs["name"]).strip().lower()


def _modulo_points(args, kwargs):
    lattice = args[0]
    x = args[1] if len(args) > 1 else kwargs["x"]
    return getattr(x, "size", lattice.dimension) // lattice.dimension


def _trials(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["trials"]


# span tag and work count of selected functions, read from their arguments
TAGS = {"lattices.make_lattice": _family}
POINTS = {
    "lattices.modulo": _modulo_points,
    "lattices.quantize_nn": _modulo_points,
    "sim.estimate_error_prob": _trials,
}


class Stat:
    """Counters of one traced function."""

    __slots__ = ("calls", "busy", "self", "errors", "points", "by_parent")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.errors = 0
        self.points = 0
        self.by_parent: dict[str, int] = {}


class Tracer:
    """Spans and counters of one process; install, run, uninstall."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.op_id = -1
        # frames: [child time, span id of the nearest kept span, name]
        self._stack = [[0.0, -1, ""]]
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self, package) -> None:
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer, names in LAYERS.items():
            home = getattr(package, layer)
            for name in names:
                qual = f"{layer}.{name}"
                original = getattr(home, name)
                if isinstance(original, type):
                    wrapped = self._wrap(qual, original.__init__)
                    self._undo.append((original, "__init__", original.__init__))
                    original.__init__ = wrapped
                    continue
                wrapped = self._wrap(qual, original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Drop the counters (spans stay) so a new phase starts from zero."""
        self.stats = {qual: Stat() for qual in self.stats}

    def stat(self, qual: str) -> Stat:
        return self.stats.get(qual) or Stat()

    def _wrap(self, qual: str, fn):
        self.stats.setdefault(qual, Stat())
        keep = qual not in LEAVES
        tag_of = TAGS.get(qual)
        points_of = POINTS.get(qual)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stat = tracer.stats[qual]
            parent = stack[-1]
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id, qual]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stat.calls += 1
                stat.busy += dur
                stat.self += dur - frame[0]
                if points_of is not None:
                    stat.points += points_of(args, kwargs)
                if keep:
                    tag = tag_of(args, kwargs) if tag_of is not None else None
                    spans.append((span_id, qual, t0, t1, parent[1],
                                  tracer.op_id, tag, dur - frame[0]))
                else:
                    by = stat.by_parent
                    by[parent[2]] = by.get(parent[2], 0) + 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def busy_by_tag(self, qual: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, name, t0, t1, _, _, tag, _ in self.spans:
            if name == qual:
                out[tag] = out.get(tag, 0.0) + (t1 - t0)
        return out

    def write(self, path) -> None:
        """Write the spans (one JSON object per line) and the counters."""
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op, tag, self_s in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "tag": tag, "self_s": self_s,
                }) + "\n")
            for qual, s in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "counter": qual, "calls": s.calls, "busy_s": s.busy,
                    "self_s": s.self, "errors": s.errors, "points": s.points,
                    "by_parent": s.by_parent,
                }) + "\n")
