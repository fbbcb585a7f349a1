"""In-memory span tracing of saacert's layers, installed from outside.

Every public function of the layer modules is replaced, in every module
namespace that binds it, by one wrapper that records a span (name, start,
end, parent).  A few methods that carry grid work are wrapped on their class.
Nothing under ``src/`` is edited: the wrappers are installed for a traced
run and removed after it.

``EmpiricalProblem.fhat`` gets a span because the subgradient solver spends
its time there; its calls inside an open ``solve`` span are also counted.
The per-point population accessors (``StochasticProgram.true_fn`` and
``true_variance``) get none: grid spans call them tens of thousands of times
per operation, so their time stays in the span that calls them.
"""

from __future__ import annotations

import array
import dataclasses
import gzip
import hashlib
import json
import os
import sys
import time
import types

import numpy as np

LAYERS = ("problem", "geometry", "moments", "certify", "solve", "validation",
          "apps", "cli")

# methods wrapped on their class: (module, class, method)
METHODS = (("problem", "StochasticProgram", "true_fn_grid"),
           ("problem", "EmpiricalProblem", "fhat"),
           ("problem", "EmpiricalProblem", "fhat_grid"),
           ("problem", "EmpiricalProblem", "feasible_mask"))


def fingerprint(obj, serials: dict) -> object:
    """Hashable content key; callables and programs are keyed by identity.

    ``serials`` holds a strong reference to every object keyed by identity,
    so no id can be reused by a later object within one traced iteration.
    """
    if isinstance(obj, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(obj).tobytes(),
                                 digest_size=16).hexdigest()
        return ("nd", obj.shape, obj.dtype.str, digest)
    if isinstance(obj, (bool, int, float, str, type(None))):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v, serials) for v in obj)
    if dataclasses.is_dataclass(obj) and type(obj).__name__ == "SpaceDescriptor":
        return tuple((f.name, fingerprint(getattr(obj, f.name), serials))
                     for f in dataclasses.fields(obj))
    entry = serials.setdefault(id(obj), (obj, len(serials)))
    return ("obj", entry[1])


class Tracer:
    """Spans in flat arrays plus the deterministic work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_nested = array.array("b")   # same name already open above
        self.stack: list[int] = []
        self.open_names: dict[int, int] = {}
        self.open_layers = dict.fromkeys(LAYERS, 0)
        self.counters: dict[str, float] = {}
        self.unique: dict[str, set] = {}
        self.serials: dict = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def seen(self, key: str, item) -> None:
        self.unique.setdefault(key, set()).add(item)

    def _index(self, name: str) -> int:
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self
        name_id = self._index(f"{layer}.{name}")

        def traced(*args, **kwargs):
            pos = len(tracer.span_name)
            parent = tracer.stack[-1] if tracer.stack else -1
            depth = tracer.open_names.get(name_id, 0)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_nested.append(depth > 0)
            tracer.span_end.append(0.0)
            tracer.stack.append(pos)
            tracer.open_names[name_id] = depth + 1
            tracer.open_layers[layer] += 1
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[pos] = time.perf_counter()
                tracer.open_layers[layer] -= 1
                tracer.open_names[name_id] = depth
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summaries -------------------------------------------------------

    def span_times(self) -> dict[str, tuple[float, int]]:
        """Inclusive seconds and call count per span name.

        A span opened inside an open span of the same name (recursion) is
        counted as a call but not timed again.
        """
        out: dict[str, list] = {}
        for k in range(len(self.span_name)):
            entry = out.setdefault(self.names[self.span_name[k]], [0.0, 0])
            entry[1] += 1
            if not self.span_nested[k]:
                entry[0] += self.span_end[k] - self.span_start[k]
        return {name: (s, n) for name, (s, n) in out.items()}

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer and the summed duration of root spans."""
        n = len(self.span_name)
        child = [0.0] * n
        roots = 0.0
        for k in range(n):
            dur = self.span_end[k] - self.span_start[k]
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += dur
            else:
                roots += dur
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for k in range(n):
            layer = self.names[self.span_name[k]].split(".", 1)[0]
            layer_self[layer] += (self.span_end[k] - self.span_start[k]) - child[k]
        return layer_self, roots

    def write(self, path, origin: float) -> None:
        """Write every span as ``name,start,end,parent`` (seconds from origin)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start_s,end_s,parent\n")
            for k in range(len(self.span_name)):
                handle.write(f"{self.names[self.span_name[k]]},"
                             f"{self.span_start[k] - origin:.9f},"
                             f"{self.span_end[k] - origin:.9f},"
                             f"{self.span_parent[k]}\n")


# -- counter hooks: (tracer, args, kwargs, result) ---------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _modulus(tr, args, kwargs, result):
    program, i = _arg(args, kwargs, 0, "program"), _arg(args, kwargs, 1, "i")
    scen = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "scenarios"), dtype=float))
    probes = np.atleast_2d(np.asarray(_arg(args, kwargs, 3, "probes"), dtype=float))
    g, n = len(probes), len(scen)
    tr.count("moments.modulus_pair_evals", g * (g - 1) // 2 * n)
    tr.seen("moments.modulus", (fingerprint(program.integrand(i), tr.serials),
                                fingerprint(probes, tr.serials),
                                fingerprint(scen, tr.serials)))


def _a_alpha(tr, args, kwargs, result):
    key = (fingerprint(_arg(args, kwargs, 0, "space"), tr.serials),
           _arg(args, kwargs, 1, "alpha"), _arg(args, kwargs, 2, "h"),
           _arg(args, kwargs, 3, "max_levels", 60),
           _arg(args, kwargs, 4, "rel_tol", 1e-9))
    tr.seen("geometry.a_alpha", key)


def _pairwise(tr, args, kwargs, result):
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "points")))
    tr.count("geometry.pairwise_pairs", len(pts) ** 2)


def _true_fn_grid(tr, args, kwargs, result):
    program, i = args[0], _arg(args, kwargs, 1, "i")
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "points"), dtype=float))
    tr.count("problem.true_fn_points", len(pts))
    tr.seen("problem.true_fn", (fingerprint(program, tr.serials), i,
                                fingerprint(pts, tr.serials)))


def _fhat_grid(tr, args, kwargs, result):
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "points")))
    tr.count("problem.fhat_points", len(pts))


def _fhat(tr, args, kwargs, result):
    if tr.open_layers["solve"]:
        tr.count("solve.fhat_calls")


def _check(tr, args, kwargs, result):
    tr.count("certify.checks")
    tr.count("certify.checks_held", bool(result.holds))


def _subgradient(tr, args, kwargs, result):
    tr.count("solve.iterations", int(result.iterations))


def _coverage(tr, args, kwargs, result):
    tr.count("validation.replications", int(result.replications))
    tr.count("validation.scenario_draws", int(result.replications) * int(result.n_used))


def _cli_main(tr, args, kwargs, result):
    """Artifact size without its timestamp, whose length can vary."""
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as handle:
                raw = handle.read()
            stamp = json.loads(raw).get("timestamp", "")
            tr.count("cli.artifact_bytes", len(raw) - len(stamp.encode()))


HOOKS = {
    "moments.per_scenario_modulus": _modulus,
    "geometry.a_alpha": _a_alpha,
    "geometry.max_pairwise": _pairwise,
    "geometry.min_pairwise_gap": _pairwise,
    "problem.true_fn_grid": _true_fn_grid,
    "problem.fhat": _fhat,
    "problem.fhat_grid": _fhat_grid,
    "certify.check_certificates": _check,
    "solve.subgradient_solve": _subgradient,
    "validation.coverage_experiment": _coverage,
    "cli.main": _cli_main,
}


class Instrumentation:
    """Installs the wrappers into every saacert namespace and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "saacert" or name.startswith("saacert.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"saacert.{layer}"]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    key = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self.tracer.wrap(layer, attr, fn,
                                                             HOOKS.get(key)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"saacert.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._set(cls, meth, self.tracer.wrap(layer, meth, fn,
                                                  HOOKS.get(f"{layer}.{meth}")))

    def _set(self, owner, attr, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
