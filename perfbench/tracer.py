"""Call tracer for the hardet layers, installed from outside the package.

The package binds names with ``from .geom import iou``, so wrapping only the
defining module would miss most calls. :meth:`Tracer.install` therefore
rebinds every ``hardet`` module attribute that *is* a traced function, and
wraps ``__post_init__`` on the traced dataclasses. :meth:`Tracer.restore`
puts every original binding back.

Each thread keeps its own parent stack, because gradcheck work runs in pool
threads. Fine-grained calls are aggregated per (function, parent); coarse
calls are also kept as spans with start, end (wall clock), parent, process CPU
and run id. Per-call times are the calling thread's CPU time
(``thread_time``), so a call in a pool thread does not count the time it
waits for the interpreter lock as its own, and a caller blocked on the pool
shows little self time; pool effects land in ``run_gradcheck.cpu_util``.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter, process_time, thread_time
from typing import Any, Callable

# layer -> traced names; "Cls.init" means Cls.__post_init__
LAYERS: dict[str, tuple[str, ...]] = {
    "geom": ("iou", "iou_grad", "decode", "decode_jacobian", "encode", "Box.init"),
    "losses": (
        "PositiveSample.init",
        "NegativeSample.init",
        "harmonic_det_loss",
        "batch_objective",
        "harmonic_loss",
        "tc_loss",
        "full_loc_loss",
        "cross_entropy",
    ),
    "harness": (
        "generate_scenes",
        "match_anchors",
        "train_toy",
        "run_gradcheck",
        "random_positive_sample",
        "finite_diff_grad",
        "model_detections",
        "refinement_experiment",
    ),
    "metrics": (
        "nms",
        "average_precision",
        "aic",
        "consistency_scatter",
        "refinement_gain",
        "iou_histogram",
    ),
    "cli": ("load_config", "effective_config", "cmd_train", "cmd_gradcheck", "cmd_refine"),
}

# calls long enough that a full span per call costs nothing measurable
COARSE = frozenset(
    {
        "cli.cmd_train",
        "cli.cmd_gradcheck",
        "cli.cmd_refine",
        "harness.train_toy",
        "harness.run_gradcheck",
        "harness.match_anchors",
        "metrics.nms",
        "metrics.average_precision",
    }
)

ROOT = "<root>"
WORKER_ROOT = "<worker>"
_MARK = "_perfbench_traced"


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric a traced run reports, in a fixed order: name -> (unit, better)."""
    specs: dict[str, tuple[str, str]] = {}
    for qual in traced_names():
        specs[f"{qual}.calls"] = ("count", "lower")
        specs[f"{qual}.self_s"] = ("s", "lower")
    for layer in LAYERS:
        specs[f"{layer}.errors"] = ("count", "lower")
    specs["harness.match_anchors.useful_ratio"] = ("ratio", "higher")
    specs["harness.run_gradcheck.cpu_util"] = ("ratio", "lower")
    specs["harness.run_gradcheck.total_s"] = ("s", "lower")
    specs["trace.overhead_frac"] = ("ratio", "lower")
    return specs


def _hardet_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hardet" or name.startswith("hardet."))
    ]


def _resolve(layer: str, name: str) -> tuple[Any, str]:
    """(owner, attribute) holding the traced callable."""
    module = sys.modules[f"hardet.{layer}"]
    if name.endswith(".init"):
        return getattr(module, name[: -len(".init")]), "__post_init__"
    return module, name


def installed_wrappers() -> list[str]:
    """Bindings in the hardet package that currently hold a tracer wrapper."""
    found = []
    for mod in _hardet_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and getattr(
                value.__dict__.get("__post_init__"), _MARK, False
            ):
                found.append(f"{mod.__name__}.{attr}.__post_init__")
    return found


class _ThreadState:
    __slots__ = ("thread", "root", "stack", "agg", "spans", "errors", "last_exc", "scenes")

    def __init__(self, thread: str, root: str):
        self.thread = thread
        self.root = root
        self.stack: list[list] = []  # [name, thread CPU of children]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, cpu_s, self_s]
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = {}
        self.last_exc: BaseException | None = None
        self.scenes: list[Any] = []


class Tracer:
    """Per-thread call aggregation and coarse spans for the hardet layers."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._home = threading.get_ident()

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            root = ROOT if threading.get_ident() == self._home else WORKER_ROOT
            state = _ThreadState(threading.current_thread().name, root)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    # -- wrapping ------------------------------------------------------------

    def wrap(self, qualname: str, fn: Callable, coarse: bool = False) -> Callable:
        """Wrapper that attributes ``fn``'s calls to ``qualname``."""
        layer = qualname.split(".", 1)[0]
        keep_scene = qualname == "harness.match_anchors"
        state_of = self._state
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            st = state_of()
            stack = st.stack
            parent = stack[-1][0] if stack else st.root
            frame = [qualname, 0.0]
            stack.append(frame)
            if coarse:
                c0 = process_time()
                t0 = perf_counter()
            u0 = thread_time()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, where it first leaves a layer
                if exc is not st.last_exc:
                    st.last_exc = exc
                    st.errors[layer] = st.errors.get(layer, 0) + 1
                raise
            finally:
                dur = thread_time() - u0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = st.agg.get((qualname, parent))
                if rec is None:
                    rec = st.agg[(qualname, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if coarse:
                    t1 = perf_counter()
                    st.spans.append((qualname, parent, t0, t1, process_time() - c0, st.thread, run_id))
                if keep_scene:
                    st.scenes.append(args[0] if args else kwargs.get("scene"))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded hardet module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _hardet_modules()
        for layer, names in LAYERS.items():
            for name in names:
                qual = f"{layer}.{name}"
                owner, attr = _resolve(layer, name)
                original = getattr(owner, attr)
                wrapper = self.wrap(qual, original, coarse=qual in COARSE)
                if isinstance(owner, type):
                    targets = [(owner, attr)]
                else:
                    targets = [
                        (mod, alias)
                        for mod in modules
                        for alias, value in vars(mod).items()
                        if value is original
                    ]
                for target, alias in targets:
                    self._bind(target, alias, wrapper)

    def _bind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers still installed: {left}")

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """Aggregates, spans and derived per-layer metrics (wall time excluded)."""
        with self._lock:
            states = list(self._states)
        by_parent: dict[tuple[str, str], list] = {}
        spans: list[tuple] = []
        errors = {layer: 0 for layer in LAYERS}
        scenes: list[Any] = []
        for st in states:
            for key, (calls, cpu_s, self_s) in st.agg.items():
                acc = by_parent.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += cpu_s
                acc[2] += self_s
            spans.extend(st.spans)
            for layer, n in st.errors.items():
                errors[layer] += n
            scenes.extend(st.scenes)
        spans.sort(key=lambda s: s[2])

        metrics: dict[str, float] = {}
        for qual in traced_names():
            calls = sum(v[0] for k, v in by_parent.items() if k[0] == qual)
            self_s = sum(v[2] for k, v in by_parent.items() if k[0] == qual)
            metrics[f"{qual}.calls"] = calls
            metrics[f"{qual}.self_s"] = self_s
        for layer, n in errors.items():
            metrics[f"{layer}.errors"] = n
        n_match = metrics["harness.match_anchors.calls"]
        metrics["harness.match_anchors.useful_ratio"] = (
            len(set(scenes)) / n_match if n_match else 0.0
        )
        gc = [s for s in spans if s[0] == "harness.run_gradcheck"]
        gc_wall = sum(s[3] - s[2] for s in gc)
        metrics["harness.run_gradcheck.cpu_util"] = (
            sum(s[4] for s in gc) / gc_wall if gc_wall > 0 else 0.0
        )
        metrics["harness.run_gradcheck.total_s"] = gc_wall
        return {
            "metrics": metrics,
            "by_parent": [
                {"function": f, "parent": p, "calls": c, "cpu_s": t, "self_s": s}
                for (f, p), (c, t, s) in sorted(by_parent.items())
            ],
            "spans": [
                {
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "cpu_s": cpu,
                    "thread": thread,
                    "run_id": run,
                }
                for name, parent, start, end, cpu, thread, run in spans
            ],
        }
