"""Span recorder that times qreading's layers from outside the package.

Each target is a public function named ``<layer>.<function>``. It is wrapped
where it is looked up: every ``qreading`` module global bound to the same
function object is rebound to one wrapper, so a call through any import
site records one span. Class attributes (``TransmitterSpec.fock_vector``)
are rebound on the class. A target that no longer exists is reported as
absent, never as an error, so the benchmark keeps running after a later
change deletes or renames a function.

Spans stay in memory as tuples
``(span_id, parent_id, name, op, thread, start, end, self_time)`` and are
written out when the run ends. Self time is the span's duration minus the
time covered by its child spans on the same thread.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from typing import Any, Callable

# attribute paths below the ``qreading`` package; a span is named
# ``<module>.<function>`` after the first and last parts of its path
TARGETS = (
    "cli.render",
    "rates.gains",
    "rates.holevo_rate",
    "rates.rate_after_attenuation",
    "channels.displacement_table",
    "channels.pure_state_cell_output",
    "channels.gaussian_channel_action",
    "states.von_neumann_entropy",
    "states.symplectic_entropy",
    "states.TransmitterSpec.fock_vector",
    "diffraction.toeplitz_symbol",
    "diffraction.tau_extrema",
)
ROOT_SPAN = "cli.main"
SPANS = (ROOT_SPAN,) + tuple(
    f"{path.split('.')[0]}.{path.split('.')[-1]}" for path in TARGETS)

# counters recorded by the hooks below: metric name -> unit
COUNTERS: dict[str, str] = {
    "channels.displacement_table.hits": "count",
    "channels.displacement_table.misses": "count",
    "states.von_neumann_entropy.dim3_sum": "count",
    "rates.rate_after_attenuation.distinct": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    units["rates.holevo_rate.trace_deficit_max"] = "ratio"
    units["rates.holevo_rate.cross_check_bits_max"] = "bits"
    units["process.cpu_util"] = "cpu_s/s"
    units["trace.ops"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _resolve(path: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, value) for a dotted path below ``qreading``."""
    owner: Any = sys.modules.get("qreading")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    return None if not callable(value) else (owner, parts[-1], value)


class _Restore:
    """Puts the original function back at every site it was rebound at."""

    def __init__(self, original: Any, sites: list[tuple[Any, str]]) -> None:
        self.original = original
        self.sites = sites

    def __call__(self) -> None:
        for owner, attr in self.sites:
            setattr(owner, attr, self.original)


def rebind(path: str, make: Callable[[Callable], Callable]) -> _Restore | None:
    """Replace the function at ``path`` by ``make(function)`` where it is
    looked up: on its class for a method, else in every ``qreading`` module
    global bound to the same object. None when the target is absent."""
    found = _resolve(path)
    if found is None:
        return None
    owner, attr, original = found
    wrapper = make(original)
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qreading" or n.startswith("qreading.")]
        sites = [(module, key) for module in modules
                 for key, value in list(vars(module).items()) if value is original]
    for site_owner, site_attr in sites:
        setattr(site_owner, site_attr, wrapper)
    return _Restore(original, sites)


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = -1
        self.ops_traced = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._restore: list[Callable[[], None]] = []
        self._lock = threading.Lock()  # pool threads update shared counters
        self.table_hits = 0
        self.table_misses = 0
        self.dim3_sum = 0
        self.distinct = 0
        self._table_info: Callable | None = None
        self._tau_keys: set[Any] = set()

    # -- span recording ----------------------------------------------------

    def _thread(self) -> int:
        with self._lock:
            return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def wrap(self, name: str, fn: Callable,
             hook: Callable[[tuple, dict, Any], None] | None = None) -> Callable:
        name_id = self.names.index(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = self._thread()
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, name_id, self.op, local.thread,
                              start, end, dur - frame[1]))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op: int, fn: Callable, *args: Any) -> Any:
        """Run one op under the root span."""
        self.op = op
        self.ops_traced += 1
        self._tau_keys = set()
        before = self._table_info() if self._table_info else None
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self.distinct += len(self._tau_keys)
            if before is not None:
                after = self._table_info()
                self.table_hits += after.hits - before.hits
                self.table_misses += after.misses - before.misses

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Rebind every target where it is looked up; record absent ones."""
        self.absent = []
        for name, path in zip(SPANS[1:], TARGETS):
            restore = rebind(path, lambda fn, name=name:
                             self.wrap(name, fn, self._hook(name)))
            if restore is None:
                self.absent.append(name)
                continue
            self._restore.append(restore)
            if name == "channels.displacement_table":
                self._table_info = getattr(restore.original, "cache_info", None)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._table_info = None

    # -- counters --------------------------------------------------------

    def _hook(self, name: str) -> Callable | None:
        if name == "states.von_neumann_entropy":
            def entropy(args: tuple, kwargs: dict, result: Any) -> None:
                rho = args[0] if args else kwargs.get("rho")
                with self._lock:
                    self.dim3_sum += int(rho.data.shape[0]) ** 3
            return entropy
        if name == "rates.rate_after_attenuation":
            def attenuation(args: tuple, kwargs: dict, result: Any) -> None:
                tx = args[1] if len(args) > 1 else kwargs.get("tx")
                tau = args[3] if len(args) > 3 else kwargs.get("tau")
                self._tau_keys.add((tx.kind, round(float(tau), 12)))
            return attenuation
        return None

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Span and counter metrics as means per traced op."""
        ops = max(self.ops_traced, 1)
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for _, _, name_id, _, _, start, end, self_time in self.spans:
            calls[name_id] += 1
            busy[name_id] += end - start
            own[name_id] += self_time
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[i] / ops
            out[f"{span}.busy_s"] = busy[i] / ops
            out[f"{span}.self_s"] = own[i] / ops
        out["channels.displacement_table.hits"] = self.table_hits / ops
        out["channels.displacement_table.misses"] = self.table_misses / ops
        out["states.von_neumann_entropy.dim3_sum"] = self.dim3_sum / ops
        out["rates.rate_after_attenuation.distinct"] = self.distinct / ops
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span_id,parent_id,name,op,thread,start_s,end_s,self_s\n")
            for sid, parent, name_id, op, thread, start, end, own in self.spans:
                fh.write(f"{sid},{parent},{self.names[name_id]},{op},{thread},"
                         f"{start:.9f},{end:.9f},{own:.9f}\n")
