"""In-process traced run: time calls into ringqpe's public functions.

The tracer wraps each listed function in every ringqpe namespace that binds
it (the home module, the package root, and names other modules imported with
`from ... import`), so calls made inside the package are seen too. Each call
becomes a span with its name, start, end, parent span and command id; MAC
deltas come from ringqpe's own count_macs(). A function that a refactor
removes or stops calling simply records no span and reports zero calls.

Spans are kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import os
import statistics
import sys
import time
import traceback

TRACED = {
    "encode": ("load_problem", "encode_hamiltonian_as_gauge",
               "encode_unitary_as_gauge"),
    "linalg": ("unitary_from_hermitian", "eig_hermitian"),
    "ring": ("build_hamiltonian", "initial_localized_state", "evolve_block",
             "position_density", "extract_peaks", "estimate_phase_via_ring",
             "write_density_csv"),
    "qpe": ("qpe_prepare", "controlled_unitary_all", "qft_inverse",
            "measure_register1", "qpe_estimate", "write_distribution_csv"),
}
# writers take the output path as their second argument
WRITERS = {"ring.write_density_csv", "qpe.write_distribution_csv"}
ROOT = "cli.main"


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def computed_nbytes(value, depth: int = 0) -> int:
    """nbytes of the ndarrays reachable from a return value (computed, not measured)."""
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(value, "dtype"):
        return nbytes
    if depth > 3:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(computed_nbytes(v, depth + 1) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(computed_nbytes(getattr(value, f.name), depth + 1)
                   for f in dataclasses.fields(value))
    return 0


class Tracer:
    """Span recorder for the functions in TRACED."""

    def __init__(self):
        self.spans: list = []
        self.command = None
        self._stack: list = []
        self._counter = None
        self._patches: list = []

    def _begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "command": self.command,
                "parent": self._stack[-1] if self._stack else None,
                "start": 0.0, "end": 0.0, "macs": 0, "out_bytes": 0,
                "file_bytes": 0}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["macs"] = self._counter.total if self._counter else 0
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        span["macs"] = (self._counter.total if self._counter else 0) - span["macs"]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(span)
            span["out_bytes"] = computed_nbytes(out)
            if name in WRITERS:
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                if path is not None and os.path.exists(path):
                    span["file_bytes"] = os.path.getsize(path)
            return out
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "ringqpe" or k.startswith("ringqpe.")]
        for mod, names in TRACED.items():
            try:
                home = importlib.import_module(f"ringqpe.{mod}")
            except ImportError:
                continue
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{mod}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def run_main(self, main, argv: list, command_id: int):
        """Traced call_main: cli.main is the root span of command command_id."""
        import ringqpe
        count_macs = getattr(ringqpe, "count_macs", None)
        self.command = command_id
        self.install()
        try:
            with count_macs() if count_macs else contextlib.nullcontext() as counter:
                self._counter = counter
                return call_main(self._wrap(ROOT, main), argv)
        finally:
            self._counter = None
            self.uninstall()


def call_main(main, argv: list):
    """Call cli.main(argv) with its output captured; (exit code, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, err.getvalue(), elapsed


def per_command_stats(spans: list) -> dict:
    """{command: {name: {calls, self_s, macs, out_bytes, file_bytes}}}.

    Self time is a span's duration minus its children's durations; self
    MACs likewise. Self times of one command add up to its root span.
    """
    children_time: dict = {}
    children_macs: dict = {}
    for s in spans:
        if s["parent"] is not None:
            dur = s["end"] - s["start"]
            children_time[s["parent"]] = children_time.get(s["parent"], 0.0) + dur
            children_macs[s["parent"]] = children_macs.get(s["parent"], 0) + s["macs"]
    table: dict = {}
    for s in spans:
        row = table.setdefault(s["command"], {}).setdefault(
            s["name"], {"calls": 0, "self_s": 0.0, "macs": 0, "out_bytes": 0,
                        "file_bytes": 0})
        row["calls"] += 1
        row["self_s"] += (s["end"] - s["start"]) - children_time.get(s["id"], 0.0)
        row["macs"] += s["macs"] - children_macs.get(s["id"], 0)
        row["out_bytes"] += s["out_bytes"]
        row["file_bytes"] += s["file_bytes"]
    return table


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics over traced commands.

    self_s is the median over the commands that call the function; calls,
    macs, out_bytes and file_bytes are means over all traced commands
    (exact counts when every command has one shape). A function that no
    command called reports zeros.
    """
    table = per_command_stats(spans)
    commands = list(table.values())
    metrics = {}
    for name in traced_names() + [ROOT]:
        rows = [c[name] for c in commands if name in c]
        metrics[f"{name}.self_s"] = (
            statistics.median(r["self_s"] for r in rows) if rows else 0.0)
        if name == ROOT:
            continue
        stats = ("calls", "file_bytes") if name in WRITERS else (
            "calls", "macs", "out_bytes")
        for stat in stats:
            metrics[f"{name}.{stat}"] = sum(r[stat] for r in rows) / len(commands)
    return metrics


def self_time_split(spans: list) -> tuple:
    """(self time in the traced functions, self time of cli.main), seconds.

    The two add up to the traced commands' total time, tracing included;
    set against the untraced time of the same commands they show how much
    of it the traced functions explain and how much is left to cli.main.
    """
    functions = main = 0.0
    for cmd in per_command_stats(spans).values():
        for name, row in cmd.items():
            if name == ROOT:
                main += row["self_s"]
            else:
                functions += row["self_s"]
    return functions, main
