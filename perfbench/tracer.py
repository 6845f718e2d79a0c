"""Layer timing from outside the library.

Each public function is replaced, at the module attribute (or class attribute)
where its callers look it up, by a wrapper that records calls and time.  A
span's self time is its duration minus the durations of the traced spans it
caused directly, so self times add up.  The library itself is unchanged; a
target that no longer exists fails loudly instead of reading 0.

The wrappers cost about a microsecond per call, which inflates wall time on
call-heavy workloads: per-layer numbers come only from a traced run, never
from the timed runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import scipy.linalg

from fracineq import corpus, diffusion, grids, inequalities, operators, report


def _fn_n(u, *args, **kwargs):
    return u.grid.n


def _values_n(values, *args, **kwargs):
    return len(values) - 1


def _grid_n(grid, *args, **kwargs):
    return grid.n


def _matrix_n(matrix, *args, **kwargs):
    return matrix.grid.n


def _new_grid_n(grid):
    return int(grid.n)


def _case_fn_n(case, u, *args, **kwargs):
    return u.grid.n


# (layer, owner, attribute, operand grid size); the owner is where the caller
# on the benchmarked paths looks the name up
TARGETS = (
    ("grids.grid_new", grids.Grid, "__post_init__", _new_grid_n),
    ("grids.norm", inequalities, "norm", _fn_n),
    ("grids.norm", inequalities, "lp_trapezoid", _values_n),
    ("operators.apply", operators.OperatorMatrix, "apply", _matrix_n),
    ("operators.matrix", operators, "operator_matrix", _grid_n),
    ("operators.matrix", diffusion, "operator_matrix", _grid_n),
    ("operators.log_resample", operators, "to_log_grid", _fn_n),
    ("operators.log_resample", operators, "from_log_grid", _fn_n),
    ("operators.derivative", inequalities, "caputo_derivative", _fn_n),
    ("operators.derivative", inequalities, "hadamard_derivative", _fn_n),
    ("inequalities.validate", inequalities, "validate_case", None),
    ("inequalities.validate", corpus, "validate_case", None),
    ("inequalities.constant", inequalities, "constant", None),
    ("inequalities.evaluate", inequalities, "evaluate_sides", _case_fn_n),
    ("inequalities.evaluate", corpus, "evaluate_sides", _case_fn_n),
    ("inequalities.sweep", inequalities, "sweep", None),
    ("corpus.generate", corpus, "generate", None),
    ("corpus.search", corpus, "sharpness_search", None),
    ("report.serialize", report, "sweep_rows", None),
    ("report.serialize", report, "emit_payload_json", None),
    ("diffusion.assemble", diffusion, "assemble_stiffness", None),
    ("diffusion.factor", scipy.linalg, "cho_factor", None),
    ("diffusion.solve", scipy.linalg, "cho_solve", None),
    ("diffusion.run", diffusion, "run", None),
    ("diffusion.check", diffusion, "check_apriori", None),
)


class Tracer:
    """Installs the wrappers and sums calls, self time and output bytes."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [layer, n, time in traced children]
        self._undo: list[tuple] = []

    def install(self) -> None:
        for layer, owner, attr, size in TARGETS:
            if not callable(getattr(owner, attr, None)):
                raise RuntimeError(f"trace target {owner.__name__}.{attr} is missing")
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, original, size))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, float]:
        """Return the sums so far and start new ones."""
        stats, self.stats = dict(self.stats), defaultdict(float)
        return stats

    def _wrap(self, layer, original, size):
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [layer, size(*args, **kwargs) if size else None, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                self._record(frame, duration)
            if isinstance(result, str):
                self.stats[layer + ".bytes"] += len(result)
            return result

        return traced

    def _record(self, frame, duration: float) -> None:
        layer, n, children = frame
        own = duration - children
        stats = self.stats
        stats[layer + ".calls"] += 1
        stats[layer + ".self_s"] += own
        if n is not None:
            stats[f"{layer}.self_s.n{n}"] += own
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            # the Richardson pass: work an evaluation does on the grid half as fine
            if parent[0] == "inequalities.evaluate" and n is not None and n == parent[1] // 2:
                stats["inequalities.richardson_s"] += duration


def layer_metrics(setup: dict[str, float], timed: dict[str, float]) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from the sums of one traced run.

    ``setup`` holds the sums over input generation, ``timed`` those over the
    timed work.  Ratios "per certificate" divide by inequalities.certs and are
    0 on workloads that evaluate no certificate.
    """
    def get(key):
        return timed.get(key, 0.0)

    certs = get("inequalities.evaluate.calls")

    def per_cert(key):
        return get(key) / certs if certs else 0.0

    return {
        "operators.apply_s": (get("operators.apply.self_s"), "s"),
        "operators.apply_calls": (get("operators.apply.calls"), "count"),
        "operators.apply_per_cert": (per_cert("operators.apply.calls"), "count"),
        "operators.matrix_s": (get("operators.matrix.self_s"), "s"),
        "operators.matrix_calls": (get("operators.matrix.calls"), "count"),
        "operators.matrix_s.n4096": (get("operators.matrix.self_s.n4096"), "s"),
        "operators.matrix_s.n8192": (get("operators.matrix.self_s.n8192"), "s"),
        "operators.log_resample_s": (get("operators.log_resample.self_s"), "s"),
        "operators.derivative_self_s": (get("operators.derivative.self_s"), "s"),
        "grids.norm_s": (get("grids.norm.self_s"), "s"),
        "grids.norm_calls": (get("grids.norm.calls"), "count"),
        "grids.norm_per_cert": (per_cert("grids.norm.calls"), "count"),
        "grids.grid_new_s": (get("grids.grid_new.self_s"), "s"),
        "grids.grid_new_per_cert": (per_cert("grids.grid_new.calls"), "count"),
        "inequalities.certs": (certs, "count"),
        "inequalities.validate_s": (get("inequalities.validate.self_s"), "s"),
        "inequalities.validate_per_cert": (per_cert("inequalities.validate.calls"), "count"),
        "inequalities.constant_s": (get("inequalities.constant.self_s"), "s"),
        "inequalities.evaluate_self_s": (get("inequalities.evaluate.self_s"), "s"),
        "inequalities.richardson_s": (get("inequalities.richardson_s"), "s"),
        "inequalities.sweep_self_s": (get("inequalities.sweep.self_s"), "s"),
        "report.serialize_s": (get("report.serialize.self_s"), "s"),
        "report.bytes": (get("report.serialize.bytes"), "B"),
        "corpus.generate_s": (setup.get("corpus.generate.self_s", 0.0), "s"),
        "corpus.search_self_s": (get("corpus.search.self_s"), "s"),
        "diffusion.assemble_s": (get("diffusion.assemble.self_s"), "s"),
        "diffusion.factor_s": (get("diffusion.factor.self_s"), "s"),
        "diffusion.solve_s": (get("diffusion.solve.self_s"), "s"),
        "diffusion.solve_calls": (get("diffusion.solve.calls"), "count"),
        "diffusion.run_self_s": (get("diffusion.run.self_s"), "s"),
        "diffusion.check_s": (get("diffusion.check.self_s"), "s"),
    }
