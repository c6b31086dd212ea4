"""Span tracing of navfuse's public functions, installed from outside.

:meth:`Tracer.install` replaces each function in :data:`FUNCTIONS` with a
wrapper in every navfuse module namespace that binds it (``fusion``
imports ``propagate_batch`` by name, so the wrapper goes there as well as
into ``strapdown``).  A wrapper records one span: the function, the span
that was open when it was called, and its start and end times.  Spans
stay in memory until :meth:`Tracer.write`.

A function's self time is the sum over its spans of the span's duration
minus the durations of its child spans.
"""

import sys
from array import array
from time import perf_counter

import numpy as np

FUNCTIONS = {
    "geodesy": ["geodetic_to_ecef", "ecef_to_geodetic"],
    "ukf": [
        "cholesky_sqrt",
        "unscented_measurement",
        "innovation_nis",
        "apply_measurement",
        "GaussianBelief",
    ],
    "strapdown": [
        "propagate_batch",
        "apply_state_delta",
        "state_delta",
        "weighted_state_mean",
        "weighted_quat_mean",
        "quat_multiply",
        "quat_from_rotvec",
        "rotvec_from_quat",
        "process_noise_cov",
    ],
    "gnss": ["fix_to_local", "cov_for_fix"],
    "fusion": ["run_fusion", "run_gnss_only"],
    "simulate": ["generate_truth", "corrupt"],
    "kitti": ["load_sequence", "parse_oxts_record"],
    "evaluate": ["align_and_diff", "export_errors_csv", "export_track_csv", "atomic_write_text"],
    "cli": [
        "read_imu_csv",
        "read_gnss_csv",
        "read_truth_csv",
        "write_estimates_csv",
        "write_imu_csv",
        "write_gnss_csv",
        "write_truth_csv",
    ],
}

NAMES = [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]

# Direct children of run_fusion that open a GNSS update or a prediction step.
FIX_OPENER = "gnss.fix_to_local"
Q_OPENER = "strapdown.process_noise_cov"
CHOLESKY = "ukf.cholesky_sqrt"


class Tracer:
    def __init__(self):
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.text_bytes = 0

    def _wrap(self, index, fn):
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            span = len(func)
            func.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every listed function that navfuse still defines."""
        import navfuse.cli  # noqa: F401  (loads every navfuse module)

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "navfuse"]
        for index, name in enumerate(NAMES):
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"navfuse.{module_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original)
            if name == "evaluate.atomic_write_text":
                wrapper = self._count_text(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _count_text(self, wrapper):
        def counted(path, text, *args, **kwargs):
            self.text_bytes += len(text.encode())
            return wrapper(path, text, *args, **kwargs)

        return counted

    def arrays(self):
        return (
            np.array(self.func, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def write(self, path):
        func, parent, start, end = self.arrays()
        np.savez(path, names=np.array(NAMES), func=func, parent=parent, start=start, end=end)

    def summary(self):
        """Calls and self seconds per function, plus the fusion phase times."""
        func, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        calls = np.bincount(func, minlength=len(NAMES))
        self_s = np.bincount(func, weights=duration - child, minlength=len(NAMES))
        out = {}
        for k, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.self_s"] = float(self_s[k])
        out["evaluate.atomic_write_text.bytes"] = self.text_bytes
        out.update(_fusion_phases(func, parent, start, end))
        return out


def _fusion_phases(func, parent, start, end):
    """Wall time per prediction step and per GNSS update inside run_fusion.

    The direct children of a run_fusion span are split into windows: a
    GNSS update opens at fix_to_local, a prediction step at
    process_noise_cov, or at cholesky_sqrt when process_noise_cov did not
    just open it.  A window lasts from its first child's start to its last
    child's end, so it includes the untraced numpy work between them.
    """
    index = {name: k for k, name in enumerate(NAMES)}
    fix, q_cov, chol = (index[n] for n in (FIX_OPENER, Q_OPENER, CHOLESKY))
    totals = {"predict": [0.0, 0], "update": [0.0, 0]}

    def close(phase, first, last):
        if phase is not None:
            totals[phase][0] += last - first
            totals[phase][1] += 1

    for root in np.nonzero(func == index["fusion.run_fusion"])[0]:
        phase, first, last, prev = None, 0.0, 0.0, None
        for span in np.nonzero(parent == root)[0]:
            f = func[span]
            if f == fix:
                opens = "update"
            elif f == q_cov or (f == chol and prev != q_cov):
                opens = "predict"
            else:
                opens = None
            if opens:
                close(phase, first, last)
                phase, first = opens, start[span]
            last, prev = end[span], f
        close(phase, first, last)
    (p_s, p_n), (u_s, u_n) = totals["predict"], totals["update"]
    return {
        "fusion.predict_us_per_step": 1e6 * p_s / p_n if p_n else 0.0,
        "fusion.update_us_per_fix": 1e6 * u_s / u_n if u_n else 0.0,
    }
