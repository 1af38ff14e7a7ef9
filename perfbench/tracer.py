"""Run one job with spans around latquant's public functions.

    python perfbench/tracer.py SPANS.json cli quantize --weights W.csv ...
    python perfbench/tracer.py SPANS.json chain --inputs chain_in.npz ...

Each function in WRAPPED is replaced, wherever latquant's modules refer to
it, by a wrapper that records a span (name, start, end, parent) plus a few
counts.  Spans stay in memory and are written to SPANS.json when the job
ends.  The work the wrappers themselves do (hashing an input, stat-ing a
file) is timed as the span's `tare` and left out of every layer's time.
A wrapped function that latquant no longer has is listed as absent.

`layer_metrics` turns one job's spans and wall time into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function or Class.method) pairs; a span is named module.function.
WRAPPED = (
    ("matio", "load_matrix_csv"),
    ("matio", "save_matrix_csv"),
    ("linalg", "ql_decompose"),
    ("quantize", "quantize_matrix"),
    ("quantize", "cross_layer_target"),
    ("lattice", "babai_from_target"),
    ("reduction", "lll_reduce"),
    ("reduction", "map_solution"),
    ("report", "Report.to_json"),
)


def _file_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _matrix_digest(x, *args, **kwargs):
    data = np.ascontiguousarray(np.asarray(x, dtype=float))
    return {"digest": hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
            + str(data.shape)}


def _keep_bases(span, result, basis, *args, **kwargs):
    # Cholesky profiles are computed once the job is done, outside every span.
    span["_bases"] = (np.array(getattr(basis, "basis", basis), dtype=float),
                      np.array(result.basis_red, dtype=float))


def _json_bytes(span, result, *args, **kwargs):
    span["bytes"] = len(result.encode("utf-8"))


BEFORE = {"matio.load_matrix_csv": _file_bytes, "linalg.ql_decompose": _matrix_digest}
AFTER = {"reduction.lll_reduce": _keep_bases, "report.to_json": _json_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"name": name, "id": next(self._ids),
                    "parent": stack[-1]["id"] if stack else None}
            t0 = time.perf_counter()
            if before is not None:
                span.update(before(*args, **kwargs))
            t1 = time.perf_counter()
            c1 = time.process_time()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                c2 = time.process_time()
                t2 = time.perf_counter()
                span.update(start=t0, end=t2, tare=t1 - t0, cpu=c2 - c1)
                self.spans.append(span)
            if after is not None:
                after(span, result, *args, **kwargs)
                span["end"] = time.perf_counter()
                span["tare"] += span["end"] - t2
            return result

        return traced

    def install(self) -> None:
        """Wrap every WRAPPED function in all loaded latquant modules."""
        import latquant.cli  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "latquant" or key.startswith("latquant.")]
        for mod_name, qualname in WRAPPED:
            owner_name, _, attr = qualname.rpartition(".")
            owner = sys.modules.get(f"latquant.{mod_name}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{qualname}")
                continue
            wrapped = self.wrap(f"{mod_name}.{attr}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path) -> None:
        from checks import profile

        for span in self.spans:
            bases = span.pop("_bases", None)
            if bases is not None:
                before, after = (float(np.sum(profile(b.T @ b) ** 2)) for b in bases)
                span["sum_l2_before"], span["sum_l2_after"] = before, after
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: dict, job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job.  A function that was not called
    (or is absent) contributes 0 s and 0 calls; the ratios read 1.0 then."""
    spans = doc["spans"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in sorted(spans, key=lambda s: s["start"]):
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def own(s):
        return s["end"] - s["start"] - s["tare"]

    def total(name, measure=own):
        return float(sum(measure(s) for s in by_name[name]))

    def self_time(s):
        return own(s) - child_time[s["id"]]

    ql = by_name["linalg.ql_decompose"]
    lll = by_name["reduction.lll_reduce"]
    sum_before = sum(s["sum_l2_before"] for s in lll)
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return {
        "matio.load_matrix_csv.s": total("matio.load_matrix_csv"),
        "matio.bytes_read": total("matio.load_matrix_csv", lambda s: s["bytes"]),
        "matio.save_matrix_csv.s": total("matio.save_matrix_csv"),
        "linalg.ql_decompose.s": total("linalg.ql_decompose"),
        "linalg.ql_decompose.first_s": own(ql[0]) if ql else 0.0,
        "linalg.ql_decompose.calls": len(ql),
        "linalg.ql_decompose.unique_ratio":
            len({s["digest"] for s in ql}) / len(ql) if ql else 1.0,
        "quantize.quantize_matrix.self_s": total("quantize.quantize_matrix", self_time),
        "quantize.quantize_matrix.cpu_s":
            total("quantize.quantize_matrix", lambda s: s["cpu"]),
        "quantize.cross_layer_target.self_s":
            total("quantize.cross_layer_target", self_time),
        "lattice.babai_from_target.s": total("lattice.babai_from_target"),
        "reduction.lll_reduce.s": total("reduction.lll_reduce"),
        "reduction.map_solution.s": total("reduction.map_solution"),
        "reduction.sum_l2_ratio":
            sum(s["sum_l2_after"] for s in lll) / sum_before if lll else 1.0,
        "report.to_json.s": total("report.to_json"),
        "report.bytes": total("report.to_json", lambda s: s["bytes"]),
        "cli.untraced_s": job_s - _covered(top),
    }


def main(argv: list[str]) -> int:
    spans_path, mode, job_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            return sys.modules["latquant.cli"].main(job_args)
        import chain_job

        return chain_job.main(job_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
