"""Spans and counters around the public functions of each novikov module.

The traced run rebinds every wrapped name where its caller looks it up
(``novikov.twisted.twisted_coboundary`` and ``novikov.hodge.twisted_coboundary``
are two bindings of one function), so nothing under ``src/`` changes.  A
span is ``[name, start, end, parent, job]`` and lives in memory until the
run writes the trace file.  Work done by the tracer itself, such as counting
the nonzero entries of a coboundary, runs inside a ``trace.count`` span so
that it never inflates the self time of a library layer.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name): the bindings a caller looks up at call time.
# cli binds its own names with ``from .x import y``, so those are listed too.
BINDINGS = (
    ("serialization", "load_complex", "serialization.load"),
    ("serialization", "load_action", "serialization.load"),
    ("cli", "load_complex", "serialization.load"),
    ("cli", "load_action", "serialization.load"),
    ("cli", "report_bytes", "serialization.report"),
    ("constructions", "product", "constructions.build"),
    ("constructions", "cyclic_cover", "constructions.build"),
    ("constructions", "mapping_torus", "constructions.build"),
    ("cli", "product", "constructions.build"),
    ("cli", "cyclic_cover", "constructions.build"),
    ("cli", "mapping_torus", "constructions.build"),
    ("twisted", "validate_closed", "cocycles.validate"),
    ("twisted", "betti_profile", "twisted.profile"),
    ("cli", "betti_profile", "twisted.profile"),
    ("twisted", "twisted_coboundary", "twisted.coboundary"),
    ("hodge", "twisted_coboundary", "twisted.coboundary"),
    ("twisted", "rank_with_flag", "scalars.rank"),
    ("scalars", "rank_with_flag", "scalars.rank"),
    ("hodge", "laplacian_spectrum", "hodge.spectrum"),
    ("wang", "induced_action", "wang.induced_action"),
    ("wang", "wang_dims", "wang.dims"),
    ("cli", "wang_dims", "wang.dims"),
    ("bounds", "c_of_b", "bounds.c_of_b"),
    ("bounds", "b_n_detail", "bounds.b_n"),
    ("cli", "c_of_b", "bounds.c_of_b"),
    ("cli", "b_n_detail", "bounds.b_n"),
    ("cli", "main", "cli.main"),
)
# classmethods are rebound on their class
CLASS_BINDINGS = (("complexes", "SimplicialComplex", "build", "complexes.build"),)

LAYERS = (
    "serialization", "complexes", "constructions", "cocycles", "twisted",
    "scalars", "hodge", "wang", "bounds", "cli",
)


def _rank_span(args, kwargs):
    m = args[0]
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    if mode is None:
        mode = "float" if m.backend == "float" else "exact"
    return "scalars.float_rank" if mode == "float" else "scalars.exact_rank"


def _nonzeros(entries) -> int:
    # a coboundary shares one zero object across its empty cells, so
    # tuple.count runs on identity and stays in C
    zero = next((v for v in entries if not v), None)
    return len(entries) if zero is None else len(entries) - entries.count(zero)


class Tracer:
    """Span recorder plus the wrappers it installs; undo with ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.not_observed: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name, args, result):
        if name == "twisted.coboundary":
            idx = self.open("trace.count")
            self._add("twisted.coboundary_cells", result.nrows * result.ncols)
            self._add("twisted.coboundary_nnz", _nonzeros(result.entries))
            self.close(idx)
        elif name == "scalars.exact_rank":
            self._add("scalars.exact_rank_cells", args[0].nrows * args[0].ncols)

    def wrap(self, fn, span):
        tracer = self
        layer = span.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _rank_span(args, kwargs) if span == "scalars.rank" else span
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                tracer.close(idx)
                raise
            tracer._count(name, args, result)
            tracer.close(idx)
            return result

        return traced

    def install(self) -> None:
        self.not_observed = []
        for mod_name, attr, span in BINDINGS:
            module = importlib.import_module(f"novikov.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.not_observed.append(f"novikov.{mod_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span))
            self._restore.append((module, attr, fn))
        for mod_name, cls_name, attr, span in CLASS_BINDINGS:
            module = importlib.import_module(f"novikov.{mod_name}")
            cls = getattr(module, cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if not isinstance(raw, classmethod):
                self.not_observed.append(f"novikov.{mod_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, span)))
            self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def _inside(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of ``BENCHMARK.json`` over every span kept."""
        selfs = self.self_times()
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            if not self._inside(idx, name):
                total[name] = total.get(name, 0.0) + span[2] - span[1]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[idx]
        spectra = calls.get("hodge.spectrum", 0)
        spectrum_cobs = sum(
            1 for idx, s in enumerate(self.spans)
            if s[0] == "twisted.coboundary" and self._inside(idx, "hodge.spectrum")
        )
        spectrum_self = sum(
            selfs[idx] for idx, s in enumerate(self.spans) if s[0] == "hodge.spectrum"
        )
        m = {
            "serialization.load_s": total.get("serialization.load", 0.0),
            "serialization.report_s": total.get("serialization.report", 0.0),
            "complexes.build_s": total.get("complexes.build", 0.0),
            "complexes.build_calls": calls.get("complexes.build", 0),
            "constructions.build_s": total.get("constructions.build", 0.0),
            "constructions.build_calls": calls.get("constructions.build", 0),
            "cocycles.validate_s": total.get("cocycles.validate", 0.0),
            "cocycles.validate_calls": calls.get("cocycles.validate", 0),
            "twisted.profile_s": total.get("twisted.profile", 0.0),
            "twisted.profile_calls": calls.get("twisted.profile", 0),
            "twisted.coboundary_s": total.get("twisted.coboundary", 0.0),
            "twisted.coboundary_calls": calls.get("twisted.coboundary", 0),
            "twisted.coboundary_cells": self.counts.get("twisted.coboundary_cells", 0),
            "twisted.coboundary_nnz": self.counts.get("twisted.coboundary_nnz", 0),
            "scalars.exact_rank_s": total.get("scalars.exact_rank", 0.0),
            "scalars.exact_rank_calls": calls.get("scalars.exact_rank", 0),
            "scalars.exact_rank_cells": self.counts.get("scalars.exact_rank_cells", 0),
            "scalars.float_rank_s": total.get("scalars.float_rank", 0.0),
            "scalars.float_rank_calls": calls.get("scalars.float_rank", 0),
            "hodge.spectrum_s": total.get("hodge.spectrum", 0.0),
            "hodge.spectrum_self_s": spectrum_self,
            "hodge.spectrum_calls": spectra,
            "hodge.coboundaries_per_spectrum": spectrum_cobs / spectra if spectra else 0.0,
            "wang.induced_action_s": total.get("wang.induced_action", 0.0),
            "wang.dims_s": total.get("wang.dims", 0.0),
            "bounds.c_of_b_s": total.get("bounds.c_of_b", 0.0),
            "bounds.c_of_b_calls": calls.get("bounds.c_of_b", 0),
            "bounds.b_n_s": total.get("bounds.b_n", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
        }
        for layer in LAYERS:
            # cli and hodge report theirs above, as cli.self_s and
            # hodge.spectrum_self_s (the spectrum is hodge's only span)
            if layer not in ("cli", "hodge"):
                m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
            m[f"{layer}.errors"] = self.errors.get(layer, 0)
        m["bench.self_s"] = layer_self.get("bench", 0.0)
        m["trace.count_s"] = layer_self.get("trace", 0.0)
        return m

    def job_identity_error(self) -> float:
        """Largest |job span - sum of self times of its spans| over jobs."""
        selfs = self.self_times()
        by_job: dict = {}
        job_len: dict = {}
        for idx, s in enumerate(self.spans):
            if s[4] is None:
                continue
            by_job[s[4]] = by_job.get(s[4], 0.0) + selfs[idx]
            if s[0] == "bench.job":
                job_len[s[4]] = s[2] - s[1]
        return max(
            (abs(job_len[j] - by_job[j]) for j in job_len), default=0.0
        )
