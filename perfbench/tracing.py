"""Span tracer that rebinds public dpalarm functions, and the per-layer metrics.

The traced run is separate from the end-to-end runs, which carry no wrappers.
``Tracer.install`` replaces each traced function in every loaded ``dpalarm``
module that holds a reference to it, so calls through ``pipeline``, ``cli`` or
``netsvc`` are seen as well as direct ones. Spans (name, start, end, parent,
units) are kept in per-thread arrays and written out once, when the run ends.
A function that a later change deletes is skipped: its metrics are absent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# name -> (module, attribute path, units of work per call taken from the result)
TRACED = {
    "plant.generate_trace": ("dpalarm.plant", "generate_trace", len),
    "ekf.run_filter": ("dpalarm.ekf", "run_filter", len),
    "ekf.jacobian": ("dpalarm.ekf", "jacobian", None),
    "ekf.residuals_from_csv": ("dpalarm.ekf", "residuals_from_csv", len),
    "protocol.aggregate_epoch": ("dpalarm.protocol", "aggregate_epoch", None),
    "protocol.process_epoch": ("dpalarm.protocol", "UtilitySession.process_epoch", None),
    "privacy.sequential_disclose": ("dpalarm.privacy", "sequential_disclose", None),
    "stats.eig_factorize": ("dpalarm.stats", "eig_factorize", None),
    "stats.noncentral_chi2_quantile": ("dpalarm.stats", "noncentral_chi2_quantile", None),
    "stats.noncentral_chi2_cdf": ("dpalarm.stats", "noncentral_chi2_cdf", None),
    "bounds.equivalent_alpha": ("dpalarm.bounds", "equivalent_alpha", None),
    "bounds.type1_upper_bound": ("dpalarm.bounds", "type1_upper_bound", None),
    "protocol.verify_pv": ("dpalarm.protocol", "verify_pv", None),
    "protocol.verify_cr": ("dpalarm.protocol", "verify_cr", None),
    "protocol.decode_record": ("dpalarm.protocol", "decode_record", None),
    "protocol.encode_record": ("dpalarm.protocol", "encode_record", None),
    "netsvc.replay_audit": ("dpalarm.netsvc", "replay_audit", len),
}

# Per-layer metrics: name -> unit. The README says which end-to-end metric each
# should move, and on which workload.
LAYER_UNITS = {
    "plant.generate_trace.us_per_step": "us",
    "ekf.run_filter.us_per_step": "us",
    "ekf.jacobian.calls_per_step": "count",
    "ekf.residuals_from_csv.us_per_record": "us",
    "protocol.aggregate_epoch.us_per_call": "us",
    "protocol.process_epoch.self_us_per_call": "us",
    "privacy.sequential_disclose.us_per_call": "us",
    "privacy.sequential_disclose.calls_per_epoch": "count",
    "stats.eig_factorize.calls_per_epoch": "count",
    "stats.eig_factorize.us_per_call": "us",
    "stats.noncentral_chi2_quantile.calls_per_epoch": "count",
    "stats.noncentral_chi2_quantile.us_per_call": "us",
    "stats.noncentral_chi2_cdf.calls_per_epoch": "count",
    "stats.noncentral_chi2_cdf.us_per_call": "us",
    "bounds.equivalent_alpha.calls_per_kepoch": "count",
    "bounds.equivalent_alpha.ms_per_call": "ms",
    "bounds.type1_upper_bound.calls_per_inversion": "count",
    "protocol.verify_pv.us_per_call": "us",
    "protocol.verify_cr.us_per_call": "us",
    "protocol.decode_record.us_per_call": "us",
    "protocol.encode_record.us_per_call": "us",
    "netsvc.session_overhead_us_per_tuple": "us",
    "netsvc.replay_audit.us_per_record": "us",
}


class _Buffer:
    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self.stack: list[int] = []


class Tracer:
    """In-memory span recorder; one buffer per thread, merged at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.start.append(0.0)
        buf.end.append(0.0)
        buf.units.append(0)
        buf.stack.append(idx)
        return buf, idx

    def wrap(self, name: str, fn, units=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        opener = self._open

        def traced(*args, **kwargs):
            buf, idx = opener(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                buf.stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1
            if units is not None:
                buf.units[idx] = units(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Rebind every traced function that exists."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dpalarm" and m]
        for name, (mod_name, attr, units) in TRACED.items():
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, leaf, None) if holder is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(name, orig, units)
            if owner:
                self._restore.append((holder, leaf, orig))
                setattr(holder, leaf, wrapped)
            else:
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def table(self) -> "SpanTable":
        with self._lock:
            bufs = list(self._buffers)
        parts = [
            SpanTable(
                self.names, [b.thread_name], np.array(b.name), np.array(b.parent),
                np.array(b.start), np.array(b.end), np.array(b.units),
                np.zeros(len(b.name), dtype=np.int32),
            )
            for b in bufs
        ]
        return SpanTable.concat(parts)


class SpanTable:
    """Merged spans of one process; parent indices point into the same table."""

    def __init__(self, names, threads, name, parent, start, end, units, thread):
        self.names = list(names)
        self.threads = list(threads)
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.units = np.asarray(units, dtype=np.int64)
        self.thread = np.asarray(thread, dtype=np.int32)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            threads=np.array(self.threads),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
            units=self.units,
            thread=self.thread,
        )

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as z:
            return cls(
                names=[str(s) for s in z["names"]],
                threads=[str(s) for s in z["threads"]],
                **{k: z[k] for k in ("name", "parent", "start", "end", "units", "thread")},
            )

    @classmethod
    def concat(cls, tables: list["SpanTable"]) -> "SpanTable":
        """One table from the spans of several processes."""
        names: list[str] = []
        threads: list[str] = []
        cols = {k: [] for k in ("name", "parent", "start", "end", "units", "thread")}
        offset = 0
        for t in tables:
            remap = []
            for n in t.names:
                if n not in names:
                    names.append(n)
                remap.append(names.index(n))
            cols["name"].append(np.asarray(remap, dtype=np.int32)[t.name] if len(t) else t.name)
            cols["parent"].append(np.where(t.parent >= 0, t.parent + offset, -1))
            cols["thread"].append(t.thread + len(threads))
            for k in ("start", "end", "units"):
                cols[k].append(getattr(t, k))
            threads += t.threads
            offset += len(t)
        return cls(names, threads, **{k: np.concatenate(v) if v else [] for k, v in cols.items()})

    def __len__(self) -> int:
        return len(self.name)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        m = self.mask(name)
        return self.end[m] - self.start[m]

    def self_times(self, name: str) -> np.ndarray:
        dur = self.end - self.start
        child = np.zeros(len(self))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], dur[has])
        m = self.mask(name)
        return (dur - child)[m]

    def under(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Spans of ``name`` with at least one ancestor among ``ancestors``."""
        anc = np.zeros(len(self), dtype=bool)
        for a in ancestors:
            anc |= self.mask(a)
        inside = np.zeros(len(self), dtype=bool)  # strictly below an ancestor
        has = self.parent >= 0
        frontier = anc.copy()
        # parents always precede children, so propagate level by level
        while True:
            new = np.zeros(len(self), dtype=bool)
            new[has] = frontier[self.parent[has]] | inside[self.parent[has]]
            if np.array_equal(new, inside):
                break
            inside = new
        return int((inside & self.mask(name)).sum())


def _mean_us(tbl: SpanTable, name: str, durations=None) -> float | None:
    d = tbl.durations(name) if durations is None else durations
    return float(np.mean(d) * 1e6) if len(d) else None


def _per_unit_us(tbl: SpanTable, name: str) -> float | None:
    m = tbl.mask(name)
    units = int(tbl.units[m].sum())
    if not units:
        return None
    return float((tbl.end[m] - tbl.start[m]).sum() / units * 1e6)


def layer_metrics(tbl: SpanTable) -> dict[str, float]:
    """Every per-layer metric the table can give; absent layers are skipped.

    Per-epoch counts divide by the utility-side epochs (``process_epoch``
    calls); ``eig_factorize`` per epoch adds the regulator side's calls per
    verification, so it reads 3 in PV mode and 4 in CR mode today.
    """
    out: dict[str, float | None] = {}
    epochs = tbl.count("protocol.process_epoch")
    verifies = tbl.count("protocol.verify_cr") + tbl.count("protocol.verify_pv")
    steps = int(tbl.units[tbl.mask("ekf.run_filter")].sum())

    out["plant.generate_trace.us_per_step"] = _per_unit_us(tbl, "plant.generate_trace")
    out["ekf.run_filter.us_per_step"] = _per_unit_us(tbl, "ekf.run_filter")
    if steps and "ekf.jacobian" in tbl.names:
        out["ekf.jacobian.calls_per_step"] = tbl.count("ekf.jacobian") / steps
    out["ekf.residuals_from_csv.us_per_record"] = _per_unit_us(tbl, "ekf.residuals_from_csv")
    out["protocol.aggregate_epoch.us_per_call"] = _mean_us(tbl, "protocol.aggregate_epoch")
    out["protocol.process_epoch.self_us_per_call"] = _mean_us(
        tbl, "protocol.process_epoch", tbl.self_times("protocol.process_epoch")
    )
    out["privacy.sequential_disclose.us_per_call"] = _mean_us(tbl, "privacy.sequential_disclose")
    out["stats.eig_factorize.us_per_call"] = _mean_us(tbl, "stats.eig_factorize")
    out["stats.noncentral_chi2_quantile.us_per_call"] = _mean_us(
        tbl, "stats.noncentral_chi2_quantile"
    )
    out["stats.noncentral_chi2_cdf.us_per_call"] = _mean_us(tbl, "stats.noncentral_chi2_cdf")
    ea = tbl.durations("bounds.equivalent_alpha")
    out["bounds.equivalent_alpha.ms_per_call"] = float(np.mean(ea) * 1e3) if len(ea) else None
    out["protocol.verify_pv.us_per_call"] = _mean_us(tbl, "protocol.verify_pv")
    out["protocol.verify_cr.us_per_call"] = _mean_us(tbl, "protocol.verify_cr")
    out["protocol.decode_record.us_per_call"] = _mean_us(tbl, "protocol.decode_record")
    out["protocol.encode_record.us_per_call"] = _mean_us(tbl, "protocol.encode_record")
    out["netsvc.replay_audit.us_per_record"] = _per_unit_us(tbl, "netsvc.replay_audit")
    if epochs:
        for layer, key in (
            ("privacy.sequential_disclose", "privacy.sequential_disclose.calls_per_epoch"),
            ("stats.noncentral_chi2_quantile", "stats.noncentral_chi2_quantile.calls_per_epoch"),
            ("stats.noncentral_chi2_cdf", "stats.noncentral_chi2_cdf.calls_per_epoch"),
        ):
            if layer in tbl.names:
                out[key] = tbl.count(layer) / epochs
        if "bounds.equivalent_alpha" in tbl.names:
            out["bounds.equivalent_alpha.calls_per_kepoch"] = (
                1000.0 * tbl.count("bounds.equivalent_alpha") / epochs
            )
        if "stats.eig_factorize" in tbl.names:
            utility = tbl.under(
                "stats.eig_factorize", ("protocol.aggregate_epoch", "protocol.process_epoch")
            )
            value = utility / epochs
            if verifies:
                regulator = tbl.under(
                    "stats.eig_factorize", ("protocol.verify_cr", "protocol.verify_pv")
                )
                value += regulator / verifies
            out["stats.eig_factorize.calls_per_epoch"] = value
    inversions = tbl.count("bounds.equivalent_alpha")
    if inversions and "bounds.type1_upper_bound" in tbl.names:
        out["bounds.type1_upper_bound.calls_per_inversion"] = (
            tbl.under("bounds.type1_upper_bound", ("bounds.equivalent_alpha",)) / inversions
        )
    return {k: v for k, v in out.items() if v is not None}


def server_us_per_tuple(tbl: SpanTable, server_threads: set[int] | None = None) -> float | None:
    """Regulator-side decode + verify + encode time per verified CR tuple."""
    sel = np.ones(len(tbl), dtype=bool)
    if server_threads is not None:
        sel = np.isin(tbl.thread, sorted(server_threads))
    n = int((tbl.mask("protocol.verify_cr") & sel).sum())
    if not n:
        return None
    total = 0.0
    for name in ("protocol.decode_record", "protocol.verify_cr", "protocol.encode_record"):
        m = tbl.mask(name) & sel
        total += float((tbl.end[m] - tbl.start[m]).sum())
    return total / n * 1e6
