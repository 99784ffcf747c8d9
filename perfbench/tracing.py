"""In-memory span tracing around the calls into each `vvps` layer.

`install(recorder)` replaces each public function named in `TARGETS` by a
wrapper, under every name a `vvps` module looks it up by (for example
`vvps.series.evaluate_v` as well as `vvps.multiplier.evaluate_v`, because
`series.py` imports it by name).  A wrapper records one span -- name,
start, end, parent and job id -- while the recorder is active, and calls
straight through otherwise, so oracle checks are never traced.

Spans are kept in flat arrays (a traced run can hold millions of them)
and written out by `Recorder.dump` when the run ends.  `layer_metrics`
turns them into the per-layer metrics.  Self time is a span's duration
minus the time its child spans cover; spans nest strictly because only
the recording thread is traced, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array

import numpy as np

# Layer (module) -> functions timed in it.  "Class.method" wraps a method.
TARGETS = {
    "modgroup": ["enumerate_cosets", "right_coset_reps"],
    "multiplier": ["evaluate_v"],
    "rep": ["evaluate_rho", "permutation_ell", "check_normal", "spectral_split",
            "induce", "st_rep"],
    "seeds": ["ClassicalSeed.scalar_many", "EllipticSeed.scalar_many"],
    # _prepared is private, but it is where the per-coset preparation runs
    # (evaluate_v and evaluate_rho per coset, plus its own loop), so the
    # kernel's time can be told apart from it.
    "series": ["SeriesHandle.evaluate_many", "SeriesHandle._prepared"],
    "_quad": ["block_sum", "comp_sum_complex"],
    "analysis": ["fourier_coefficients", "petersson_strip",
                 "elliptic_expansion_coeffs", "petersson_pair_full"],
    "nonvanish": ["classical_criterion", "elliptic_criterion", "region_test_a",
                  "region_test_c", "find_radius", "gamma_median", "beta_median"],
    "cli": ["run"],
}

# Metric names must start with a letter, so `_quad` reports as `quad`.
LAYERS = ("job", "modgroup", "multiplier", "rep", "seeds", "series", "quad",
          "analysis", "nonvanish", "cli")
_LABEL = {"_quad": "quad"}


class Recorder:
    """Spans of one process.  Span 0..n-1 in opening order; the root span of
    each job is named "job"."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.outermost = array("b")   # no open ancestor has the same name
        self.open_layers = array("i")  # bitmask of layers open above the span
        self.attrs: dict[int, dict] = {}
        self.active = False
        self.current_job = -1
        self._stack: list[int] = []
        self._open_names: dict[int, int] = {}
        self._layer_mask = 0
        self._layer_depth = [0] * len(LAYERS)
        self._thread = threading.get_ident()

    def __len__(self):
        return len(self.start)

    def recording(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(LAYERS.index(name.split(".")[0]))
        layer = self._layer_of[nid]
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.outermost.append(0 if self._open_names.get(nid) else 1)
        self.open_layers.append(self._layer_mask)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_names[nid] = self._open_names.get(nid, 0) + 1
        self._layer_depth[layer] += 1
        self._layer_mask |= 1 << layer
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        nid = self.name_id[idx]
        self._open_names[nid] -= 1
        layer = self._layer_of[nid]
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self._layer_mask &= ~(1 << layer)

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "job": np.frombuffer(self.job, dtype=np.int64),
                "outermost": np.frombuffer(self.outermost, dtype=np.int8),
                "open_layers": np.frombuffer(self.open_layers, dtype=np.int32)}

    def dump(self, path) -> None:
        """Write the spans as one .npz file (arrays above, plus the name
        table and the per-span counts as JSON)."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
                            **self.arrays())


def _counts(name: str, args, result) -> dict:
    """Work counts measured at the boundary, from arguments and results."""
    if name == "modgroup.enumerate_cosets":
        return {"cosets": len(result)}
    if name == "series.evaluate_many":
        values, tails = result
        points = int(values.shape[0])
        norms = np.linalg.norm(values, axis=1)
        ratio = tails[norms > 0] / norms[norms > 0]
        return {"points": points, "terms": points * len(args[0].cosets),
                "tail_ratio_max": float(ratio.max()) if ratio.size else 0.0}
    return {}


def _wrap(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        counts = _counts(name, args, result)
        if counts:
            rec.attrs[idx] = counts
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every target under each name it is looked up by; returns the
    qualified names patched."""
    import vvps
    modules = {m: importlib.import_module(f"vvps.{m}")
               for m in ("modgroup", "multiplier", "rep", "seeds", "series",
                         "_quad", "analysis", "nonvanish", "cli")}
    modules[""] = vvps
    patched = []
    for layer, names in TARGETS.items():
        home = modules[layer]
        for qual in names:
            span = f"{_LABEL.get(layer, layer)}.{qual.split('.')[-1].lstrip('_')}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, _wrap(rec, span, getattr(cls, meth)))
                patched.append(f"vvps.{layer}.{qual}")
                continue
            original = getattr(home, qual)
            wrapper = _wrap(rec, span, original)
            for mod_name, mod in modules.items():
                if getattr(mod, qual, None) is original:
                    setattr(mod, qual, wrapper)
                    patched.append(".".join(filter(None, ("vvps", mod_name, qual))))
    return patched


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the summed duration of its children."""
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class SpanTable:
    """Vectorised queries over a recorder's spans."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.names = rec.names
        self.attrs = rec.attrs
        self.name_id = a["name_id"]
        self.dur = a["end"] - a["start"]
        self.self_s = self_times(a["start"], a["end"], a["parent"])
        self.outermost = a["outermost"].astype(bool)
        self.open_layers = a["open_layers"]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name) & self.outermost))

    def busy(self, name: str) -> float:
        return float(self.dur[self.mask(name) & self.outermost].sum())

    def self_time(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def under(self, layer: str) -> np.ndarray:
        return (self.open_layers & (1 << LAYERS.index(layer))) != 0

    def count(self, name: str, key: str, combine=sum):
        vals = [self.attrs[i][key] for i in np.flatnonzero(self.mask(name)) if i in self.attrs]
        return combine(vals) if vals else 0

    def layer_shares(self) -> dict:
        """Layer -> self time in that layer over total job time; time in a
        job outside every traced layer is reported under "other"."""
        total = float(self.dur[self.mask("job")].sum())
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)
        per = np.bincount(layer_of[self.name_id], weights=self.self_s, minlength=len(LAYERS))
        return {("other" if layer == "job" else layer): (float(per[i]) / total if total else 0.0)
                for i, layer in enumerate(LAYERS)}


def layer_metrics(rec: Recorder, threads: int) -> dict:
    """name -> (value, unit) for the per-layer metrics of one traced run,
    without trace.overhead_frac, which needs the untraced run."""
    t = SpanTable(rec)
    enum_busy = t.busy("modgroup.enumerate_cosets")
    cosets = t.count("modgroup.enumerate_cosets", "cosets")
    v_calls, v_busy = t.calls("multiplier.evaluate_v"), t.busy("multiplier.evaluate_v")
    rho_calls, rho_busy = t.calls("rep.evaluate_rho"), t.busy("rep.evaluate_rho")
    terms = t.count("series.evaluate_many", "terms")

    # Kernel time: evaluate_many's own code plus the seed and summation
    # calls made inside it, i.e. without the per-coset preparation.
    in_series = t.under("series")
    kernel_s = (t.self_time("series.evaluate_many")
                + float(t.self_s[in_series & (t.mask("seeds.scalar_many")
                                              | t.mask("quad.block_sum"))].sum()))
    prepare_s = t.busy("series.prepared")
    job_s = t.busy("job")
    em = np.flatnonzero(t.mask("series.evaluate_many") & t.under("analysis"))
    quad_nodes = sum(t.attrs.get(i, {}).get("points", 0) for i in em)

    def per(total, n, scale):
        return scale * total / n if n else 0.0

    m = {
        "modgroup.enumerate_cosets.calls": (t.calls("modgroup.enumerate_cosets"), "count"),
        "modgroup.enumerate_cosets.busy_s": (enum_busy, "s"),
        "modgroup.enumerate_cosets.cosets": (cosets, "count"),
        "modgroup.enumerate_cosets.us_per_coset": (per(enum_busy, cosets, 1e6), "us"),
        "modgroup.right_coset_reps.busy_s": (t.busy("modgroup.right_coset_reps"), "s"),
        "multiplier.evaluate_v.calls": (v_calls, "count"),
        "multiplier.evaluate_v.busy_s": (v_busy, "s"),
        "multiplier.evaluate_v.us_per_call": (per(v_busy, v_calls, 1e6), "us"),
        "rep.evaluate_rho.calls": (rho_calls, "count"),
        "rep.evaluate_rho.self_s": (t.self_time("rep.evaluate_rho"), "s"),
        "rep.evaluate_rho.us_per_call": (per(rho_busy, rho_calls, 1e6), "us"),
        "rep.permutation_ell.calls": (t.calls("rep.permutation_ell"), "count"),
        "rep.permutation_ell.busy_s": (t.busy("rep.permutation_ell"), "s"),
        "rep.check_normal.busy_s": (t.busy("rep.check_normal"), "s"),
        "rep.spectral_split.busy_s": (t.busy("rep.spectral_split"), "s"),
        "seeds.scalar_many.busy_s": (t.busy("seeds.scalar_many"), "s"),
        "series.evaluate_many.calls": (t.calls("series.evaluate_many"), "count"),
        "series.evaluate_many.points": (t.count("series.evaluate_many", "points"), "count"),
        "series.evaluate_many.terms": (terms, "count"),
        "series.evaluate_many.self_s": (t.self_time("series.evaluate_many"), "s"),
        "series.prepared.busy_s": (prepare_s, "s"),
        "series.ns_per_term": (per(kernel_s, terms, 1e9), "ns"),
        "series.tail_ratio_max": (t.count("series.evaluate_many", "tail_ratio_max", max), "ratio"),
        "quad.block_sum.busy_s": (t.busy("quad.block_sum"), "s"),
        "quad.comp_sum_complex.busy_s": (t.busy("quad.comp_sum_complex"), "s"),
        "analysis.fourier_coefficients.self_s": (t.self_time("analysis.fourier_coefficients"), "s"),
        "analysis.petersson_strip.self_s": (t.self_time("analysis.petersson_strip"), "s"),
        "analysis.elliptic_expansion_coeffs.self_s": (t.self_time("analysis.elliptic_expansion_coeffs"), "s"),
        "analysis.petersson_pair_full.self_s": (t.self_time("analysis.petersson_pair_full"), "s"),
        "analysis.quad_nodes": (quad_nodes, "count"),
        "nonvanish.classical_criterion.busy_s": (t.busy("nonvanish.classical_criterion"), "s"),
        "nonvanish.elliptic_criterion.busy_s": (t.busy("nonvanish.elliptic_criterion"), "s"),
        "nonvanish.find_radius.busy_s": (t.busy("nonvanish.find_radius"), "s"),
        "nonvanish.region_test_c.busy_s": (t.busy("nonvanish.region_test_c"), "s"),
        "nonvanish.median.calls": (t.calls("nonvanish.gamma_median")
                                   + t.calls("nonvanish.beta_median"), "count"),
        "cli.run.self_s": (t.self_time("cli.run"), "s"),
        "cli.threads": (threads, "count"),
    }
    for layer, share in t.layer_shares().items():
        m[f"share.{layer}"] = (share, "ratio")
    m["share.preparation"] = (prepare_s / job_s if job_s else 0.0, "ratio")
    m["share.kernel"] = (kernel_s / job_s if job_s else 0.0, "ratio")
    return m
