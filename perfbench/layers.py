"""Per-layer metrics: the hooks the tracer runs and the summary of one pass.

Layers are the package's modules.  Every wrapped function's self time
counts towards its module; counts are taken from spans (calls) or from
hook facts (Airy arguments, residual evaluations, roots, peaks) so that a
batched function that takes an array is counted per element, not per call.
"""

from __future__ import annotations

import inspect
import numbers

import numpy as np

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = {
    "airy.series.points": "count",
    "airy.osc.points": "count",
    "airy.exp.points": "count",
    "airy.series.us_per_point": "us",
    "airy.osc.us_per_point": "us",
    "airy.exp.us_per_point": "us",
    "airy.series.share": "ratio",
    "airy.self_s": "s",
    "potential.realize.calls": "count",
    "potential.self_s": "s",
    "transfer.layers": "count",
    "transfer.airy_fraction": "ratio",
    "transfer.us_per_layer": "us",
    "transfer.self_s": "s",
    "transfer.det_dev.max": "abs",
    "scattering.calls": "count",
    "scattering.evanescent": "count",
    "scattering.us_per_call": "us",
    "sweep.evals": "count",
    "sweep.refine_evals": "count",
    "sweep.peaks_per_refine_eval": "ratio",
    "sweep.detect_s": "s",
    "sweep.emit_s": "s",
    "limits.residual.calls": "count",
    "limits.us_per_call": "us",
    "limits.self_s": "s",
    "resonance.scan.evals": "count",
    "resonance.candidates": "count",
    "resonance.roots": "count",
    "resonance.accept_ratio": "ratio",
    "resonance.self_s": "s",
    "cli.load_config_s": "s",
    "process.cpu_s": "s",
    "trace.overhead": "ratio",
}

# Counts that must repeat exactly between passes over the same jobs.
COUNTS = [name for name, unit in METRICS.items() if unit == "count"]


def _size(x) -> int:
    return 1 if isinstance(x, numbers.Number) else int(np.size(x))


def _first_param(fn) -> str | None:
    params = [p for p in inspect.signature(fn).parameters if p != "self"]
    return params[0] if params else None


def _airy_hook(radius):
    """Hook counting Airy arguments by regime: |z| <= radius, z < -radius,
    z > radius (NaN counts as the last)."""

    def hook(tracer, span, args, kwargs, result):
        z = args[0] if args else next(iter(kwargs.values()))
        if isinstance(z, float):
            series = 1 if abs(z) <= radius else 0
            osc = 1 if z < -radius else 0
            tracer.facts["airy"].extend((span, series, osc, 1 - series - osc))
            return
        z = np.asarray(z, dtype=float)
        series = int(np.count_nonzero(np.abs(z) <= radius))
        osc = int(np.count_nonzero(z < -radius))
        tracer.facts["airy"].extend((span, series, osc, z.size - series - osc))

    return hook


def _det_hook(tracer, span, args, kwargs, result):
    if hasattr(result, "l11"):
        dev = abs(result.l11 * result.l22 - result.l12 * result.l21 - 1.0)
    elif isinstance(result, np.ndarray) and result.shape[-2:] == (2, 2):
        det = result[..., 0, 0] * result[..., 1, 1] - result[..., 0, 1] * result[..., 1, 0]
        dev = float(np.max(np.abs(det - 1.0))) if det.size else 0.0
    else:
        return
    tracer.facts["det"].append(dev)


def _eval_hook(tracer, span, args, kwargs, result):
    tracer.facts["evals"].extend((span, _size(result)))


def _residual_hook(tracer, span, args, kwargs, result):
    value = result[0] if isinstance(result, tuple) else result
    tracer.facts["residual"].extend((span, _size(value)))


def _len_hook(key):
    def hook(tracer, span, args, kwargs, result):
        tracer.facts[key].extend((span, len(result)))

    return hook


def _roots_hook(tracer, span, args, kwargs, result):
    roots = getattr(result, "roots", None)
    if roots is not None:
        tracer.facts["sets"].extend((span, len(roots)))


def hooks(package):
    """hook_for(qualified name, function) for the tracer: the hook for one
    wrapped function, chosen from its module and name.  Airy arguments are
    classified by the package's own SERIES_RADIUS."""
    airy_hook = _airy_hook(package.airy.SERIES_RADIUS)

    def hook_for(qual: str, fn):
        layer = qual.partition(".")[0]
        if layer == "airy" and _first_param(fn) == "z":
            return airy_hook
        if layer == "limits" and "residual" in qual:
            return _residual_hook
        if layer == "transfer":
            return _det_hook
        if qual == "sweep.SweepRequest.transmission":
            return _eval_hook
        if qual == "sweep.detect_peaks":
            return _len_hook("peaks")
        if qual == "resonance.scan_and_bisect":
            return _len_hook("candidates")
        if layer == "resonance":
            return _roots_hook
        return None

    return hook_for


def _pairs(facts, key, width=2):
    arr = np.frombuffer(facts[key], dtype=np.float64) if key in facts else np.zeros(0)
    return arr.reshape(-1, width)


def _has_ancestor(parent, name, idx, target_ids, depth=12):
    """Mask over spans idx: does any ancestor (up to depth) carry a target name?"""
    found = np.zeros(len(idx), dtype=bool)
    cur = parent[idx]
    for _ in range(depth):
        live = cur >= 0
        if not live.any():
            break
        found[live] |= np.isin(name[cur[live]], target_ids)
        cur = np.where(live, parent[np.maximum(cur, 0)], -1)
    return found


def pass_metrics(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace-run metrics excluded)."""
    name, parent, start, end, self_t, incl_t, over = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name, weights=incl_t, minlength=n_names)
    per_name_self = np.bincount(name, weights=self_t, minlength=n_names)
    by_layer: dict[str, float] = {}
    for i, lay in enumerate(tracer.layers):
        by_layer[lay] = by_layer.get(lay, 0.0) + float(per_name_self[i])

    def ids(pred):
        return [i for i, q in enumerate(names) if pred(q)]

    def count(pred):
        return int(sum(calls[i] for i in ids(pred)))

    def incl_s(pred):
        return float(sum(incl[i] for i in ids(pred)))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m: dict[str, float] = {}

    airy = _pairs(tracer.facts, "airy", 4)
    pts = airy[:, 1:].sum(axis=0) if len(airy) else np.zeros(3)
    if len(airy):
        share = airy[:, 1:] / np.maximum(airy[:, 1:].sum(axis=1, keepdims=True), 1)
        regime_s = (share * self_t[airy[:, 0].astype(int)][:, None]).sum(axis=0)
    else:
        regime_s = np.zeros(3)
    for k, regime in enumerate(("series", "osc", "exp")):
        m[f"airy.{regime}.points"] = int(pts[k])
    for k, regime in enumerate(("series", "osc", "exp")):
        m[f"airy.{regime}.us_per_point"] = ratio(regime_s[k], pts[k], 1e6)
    m["airy.series.share"] = ratio(regime_s[0], wall_s)
    m["airy.self_s"] = by_layer.get("airy", 0.0)

    m["potential.realize.calls"] = count(lambda q: q == "potential.realize")
    m["potential.self_s"] = by_layer.get("potential", 0.0)

    linear = count(lambda q: q == "transfer.layer_matrix_linear")
    layers = linear + count(lambda q: q == "transfer.layer_matrix_constant")
    m["transfer.layers"] = layers
    m["transfer.airy_fraction"] = ratio(linear, layers)
    m["transfer.us_per_layer"] = ratio(by_layer.get("transfer", 0.0), layers, 1e6)
    m["transfer.self_s"] = by_layer.get("transfer", 0.0)
    det = tracer.facts.get("det")
    m["transfer.det_dev.max"] = max(det) if det else 0.0

    scatter_ids = ids(lambda q: q == "scattering.scatter")
    m["scattering.calls"] = count(lambda q: q == "scattering.scatter")
    m["scattering.evanescent"] = sum(
        n for (fid, exc), n in tracer.errors.items()
        if fid in scatter_ids and exc == "EvanescentLeadError"
    )
    m["scattering.us_per_call"] = ratio(
        by_layer.get("scattering", 0.0), m["scattering.calls"], 1e6
    )

    evals = _pairs(tracer.facts, "evals")
    detect_ids = ids(lambda q: q == "sweep.detect_peaks")
    in_detect = _has_ancestor(parent, name, evals[:, 0].astype(int), detect_ids)
    m["sweep.evals"] = int(evals[:, 1].sum())
    m["sweep.refine_evals"] = int(evals[in_detect, 1].sum())
    peaks = _pairs(tracer.facts, "peaks")
    m["sweep.peaks_per_refine_eval"] = ratio(peaks[:, 1].sum(), m["sweep.refine_evals"])
    m["sweep.detect_s"] = incl_s(lambda q: q == "sweep.detect_peaks")
    m["sweep.emit_s"] = incl_s(lambda q: q.startswith("sweep.sweep_to_"))

    residual = _pairs(tracer.facts, "residual")
    m["limits.residual.calls"] = int(residual[:, 1].sum())
    m["limits.us_per_call"] = ratio(
        by_layer.get("limits", 0.0), m["limits.residual.calls"], 1e6
    )
    m["limits.self_s"] = by_layer.get("limits", 0.0)

    scan_ids = ids(lambda q: q == "resonance.scan_and_bisect")
    scan_spans = np.flatnonzero(np.isin(name, scan_ids))
    in_scan = _has_ancestor(parent, name, residual[:, 0].astype(int), scan_ids)
    m["resonance.scan.evals"] = int(residual[in_scan, 1].sum())
    cands = _pairs(tracer.facts, "candidates")
    m["resonance.candidates"] = int(cands[:, 1].sum())
    sets = _pairs(tracer.facts, "sets")
    scanned = np.isin(sets[:, 0].astype(int), parent[scan_spans])
    m["resonance.roots"] = int(sets[scanned, 1].sum())
    m["resonance.accept_ratio"] = ratio(m["resonance.roots"], m["resonance.candidates"])
    m["resonance.self_s"] = by_layer.get("resonance", 0.0)

    m["cli.load_config_s"] = incl_s(lambda q: q == "cli.load_config")
    m["trace_s"] = float(over.sum())
    m["call_cost_s"] = tracer.call_cost
    m["self_sum_s"] = float(self_t.sum())
    m["unattributed_s"] = wall_s - m["self_sum_s"] - m["trace_s"]
    return m
