"""Per-layer metrics derived from a traced pass.

A layer is one module of the package. Each named metric below comes from the
spans and counters of the functions it names; the comment on each group says
which end-to-end metric it should move, and on which workload. A layer that a
workload does not run reads 0 there, and a metric whose function is gone reads
0 while the function is reported as absent. The package has no queues or
threads, so there is no waiting time to record.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from spans import Tracer

PACKAGE = "bearingsound"
LAYERS = ("synth", "audiofile", "dsp", "dataset", "experiments", "mlp",
          "metrics", "cli")


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _sidecar_bytes(wav_path) -> int:
    return _file_bytes(Path(wav_path).with_suffix(".rot"))


def _power_spectrum_items(args, kwargs, result):
    bins = result.shape[-1]
    n = 2 * (bins - 1)
    frames = result.size // bins
    # Radix-2 operation count 5 N log2 N per frame: a computed figure, not a
    # measured one, used only to express the time as a rate.
    return {"frames": frames, "flops": frames * 5 * n * math.log2(n)}


def _adam_items(args, kwargs, result):
    grad_w, grad_b = args[1], args[2]
    params = sum(g.size for g in list(grad_w) + list(grad_b))
    # Computed bytes: read parameter, gradient and both moments, write the
    # parameter and both moments, all float64.
    return {"bytes": 8 * 7 * params}


# Counters added per call, by qualified function name.
ITEMS = {
    "synth.synth_recording": lambda a, k, r: {"samples": len(r.samples)},
    "audiofile.write_wav": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "audiofile.read_wav": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "audiofile.write_rot_track": lambda a, k, r: {"bytes": _sidecar_bytes(a[0])},
    "audiofile.read_rot_track": lambda a, k, r: {"bytes": _sidecar_bytes(a[0])},
    "dsp.feature_matrix": lambda a, k, r: {"frames": len(r)},
    "dsp.power_spectrum": _power_spectrum_items,
    "dataset.gate_frames": lambda a, k, r: {"kept": len(r)},
    "experiments.ensure_caches": lambda a, k, r: {"requested": len(r)},
    "mlp.adam_step": _adam_items,
    "mlp.predict_batch": lambda a, k, r: {"frames": len(r)},
}

# Functions the named metrics read; any missing one is reported as absent.
NAMED_FUNCTIONS = (
    "synth.synth_recording", "audiofile.write_wav", "audiofile.read_wav",
    "audiofile.write_rot_track", "audiofile.read_rot_track",
    "dsp.feature_matrix", "dsp.power_spectrum", "dsp.filterbank_energies",
    "dataset.gate_frames", "dataset.write_cache", "dataset.read_cache",
    "dataset.frames_from_cache", "dataset.make_split",
    "dataset.fit_normalization", "dataset.apply_normalization",
    "experiments.ensure_caches", "experiments.extract_channel",
    "mlp.train", "mlp.adam_step", "mlp.predict_batch", "mlp.load_model",
    "mlp.save_model", "metrics.confusion", "metrics.export_scatter",
    "metrics.write_report",
)

# (name, unit, better) for every per-layer metric, in report order.
METRICS = [
    # wall_s on campaign-cold; zero on the other workloads.
    ("synth.synth_recording_s", "s", "lower"),
    ("synth.msamples_per_s", "Msample/s", "higher"),
    # wall_s on campaign-cold.
    ("audiofile.write_wav_s", "s", "lower"),
    ("audiofile.read_wav_s", "s", "lower"),
    ("audiofile.rot_s", "s", "lower"),
    ("audiofile.bytes", "B", "lower"),
    # wall_s and peak_rss_mb on campaign-cold.
    ("dsp.feature_matrix_s", "s", "lower"),
    ("dsp.power_spectrum_s", "s", "lower"),
    ("dsp.filterbank_energies_s", "s", "lower"),
    ("dsp.frames", "count", "lower"),
    ("dsp.power_spectrum_gflops", "GFLOP/s", "higher"),
    # campaign-cold: keep ratio = gated frames / featurized frames.
    ("dataset.gate_frames_self_s", "s", "lower"),
    ("dataset.gate_keep_ratio", "ratio", "higher"),
    # wall_s and peak_rss_mb on seen-motor-warm and score-sweep.
    ("dataset.write_cache_s", "s", "lower"),
    ("dataset.read_cache_s", "s", "lower"),
    ("dataset.frames_from_cache_s", "s", "lower"),
    ("dataset.make_split_s", "s", "lower"),
    ("dataset.normalization_s", "s", "lower"),
    # wall_s on seen-motor-warm, where the reuse ratio must read 1.0.
    ("experiments.extract_calls", "count", "lower"),
    ("experiments.cache_reuse_ratio", "ratio", "higher"),
    # wall_s on seen-motor-warm; no change expected on campaign-cold.
    ("mlp.train_self_s", "s", "lower"),
    ("mlp.adam_step_s", "s", "lower"),
    ("mlp.adam_step_calls", "count", "lower"),
    ("mlp.adam_step_gb_per_s", "GB/s", "higher"),
    # wall_s and peak_rss_mb on score-sweep.
    ("mlp.predict_batch_s", "s", "lower"),
    ("mlp.predict_frames", "count", "lower"),
    ("mlp.load_model_s", "s", "lower"),
    ("mlp.save_model_s", "s", "lower"),
    # score-sweep.
    ("metrics.confusion_s", "s", "lower"),
    ("metrics.export_scatter_s", "s", "lower"),
    ("metrics.write_report_s", "s", "lower"),
    # Scores from report.json, beside the times, on the workloads that score.
    ("metrics.accuracy_pct", "%", "higher"),
    ("metrics.damage_detection_pct", "%", "higher"),
]
for _layer in LAYERS:
    METRICS += [(f"{_layer}.self_s", "s", "lower"),
                (f"{_layer}.calls", "count", "lower"),
                (f"{_layer}.errors", "count", "lower")]
# Traced minus untraced median pass time in the same process.
METRICS.append(("trace.overhead_s", "s", "lower"))

# Counters that must repeat exactly from one traced pass to the next.
COUNT_METRICS = tuple(name for name, unit, _ in METRICS
                      if unit in ("count", "B") and not name.endswith(".errors"))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the scores and the tracing overhead."""
    total, own = tracer.times()
    counts = tracer.counts

    def c(name, key):
        return counts[name].get(key, 0.0) if name in counts else 0.0

    adam_s = total.get("mlp.adam_step", 0.0)
    ps_s = total.get("dsp.power_spectrum", 0.0)
    synth_s = total.get("synth.synth_recording", 0.0)
    featurized = c("dsp.feature_matrix", "frames")
    requested = c("experiments.ensure_caches", "requested")
    extracts = c("experiments.extract_channel", "calls")
    out = {
        "synth.synth_recording_s": synth_s,
        "synth.msamples_per_s": _ratio(
            c("synth.synth_recording", "samples") / 1e6, synth_s),
        "audiofile.write_wav_s": total.get("audiofile.write_wav", 0.0),
        "audiofile.read_wav_s": total.get("audiofile.read_wav", 0.0),
        "audiofile.rot_s": (total.get("audiofile.write_rot_track", 0.0)
                            + total.get("audiofile.read_rot_track", 0.0)),
        "audiofile.bytes": sum(c(f"audiofile.{f}", "bytes") for f in (
            "write_wav", "read_wav", "write_rot_track", "read_rot_track")),
        "dsp.feature_matrix_s": total.get("dsp.feature_matrix", 0.0),
        "dsp.power_spectrum_s": ps_s,
        "dsp.filterbank_energies_s": total.get("dsp.filterbank_energies", 0.0),
        "dsp.frames": featurized,
        "dsp.power_spectrum_gflops": _ratio(
            c("dsp.power_spectrum", "flops") / 1e9, ps_s),
        "dataset.gate_frames_self_s": own.get("dataset.gate_frames", 0.0),
        "dataset.gate_keep_ratio": _ratio(c("dataset.gate_frames", "kept"),
                                          featurized),
        "dataset.write_cache_s": total.get("dataset.write_cache", 0.0),
        "dataset.read_cache_s": total.get("dataset.read_cache", 0.0),
        "dataset.frames_from_cache_s": total.get("dataset.frames_from_cache", 0.0),
        "dataset.make_split_s": total.get("dataset.make_split", 0.0),
        "dataset.normalization_s": (total.get("dataset.fit_normalization", 0.0)
                                    + total.get("dataset.apply_normalization", 0.0)),
        "experiments.extract_calls": extracts,
        "experiments.cache_reuse_ratio": _ratio(requested - extracts, requested),
        "mlp.train_self_s": own.get("mlp.train", 0.0),
        "mlp.adam_step_s": adam_s,
        "mlp.adam_step_calls": c("mlp.adam_step", "calls"),
        "mlp.adam_step_gb_per_s": _ratio(c("mlp.adam_step", "bytes") / 1e9, adam_s),
        "mlp.predict_batch_s": total.get("mlp.predict_batch", 0.0),
        "mlp.predict_frames": c("mlp.predict_batch", "frames"),
        "mlp.load_model_s": total.get("mlp.load_model", 0.0),
        "mlp.save_model_s": total.get("mlp.save_model", 0.0),
        "metrics.confusion_s": total.get("metrics.confusion", 0.0),
        "metrics.export_scatter_s": total.get("metrics.export_scatter", 0.0),
        "metrics.write_report_s": total.get("metrics.write_report", 0.0),
    }
    for layer in LAYERS:
        prefix = layer + "."
        names = [n for n in counts if n.startswith(prefix)]
        out[f"{layer}.self_s"] = sum(own.get(n, 0.0) for n in names)
        out[f"{layer}.calls"] = sum(counts[n].get("calls", 0.0) for n in names)
        out[f"{layer}.errors"] = sum(counts[n].get("errors", 0.0) for n in names)
    return out


def absent_functions(tracer: Tracer) -> list[str]:
    return [name for name in NAMED_FUNCTIONS if name not in tracer.wrapped]
