"""Per-layer metrics of qre: what is traced and how spans become metrics.

The layers are the modules of ``qre``; the ``numpy`` pseudo-layer holds the
three spectral decompositions, counted by a shim on ``numpy.linalg``.  Time
metrics are milliseconds per completed trial and counts are calls per
completed trial, unless the name says otherwise.
"""

from __future__ import annotations

import importlib
import sys

from tracing import END, NAME, START, Tracer, layer_self_times, outermost_totals, top_level_seconds
from workloads import FAMILIES

LAYERS = ("linalg", "functions", "entropy", "recovery", "bounds", "campaign", "reports")
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")

_PARTIAL_TRACE = {"linalg.partial_trace", "linalg.FactorizedSpace.partial_trace"}
_EMBED = {"linalg.FactorizedSpace.embed"}

# group -> span names; a span counts for a group only when outermost in it
GROUPS = {
    "eigh": {"numpy.eigh"},
    "eigvalsh": {"numpy.eigvalsh"},
    "svd": {"numpy.svd"},
    "decomp": {f"numpy.{d}" for d in DECOMPOSITIONS},
    "psd_wraps": {"linalg.PsdOperator.__init__", "linalg.DensityMatrix.__init__"},
    "power": {"linalg.PsdOperator.power", "linalg.matrix_power",
              "linalg.matrix_function", "bounds.psd_power"},
    "partial_trace": _PARTIAL_TRACE,
    "embed": _EMBED,
    "tensor": _PARTIAL_TRACE | _EMBED | {"linalg.tensor"},
    "sample": {"linalg.random_density", "linalg.random_unitary",
               "linalg.random_contraction", "linalg.random_hermitian"},
    "window": {"functions.regularity_constant"},
    "spectral": {"entropy.quasi_relative_entropy"},
    "modular": {"entropy.apply_f_modular"},
    "effective_eigs": {"entropy.effective_eigs"},
    "residual": {"recovery.monotonicity_residual", "recovery.petz_recover",
                 "recovery.ssa_residual_P", "recovery.ssa_residual_Q",
                 "recovery.equality_condition_residual"},
    "t_search": {"bounds.thm42_terms"},
    "optimize": {"bounds.optimize_T_scalar"},
    "to_json": {"reports.BoundReport.to_json"},
    "digest": {"reports.digest_inputs"},
}

# metric name -> (group, "calls" or "ms"), both per completed trial
PER_TRIAL = {
    "linalg.eigh_calls": ("eigh", "calls"),
    "linalg.eigvalsh_calls": ("eigvalsh", "calls"),
    "linalg.svd_calls": ("svd", "calls"),
    "linalg.decomp_ms": ("decomp", "ms"),
    "linalg.psd_wraps": ("psd_wraps", "calls"),
    "linalg.power_calls": ("power", "calls"),
    "linalg.partial_trace_calls": ("partial_trace", "calls"),
    "linalg.embed_calls": ("embed", "calls"),
    "linalg.tensor_ms": ("tensor", "ms"),
    "linalg.sample_ms": ("sample", "ms"),
    "functions.window_calls": ("window", "calls"),
    "entropy.spectral_calls": ("spectral", "calls"),
    "entropy.modular_calls": ("modular", "calls"),
    "entropy.effective_eigs_ms": ("effective_eigs", "ms"),
    "recovery.residual_calls": ("residual", "calls"),
    "bounds.t_search_evals": ("t_search", "calls"),
    "bounds.optimize_calls": ("optimize", "calls"),
    "reports.to_json_ms": ("to_json", "ms"),
    "reports.digest_ms": ("digest", "ms"),
}

# unit of every per-layer metric the traced run reports
UNITS = {metric: f"{kind}/trial" for metric, (_, kind) in PER_TRIAL.items()}
UNITS.update({f"{layer}.self_ms": "ms/trial" for layer in LAYERS})
UNITS.update({f"campaign.{family}.ms_per_trial": "ms/trial" for family in FAMILIES})
UNITS.update({
    "campaign.trial_ms_p50": "ms",
    "campaign.trial_ms_p99": "ms",
    "campaign.divergent_share": "share",
    "reports.bytes": "bytes/trial",
    "trace.coverage": "share",
    "trace.overhead": "ratio",
})


def install(tracer: Tracer) -> None:
    """Trace every layer's public callables and numpy's decompositions."""
    import numpy

    modules = [importlib.import_module(f"qre.{layer}") for layer in LAYERS]
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "qre" or name.startswith("qre."))]
    for layer, module in zip(LAYERS, modules):
        tracer.wrap_module(module, layer, namespaces)
    for attr in DECOMPOSITIONS:
        tracer.wrap_attr(numpy.linalg, attr, f"numpy.{attr}")


def span_metrics(spans, completed: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload."""
    per = 1.0 / completed
    groups = outermost_totals(spans, GROUPS)
    out = {}
    for metric, (group, kind) in PER_TRIAL.items():
        calls, seconds = groups[group]
        out[metric] = calls * per if kind == "calls" else seconds * 1e3 * per
    self_s = layer_self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3 * per
    out["trace.coverage"] = top_level_seconds(spans) / wall_s
    return out


def run_single_ms(spans) -> list[float]:
    return [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "campaign.run_single"]

