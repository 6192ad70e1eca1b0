"""scalemap: a mini distributed-dataflow engine and scaling micro-benchmark.

Lazy partitioned vector datasets with lineage-based recomputation and
budgeted persistence, a standalone master/worker cluster over a compact TCP
protocol, a generate/shift/average benchmark pipeline with per-stage timing,
network overhead probes, and strong/weak scaling analysis.

Each export below is imported from its module on first use, so importing
the package, or a module such as cluster or netprobe, loads only what it
needs: a master or a probe server never loads the engine or numpy.
"""

import importlib

__version__ = "0.1.0"

# each export, by the module that defines it
_EXPORTS = {
    "build_series": "analysis",
    "emit_plot_data": "analysis",
    "speedup": "analysis",
    "strong_efficiency": "analysis",
    "RunRecord": "bench",
    "ScalingMode": "bench",
    "run_pipeline": "bench",
    "run_sweep": "bench",
    "BenchmarkParams": "core",
    "Generate": "core",
    "LoadBinary": "core",
    "Vec3": "core",
    "Engine": "engine",
    "ConfigError": "errors",
    "ScalemapError": "errors",
    "StorageLevel": "job",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
