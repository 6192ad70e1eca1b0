"""scalemap: a mini distributed-dataflow engine and scaling micro-benchmark.

Lazy partitioned vector datasets with lineage-based recomputation and
budgeted persistence, a standalone master/worker cluster over a compact TCP
protocol, a generate/shift/average benchmark pipeline with per-stage timing,
network overhead probes, and strong/weak scaling analysis.
"""

from .analysis import build_series, emit_plot_data, speedup, strong_efficiency
from .bench import RunRecord, ScalingMode, run_pipeline, run_sweep
from .core import BenchmarkParams, Generate, LoadBinary, Vec3
from .engine import Engine, StorageLevel
from .errors import ConfigError, ScalemapError

__version__ = "0.1.0"

__all__ = [
    "BenchmarkParams",
    "ConfigError",
    "Engine",
    "Generate",
    "LoadBinary",
    "RunRecord",
    "ScalemapError",
    "ScalingMode",
    "StorageLevel",
    "Vec3",
    "build_series",
    "emit_plot_data",
    "run_pipeline",
    "run_sweep",
    "speedup",
    "strong_efficiency",
    "__version__",
]
