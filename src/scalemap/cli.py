"""Single command-line front end: master, worker, bench, sweep, netprobe, analyze.

Configuration resolution for shared knobs (scratch directory, memory budget,
log level, ...) follows a fixed precedence: command-line flag beats
environment variable beats config file beats built-in default.  Environment
variables: SCALEMAP_SCRATCH, SCALEMAP_MASTER, SCALEMAP_LOG.

Exit codes: 0 success, 1 runtime failure (one machine-parseable JSON error
line on stderr), 2 usage error.

Only the commands that run or analyse jobs import bench and analysis, and
with them the engine and numpy; master and netprobe start without them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import tempfile
import threading
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .cluster import ClusterConfig, Master, Worker, parse_addr
from .core import BenchmarkParams, Generate, LoadBinary, Vec3, ZERO_DELTA, whole_int
from .errors import ConfigError, ScalemapError
from .job import StorageLevel
from .netprobe import FaultPolicy, ProbeServer, probe_connections, probe_throughput

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

ENV_SCRATCH = "SCALEMAP_SCRATCH"
ENV_MASTER = "SCALEMAP_MASTER"
ENV_LOG = "SCALEMAP_LOG"

# Desk-scale default: 2^12 vectors per size unit keeps every subcommand
# interactive on a laptop; pass --vectors-per-unit to supersize.
DESK_VECTORS_PER_UNIT = 1 << 12

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

log = logging.getLogger("scalemap.cli")


class UsageError(Exception):
    """A request the CLI can reject before doing any work."""


@dataclass(frozen=True)
class GlobalConfig:
    scratch_dir: str
    memory_budget_bytes: int = 1 << 30
    log_level: str = "WARNING"
    vectors_per_unit: int = DESK_VECTORS_PER_UNIT
    seed: int = 42
    master_addr: str | None = None
    network_timeout_ms: int = 120_000


# scratch_dir has no default: resolve_config fills in a tempdir-based one
_CONFIG_DEFAULTS = {f.name: None if f.default is MISSING else f.default
                    for f in fields(GlobalConfig)}

_ENV_FIELDS = {
    "scratch_dir": ENV_SCRATCH,
    "master_addr": ENV_MASTER,
    "log_level": ENV_LOG,
}

_INT_FIELDS = ("memory_budget_bytes", "vectors_per_unit", "seed", "network_timeout_ms")
_STR_FIELDS = ("scratch_dir", "master_addr", "log_level")  # each may also be None


def resolve_config(flags: dict | None = None, config_file: str | None = None,
                   env: dict | None = None) -> GlobalConfig:
    """Merges flag > environment > config file > default, per field."""
    flags = flags or {}
    env = os.environ if env is None else env

    values = dict(_CONFIG_DEFAULTS)
    if config_file is not None:
        try:
            loaded = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config file {config_file}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {config_file} is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_file} must hold a JSON object, "
                              f"got {type(loaded).__name__}")
        unknown = set(loaded) - set(values)
        if unknown:
            raise ConfigError(f"unknown config keys in {config_file}: {sorted(unknown)}")
        values.update(loaded)
    for field_name, var in _ENV_FIELDS.items():
        if env.get(var):
            values[field_name] = env[var]
    for field_name, v in flags.items():
        if v is not None:
            if field_name not in values:
                raise ConfigError(f"unknown config field {field_name!r}")
            values[field_name] = v

    for field_name in _STR_FIELDS:
        if not isinstance(values[field_name], (str, type(None))):
            raise ConfigError(f"{field_name} must be a string, got {values[field_name]!r}")
    if values["scratch_dir"] is None:
        values["scratch_dir"] = str(Path(tempfile.gettempdir()) / "scalemap")
    for field_name in _INT_FIELDS:
        values[field_name] = whole_int(values[field_name], field_name, ConfigError)
    values["log_level"] = str(values["log_level"]).upper()
    if values["log_level"] not in _LOG_LEVELS:
        raise ConfigError(f"log_level must be one of {_LOG_LEVELS}, got {values['log_level']!r}")
    return GlobalConfig(**values)


def _delta_arg(text: str) -> Vec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--delta wants dx,dy,dz, got {text!r}")
    try:
        return Vec3(*(float(p) for p in parts))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"--delta components must be numbers: {e}") from e


def _nodes_arg(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"--node-counts wants a comma list of ints: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalemap",
        description="Partitioned-dataset dataflow engine and scaling benchmark harness.")
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--scratch", metavar="DIR", help="scratch directory for spills")
    parser.add_argument("--memory-budget", type=int, metavar="BYTES",
                        help="per-process cache budget")
    parser.add_argument("--log-level", choices=[*_LOG_LEVELS, *map(str.lower, _LOG_LEVELS)],
                        help="logging verbosity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("master", help="run the cluster master")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--workers", type=int, required=True,
                   help="worker registrations to wait for before accepting jobs")
    p.add_argument("--host", default="0.0.0.0")

    p = sub.add_parser("worker", help="run one worker process")
    p.add_argument("--master", metavar="HOST:PORT",
                   help=f"master address (default: ${ENV_MASTER})")
    p.add_argument("--slots", type=int, default=1, help="concurrent runs of tasks")
    p.add_argument("--name", default="", help="worker label in master logs")

    p = sub.add_parser("bench", help="run the generate/shift/average pipeline once")
    _add_pipeline_args(p)
    p.add_argument("--json", metavar="FILE", required=True, dest="json_path",
                   help="write the run record here (JSON, one line)")

    p = sub.add_parser("sweep", help="run a strong or weak scaling sweep")
    _add_pipeline_args(p, sweep=True)
    p.add_argument("--mode", choices=["strong", "weak"], required=True)
    p.add_argument("--node-counts", type=_nodes_arg, metavar="N1,N2,...", required=True,
                   help="ascending node counts, e.g. 1,2,4")
    p.add_argument("--reps", type=int, default=3, help="repetitions per point")
    p.add_argument("--json", metavar="FILE", required=True, dest="json_path",
                   help="write run records here (JSON lines)")

    p = sub.add_parser("netprobe", help="network overhead probes")
    probe_sub = p.add_subparsers(dest="probe_command", required=True)

    ps = probe_sub.add_parser("serve", help="run the echo/sink probe server")
    ps.add_argument("--port", type=int, default=0)
    ps.add_argument("--reject-every", type=int, default=0,
                    help="close every Nth accepted connection")
    ps.add_argument("--delay-ms", type=float, default=0.0,
                    help="impose this delay before each ping echo")
    ps.add_argument("--host", default="127.0.0.1")

    pc = probe_sub.add_parser("connections", help="connection storm probe")
    pc.add_argument("--server", metavar="HOST:PORT", required=True)
    pc.add_argument("--k", type=int, required=True, help="connections to open")
    pc.add_argument("--concurrency", type=int, default=64,
                    help="sockets in flight at once; one thread drives them all")
    pc.add_argument("--json", metavar="FILE", required=True, dest="json_path")

    pt = probe_sub.add_parser("throughput", help="point-to-point throughput probe")
    pt.add_argument("--server", metavar="HOST:PORT", required=True)
    pt.add_argument("--seconds", type=float, default=1.0)
    pt.add_argument("--payload-bytes", type=int, default=1 << 16)
    pt.add_argument("--json", metavar="FILE", required=True, dest="json_path")

    p = sub.add_parser("analyze", help="turn run records into plot-ready CSV")
    p.add_argument("--input", metavar="FILE", required=True, help="JSON-lines run records")
    p.add_argument("--mode", choices=["strong", "weak"], required=True)
    p.add_argument("--stage", choices=["create", "map", "reduce", "total"], required=True)
    p.add_argument("--units", choices=["nodes", "cores"], required=True)
    p.add_argument("--csv", metavar="FILE", required=True)
    p.add_argument("--log", action="store_true", help="add log2 columns")

    return parser


def _add_pipeline_args(p: argparse.ArgumentParser, sweep: bool = False):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generate", action="store_true",
                     help="synthesize vectors from the seed")
    src.add_argument("--load", metavar="DIR", help="read blocks from binary files")
    p.add_argument("--record-bytes", type=int, choices=[12, 24], default=24,
                   help="record width of --load files")
    p.add_argument("--blocks", type=int, required=True,
                   help="total blocks" + (" (per node in weak mode)" if sweep else ""))
    p.add_argument("--block_size", type=int, default=1,
                   help="block size in units of --vectors-per-unit")
    if not sweep:
        p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--cores", type=int, default=1, help="cores per node")
    p.add_argument("--nparts", type=int, default=1, help="partitions per core")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=_delta_arg, default=ZERO_DELTA, metavar="DX,DY,DZ",
                   help="shift applied in the map stage")
    p.add_argument("--skip-reduce", action="store_true",
                   help="stop after the map stage")
    p.add_argument("--vectors-per-unit", type=int, default=None,
                   help=f"size unit (default {DESK_VECTORS_PER_UNIT})")
    p.add_argument("--storage", choices=[lv.value for lv in StorageLevel],
                   default=StorageLevel.MEMORY_ONLY.value,
                   help="persistence level for created/mapped data")
    p.add_argument("--master", metavar="HOST:PORT", default=None,
                   help="run on a cluster instead of in-process")


def _install_stop_handler(stop_fn):
    if threading.current_thread() is not threading.main_thread():
        return
    def handler(signum, frame):
        log.info("signal %d: shutting down", signum)
        stop_fn()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, handler)


def _emit(obj: dict):
    print(json.dumps(obj), flush=True)


def _params_from_args(args, cfg: GlobalConfig, nodes: int) -> BenchmarkParams:
    if args.generate:
        source = Generate()
    else:
        source = LoadBinary(args.load, record_bytes=args.record_bytes)
    vpu = args.vectors_per_unit if args.vectors_per_unit is not None else cfg.vectors_per_unit
    seed = args.seed if args.seed is not None else cfg.seed
    return BenchmarkParams(
        blocks=args.blocks, block_size_units=args.block_size, vectors_per_unit=vpu,
        nodes=nodes, cores=args.cores, nparts=args.nparts, seed=seed,
        source=source, shift_delta=args.delta)


def _run_kwargs(args, cfg: GlobalConfig) -> dict:
    from .bench import MODE_CLUSTER, MODE_LOCAL

    if args.master:
        return {"mode": MODE_CLUSTER, "master_addr": parse_addr(args.master),
                "storage": StorageLevel(args.storage), "skip_reduce": args.skip_reduce}
    return {"mode": MODE_LOCAL, "memory_budget": cfg.memory_budget_bytes,
            "scratch": cfg.scratch_dir, "storage": StorageLevel(args.storage),
            "skip_reduce": args.skip_reduce}


def cmd_master(args, cfg: GlobalConfig) -> int:
    ccfg = ClusterConfig(host=args.host, port=args.port, expected_workers=args.workers,
                         network_timeout_ms=cfg.network_timeout_ms)
    master = Master(ccfg).start()
    _install_stop_handler(master.shutdown)
    _emit({"role": "master", "port": master.port, "workers_expected": args.workers})
    master.wait_stopped()
    return EXIT_OK


def cmd_worker(args, cfg: GlobalConfig) -> int:
    if not 1 <= args.slots <= 65535:  # REGISTER carries slots as a u16
        raise UsageError(f"--slots must be in 1..65535, got {args.slots}")
    addr_text = args.master or cfg.master_addr
    if not addr_text:
        raise UsageError(f"worker needs --master or ${ENV_MASTER}")
    host, port = parse_addr(addr_text)
    ccfg = ClusterConfig(host=host, port=port, slots=args.slots,
                         network_timeout_ms=cfg.network_timeout_ms,
                         registration_retries=10)
    worker = Worker(ccfg, scratch_dir=cfg.scratch_dir,
                    memory_budget_bytes=cfg.memory_budget_bytes, name=args.name)
    _install_stop_handler(worker.stop)
    worker.run()
    return EXIT_OK


def cmd_bench(args, cfg: GlobalConfig) -> int:
    from .bench import run_pipeline

    params = _params_from_args(args, cfg, nodes=args.nodes)
    rec = run_pipeline(params, **_run_kwargs(args, cfg))
    Path(args.json_path).write_text(json.dumps(rec.to_json_dict()) + "\n",
                                    encoding="utf-8")
    _emit({"json": str(args.json_path),
           "result": list(rec.result.as_tuple()) if rec.result else None,
           "total_s": rec.timings.total_s})
    return EXIT_OK


def cmd_sweep(args, cfg: GlobalConfig) -> int:
    from .bench import ScalingMode, run_sweep, write_records_jsonl

    # run_sweep owns the nodes axis; the base carries everything else
    base = _params_from_args(args, cfg, nodes=1)
    records = run_sweep(base, args.node_counts, ScalingMode(args.mode),
                        reps=args.reps, **_run_kwargs(args, cfg))
    write_records_jsonl(records, args.json_path)
    _emit({"json": str(args.json_path), "records": len(records),
           "mode": args.mode, "node_counts": args.node_counts})
    return EXIT_OK


def cmd_netprobe(args, cfg: GlobalConfig) -> int:
    if args.probe_command == "serve":
        policy = FaultPolicy(reject_every=args.reject_every, delay_ms=args.delay_ms)
        server = ProbeServer(port=args.port, fault_policy=policy, host=args.host).start()
        _install_stop_handler(server.stop)
        _emit({"role": "probe-server", "port": server.port,
               "reject_every": args.reject_every, "delay_ms": args.delay_ms})
        server.wait_stopped()
        return EXIT_OK
    addr = parse_addr(args.server)
    if args.probe_command == "connections":
        report = probe_connections(addr, k=args.k, concurrency=args.concurrency)
    else:
        report = probe_throughput(addr, payload_bytes=args.payload_bytes,
                                  duration_s=args.seconds)
    Path(args.json_path).write_text(json.dumps(report.to_json_dict()) + "\n",
                                    encoding="utf-8")
    summary = {k: v for k, v in report.to_json_dict().items()
               if k != "response_times_ms"}
    _emit({"json": str(args.json_path), **summary})
    return EXIT_OK


def cmd_analyze(args, cfg: GlobalConfig) -> int:
    from .analysis import build_series, emit_plot_data
    from .bench import ScalingMode, read_records_jsonl

    records = read_records_jsonl(args.input)
    series = build_series(records, ScalingMode(args.mode), stage=args.stage,
                          units=args.units)
    text = emit_plot_data(series, scale="log" if args.log else "linear")
    Path(args.csv).write_text(text, encoding="utf-8")
    _emit({"csv": str(args.csv), "points": len(series.points),
           "base_units": series.base_units,
           "speedups": [p.speedup for p in series.points]})
    return EXIT_OK


_COMMANDS = {
    "master": cmd_master,
    "worker": cmd_worker,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "netprobe": cmd_netprobe,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = resolve_config(
            flags={"scratch_dir": args.scratch,
                   "memory_budget_bytes": args.memory_budget,
                   "log_level": args.log_level},
            config_file=args.config)
        logging.basicConfig(level=getattr(logging, cfg.log_level),
                            format="%(asctime)s %(name)s %(levelname)s %(message)s")
        return _COMMANDS[args.command](args, cfg)
    except UsageError as e:
        print(json.dumps({"error": "UsageError", "message": str(e)}), file=sys.stderr)
        return EXIT_USAGE
    except (ScalemapError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
