"""Scenario files, synthetic rate traces, and the named figure recipes.

A scenario file is a YAML document describing one cooperative download;
a recipe is a hardcoded parameter sweep that regenerates one evaluation
figure at desk scale.  Both expand to (SimConfig, ProtocolConfig) pairs
and everything downstream is plain CSV.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import num, rlnc
from .netsim import (MODE_CLIQUE, MODE_PSEUDO_ADHOC, MODE_STAR,
                     DeviceSpec, RateTrace, SimConfig)
from .protocols import (ASSIGN_ADAPTIVE, ASSIGN_STATIC, MAX_SEGMENTS,
                        PROTO_BITTORRENT, PROTO_MICROCAST, PROTO_NONE, PROTO_R2,
                        ProtocolConfig, run_protocol)


class ScenarioError(ValueError):
    """Configuration the harness refuses to run; the message names the key."""


# ---------------------------------------------------------------- scenario files

def _is_number(value) -> bool:
    # bool is an int; NaN fails the bound, which keeps Mbps finite in bit/s
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= 1e300)


def _is_loss(value) -> bool:
    return _is_number(value) or isinstance(value, list) and all(
        isinstance(row, list) and len(row) == len(value) and all(map(_is_number, row))
        for row in value)


# A key's kind: what its error message says the value must be, and the test.
_NUMBER = ("a finite number, at most 1e300 in size", _is_number)
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_FLAG = ("true or false", lambda v: isinstance(v, bool))
_STRING = ("a string", lambda v: isinstance(v, str))
_LOSS = ("a number or a square list of lists of numbers", _is_loss)
_NESTED = ("never refused here", lambda v: True)   # build_configs reads it

# One table per mapping, key -> (kind, lower bound, default); an absent
# key and a null one both take the default.
_SCENARIO_TABLE = {
    "devices": (_NESTED, None, None),
    "local": (_NESTED, None, None),
    "segment_params": (_NESTED, None, None),
    "mode": (_STRING, None, MODE_PSEUDO_ADHOC),
    "ap": (_INTEGER, None, None),
    "protocol": (_STRING, None, PROTO_MICROCAST),
    "assignment": (_STRING, None, ASSIGN_ADAPTIVE),
    "initiator": (_INTEGER, 0, 0),
    "file_mb": (_NUMBER, 1e-6, 9.93),
    "seed": (_INTEGER, 0, 0),
    "video_kbps": (_NUMBER, 0.0, 500.0),
    "idle_window_s": (_NUMBER, 1e-9, 30.0),
    "max_time_s": (_NUMBER, 1e-9, 3600.0),
    "log_events": (_FLAG, None, False),
}
_DEVICE_TABLE = {
    "cellular_kbps": (_NUMBER, 0.0, None),
    "trace_file": (_STRING, None, None),
    "cell_fail_prob": (_NUMBER, None, 0.0),
    "cell_timeout_s": (_NUMBER, None, None),
}
_LOCAL_TABLE = {
    "capacity_mbps": (_NUMBER, 0.0, 20.0),
    "background_mbps": (_NUMBER, 0.0, 0.0),
    "loss_uniform": (_LOSS, None, None),
    "loss_matrix": (_LOSS, None, None),
}
_SEGMENT_TABLE = {"m": (_INTEGER, 1, 25), "n": (_INTEGER, 1, 900)}


def _read(mapping, table: dict, where: str) -> dict:
    """Check `mapping` against `table`; return every key's value or default."""
    mapping = {} if mapping is None else mapping
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in table:
            raise ScenarioError(
                f"{where}: unknown key {key!r} (allowed: {', '.join(sorted(table))})")
    out = {}
    for key, ((must_be, ok), lo, default) in table.items():
        value = mapping.get(key)
        if value is None:
            value = default
        elif not ok(value):
            raise ScenarioError(f"{where}: {key} must be {must_be}")
        elif lo is not None and value < lo:
            raise ScenarioError(f"{where}: {key} must be >= {lo}")
        elif ok is _is_number:
            value = float(value)
        out[key] = value
    return out


def load_rate_trace(path: str) -> RateTrace:
    """Read a piecewise-constant cellular trace from CSV `t_seconds,kbps`."""
    # ValueError: a NUL in the path or bytes not UTF-8; csv.Error: an overlong field
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:
        raise ScenarioError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    points = []
    for lineno, row in enumerate(rows, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        head = [c.strip().lower() for c in row[:2]]
        if head == ["t_seconds", "kbps"]:
            continue
        try:
            points.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            raise ScenarioError(
                f"{path}:{lineno}: expected 't_seconds,kbps', got {','.join(row)!r}"
            ) from None
    if not points:
        raise ScenarioError(f"{path}: empty rate trace")
    try:
        return RateTrace.from_kbps_points(points)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def load_scenario(path: str):
    """Parse a YAML scenario file into (SimConfig, ProtocolConfig)."""
    import yaml   # only scenario files need PyYAML; recipes build configs directly

    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: not UTF-8, no such date
        raise ScenarioError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    return build_configs(doc, base_dir=os.path.dirname(path) or ".")


def build_configs(doc: dict, base_dir: str = ".", seed: int | None = None):
    """Expand a scenario mapping; `seed` overrides the file's own seed."""
    top = _read(doc, _SCENARIO_TABLE, "scenario")
    if not isinstance(top["devices"], list) or not top["devices"]:
        raise ScenarioError("scenario: 'devices' must be a nonempty list")

    devices = []
    for k, dev in enumerate(top["devices"]):
        where = f"devices[{k}]"
        dev = _read(dev, _DEVICE_TABLE, where)
        kbps, trace_file = dev["cellular_kbps"], dev["trace_file"]
        if kbps is not None and trace_file is not None:
            raise ScenarioError(f"{where}: give cellular_kbps or trace_file, not both")
        trace = None if kbps is None else RateTrace.constant(kbps * 1e3)
        if trace_file is not None:
            trace = load_rate_trace(os.path.join(base_dir, trace_file))
        try:
            devices.append(DeviceSpec(trace, dev["cell_fail_prob"],
                                      dev["cell_timeout_s"]))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    local = _read(top["local"], _LOCAL_TABLE, "local")
    losses = [x for x in (local["loss_uniform"], local["loss_matrix"]) if x is not None]
    if len(losses) > 1:
        raise ScenarioError("local: give loss_uniform or loss_matrix, not both")
    seg = _read(top["segment_params"], _SEGMENT_TABLE, "segment_params")
    file_bytes = int(round(top["file_mb"] * 1e6))
    most = MAX_SEGMENTS * seg["m"] * seg["n"]
    if file_bytes > most:
        raise ScenarioError(
            f"scenario: file_mb must be at most {most / 1e6:.10g} at m={seg['m']}, "
            f"n={seg['n']}: segment ids number at most {MAX_SEGMENTS}")
    try:
        sim_cfg = SimConfig(
            devices=devices, capacity_bps=local["capacity_mbps"] * 1e6,
            background_bps=local["background_mbps"] * 1e6,
            loss=losses[0] if losses else 0.0, mode=top["mode"], ap=top["ap"],
            seed=top["seed"] if seed is None else seed,
            idle_window_s=top["idle_window_s"], max_time_s=top["max_time_s"],
            log_events=top["log_events"])
        proto_cfg = ProtocolConfig(
            protocol=top["protocol"], file_bytes=file_bytes,
            m=seg["m"], n=seg["n"], video_kbps=top["video_kbps"],
            assignment=top["assignment"], initiator=top["initiator"])
    except ValueError as exc:
        raise ScenarioError(f"scenario: {exc}") from None
    return sim_cfg, proto_cfg


# ---------------------------------------------------------------- CSV plumbing

def fmt_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path: str, comments: Sequence[str], columns: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])


def read_csv(path: str):
    """Return (comments, columns, rows) with rows as str->str dicts.

    A row whose field count differs from the header's is a ScenarioError
    naming the file and the line.
    """
    comments, columns, rows = [], None, []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if row[0].startswith("#"):
                comments.append(",".join(row).lstrip("# "))
                continue
            if columns is None:
                columns = row
                continue
            if len(row) != len(columns):
                raise ScenarioError(f"{path}, line {reader.line_num}: {len(row)} "
                                    f"fields where the header has {len(columns)}")
            rows.append(dict(zip(columns, row)))
    return comments, columns or [], rows


def aggregate(rows: Sequence[Sequence], columns: Sequence[str],
              group_cols: Sequence[str], value_cols: Sequence[str]):
    """Mean/std of the value columns per sweep point; pure in the raw rows."""
    idx = {c: k for k, c in enumerate(columns)}
    groups: dict = {}
    for row in rows:
        key = tuple(row[idx[c]] for c in group_cols)
        groups.setdefault(key, []).append(row)
    agg_columns = list(group_cols)
    for v in value_cols:
        agg_columns += [f"{v}_mean", f"{v}_std"]
    agg_columns.append("runs")
    agg_rows = []
    for key in sorted(groups):
        bucket = groups[key]
        out = list(key)
        for v in value_cols:
            vals = np.array([row[idx[v]] for row in bucket], dtype=float)
            out += [float(vals.mean()), float(vals.std())]
        out.append(len(bucket))
        agg_rows.append(out)
    return agg_columns, agg_rows


# ---------------------------------------------------------------- recipes

@dataclass(frozen=True)
class RecipeOutput:
    name: str
    comments: list
    columns: list
    rows: list
    agg_columns: list
    agg_rows: list


def recipe_output(name: str, comments, columns, rows, group_cols,
                  value_cols) -> RecipeOutput:
    """Raw rows plus their mean/std aggregate per sweep point."""
    agg_cols, agg_rows = aggregate(rows, columns, group_cols, value_cols)
    return RecipeOutput(name, comments, columns, rows, agg_cols, agg_rows)


@dataclass(frozen=True)
class Recipe:
    name: str
    kind: str                     # num | proto | bench
    default_seeds: int
    run: Callable                 # (seeds: Sequence[int]) -> RecipeOutput


NUM_COLUMNS = ["policy", "n_devices", "p_local", "seed", "avg_rate", "std_rate"]


def num_sweep(name: str, header: str, n_values, p_values, seeds,
              iterations: int = 1000, *, local_capacity: float,
              cell_capacity: float = 1.0, gamma: float = 1.0,
              policies=num.POLICIES) -> RecipeOutput:
    """One solver sweep as NUM_COLUMNS rows: every group size x local loss
    x policy, one row per seed."""
    seeds = tuple(seeds)
    rows = []
    for n_dev in n_values:
        for p in p_values:
            topo = num.Topology.uniform(
                n_dev, cell_capacity=cell_capacity, cell_loss=0.0,
                local_capacity=local_capacity, local_loss=p, gamma=gamma)
            for policy in policies:
                cfg = num.SolverConfig(policy=policy, iterations=iterations,
                                       seeds=seeds)
                for run in num.simulate(topo, cfg).runs:
                    rows.append([policy, n_dev, float(p), run.seed,
                                 run.avg, run.spread])
    comments = [
        header,
        f"sweep: n_devices={list(n_values)} p_local={list(p_values)}"
        f" policies={','.join(policies)}",
        f"topology: cell_capacity={cell_capacity:g} cell_loss=0"
        f" local_capacity={local_capacity:g} gamma={gamma:g}",
        f"solver: iterations={iterations} step_size={num.STEP_SIZE:g}",
        f"seeds: {list(seeds)}",
    ]
    return recipe_output(name, comments, NUM_COLUMNS, rows,
                         ["policy", "n_devices", "p_local"], ["avg_rate"])


def _protocol_rows(runs, seeds, row) -> list:
    """Run each (key, SimConfig, ProtocolConfig) of `runs` under each seed,
    runs outermost and only the seed changed; a row is the key's fields,
    the seed, then row(result)."""
    return [[*key, seed, *row(run_protocol(replace(sim_cfg, seed=seed), proto))]
            for key, sim_cfg, proto in runs for seed in seeds]


def microdownload_traces():
    """Three cellular links: fast but wavy, steady, choked then recovering."""
    fast = RateTrace.from_kbps_points(
        [(10.0 * k, 800.0 if k % 2 == 0 else 1000.0) for k in range(12)])
    steady = RateTrace.constant(500e3)
    choked = RateTrace.from_kbps_points([(0.0, 5.0), (75.0, 500.0)])
    return fast, steady, choked


MICRODOWNLOAD_COLUMNS = ["assignment", "seed", "completion_s", "failures", "complete"]


def _microdownload_recipe(seeds) -> RecipeOutput:
    runs = []
    for assignment in (ASSIGN_ADAPTIVE, ASSIGN_STATIC):
        # the static split has no failure path, so a download timeout would
        # strand the choked device's share; only the adaptive runs use one
        timeout = 3.0 if assignment == ASSIGN_ADAPTIVE else None
        devices = [DeviceSpec(cellular=t, cell_timeout=timeout)
                   for t in microdownload_traces()]
        runs.append(((assignment,),
                     SimConfig(devices=devices, capacity_bps=20e6, loss=0.0,
                               mode=MODE_PSEUDO_ADHOC, max_time_s=600.0),
                     ProtocolConfig(PROTO_MICROCAST, file_bytes=750_000,
                                    m=25, n=900, assignment=assignment)))
    rows = _protocol_rows(runs, seeds, lambda res: [
        res.metrics.duration_s, res.scheduler.failures, int(res.metrics.complete)])
    comments = [
        "recipe: fig-microdownload",
        "traces_kbps: fast=800/1000 alternating every 10s, steady=500,"
        " choked=5 until t=75s then 500",
        "file_mb: 0.75  segment_params: m=25 n=900  protocol: microcast",
        "adaptive download timeout: 3s; static: none",
        f"seeds: {list(seeds)}",
    ]
    return recipe_output("fig-microdownload", comments, MICRODOWNLOAD_COLUMNS,
                         rows, ["assignment"], ["completion_s"])


FIG6B_COLUMNS = ["protocol", "topology", "seed", "local_bytes", "data_bytes",
                 "control_bytes", "traffic_ratio", "completion_s", "complete"]


def _fig6b_recipe(seeds) -> RecipeOutput:
    file_bytes = 9_930_000
    devices = [DeviceSpec(cellular=RateTrace.constant(550e3)),
               DeviceSpec(), DeviceSpec(), DeviceSpec()]
    runs = [((protocol, mode),
             SimConfig(devices=devices, capacity_bps=20e6, loss=0.01, mode=mode,
                       max_time_s=900.0),
             ProtocolConfig(protocol, file_bytes=file_bytes, m=25, n=900,
                            initiator=0))
            for protocol, mode in ((PROTO_MICROCAST, MODE_PSEUDO_ADHOC),
                                   (PROTO_BITTORRENT, MODE_PSEUDO_ADHOC),
                                   (PROTO_R2, MODE_STAR), (PROTO_R2, MODE_CLIQUE))]

    def row(res):
        met = res.metrics
        return [met.local_bytes, met.local_data_bytes, met.local_control_bytes,
                met.local_bytes / file_bytes, met.duration_s, int(met.complete)]

    rows = _protocol_rows(runs, seeds, row)
    comments = [
        "recipe: fig6b",
        "devices: 4, one cellular downloader at 550 kbps (device 0)",
        "file_mb: 9.93  segment_params: m=25 n=900  p_local: 0.01",
        "runs: microcast/pseudo_adhoc, bittorrent_pull/pseudo_adhoc,"
        " r2_push/star (ap=downloader), r2_push/clique",
        f"seeds: {list(seeds)}",
    ]
    return recipe_output("fig6b", comments, FIG6B_COLUMNS, rows,
                         ["protocol", "topology"],
                         ["traffic_ratio", "completion_s"])


CONGESTED_COLUMNS = ["protocol", "n_devices", "seed", "avg_rate_bps",
                     "completion_s", "complete"]
CONGESTED_KBPS = (480.0, 550.0, 600.0, 670.0)


def _congested_recipe(seeds) -> RecipeOutput:
    runs = []
    for protocol in (PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_NONE):
        for k in range(1, 8):
            n_cell = min(k, 4)
            devices = [
                DeviceSpec(cellular=RateTrace.constant(CONGESTED_KBPS[d] * 1e3))
                if d < n_cell else DeviceSpec()
                for d in range(k)]
            runs.append(((protocol, k),
                         SimConfig(devices=devices, capacity_bps=20e6,
                                   background_bps=16e6, loss=0.0,
                                   mode=MODE_PSEUDO_ADHOC, max_time_s=900.0),
                         ProtocolConfig(protocol, file_bytes=2_000_000,
                                        m=25, n=900, initiator=0)))
    rows = _protocol_rows(runs, seeds, lambda res: [
        res.metrics.avg_rate_bps, res.metrics.duration_s, int(res.metrics.complete)])
    comments = [
        "recipe: fig-congested",
        f"devices: up to 7, cellular on the first min(k,4) at"
        f" {'/'.join(f'{int(r)}' for r in CONGESTED_KBPS)} kbps",
        "local medium: 20 Mbps capacity minus 16 Mbps background load",
        "file_mb: 2.0  segment_params: m=25 n=900  p_local: 0",
        "protocols: microcast, bittorrent_pull, none (standalone baseline)",
        f"seeds: {list(seeds)}",
    ]
    return recipe_output("fig-congested", comments, CONGESTED_COLUMNS, rows,
                         ["protocol", "n_devices"], ["avg_rate_bps"])


# per m: the median slice rates, their quartiles, then the median per-round
# ratio to the next larger m's rate (blank on the largest m)
BENCH_COLUMNS = ["m", "encode_mbps", "decode_mbps", "encode_q1_mbps", "encode_q3_mbps",
                 "decode_q1_mbps", "decode_q3_mbps", "encode_ratio_next",
                 "decode_ratio_next"]


def codec_bench(name: str, header: str, m_values, n: int, seconds: float,
                seed: int) -> RecipeOutput:
    """One `rlnc.bench` run as BENCH_COLUMNS rows."""
    m_values = list(m_values)
    rows = [[r.get(c, "") for c in BENCH_COLUMNS]
            for r in rlnc.bench(m_values, n, seconds=seconds, seed=seed)]
    comments = [
        header,
        f"codec bench: m in {m_values}, n={n}, {seconds:g}s per phase",
        "throughputs are wall-clock measurements, not deterministic",
        f"seed: {seed}",
    ]
    return recipe_output(name, comments, BENCH_COLUMNS, rows, ["m"],
                         ["encode_mbps", "decode_mbps"])


def _bench_recipe(seeds) -> RecipeOutput:
    return codec_bench("fig7b", "recipe: fig7b", (16, 25, 32, 64), 900, 0.3,
                       seeds[0])


RECIPES = {r.name: r for r in [
    Recipe("fig4a", "num", 10, lambda seeds: num_sweep(
        "fig4a", "recipe: fig4a", range(1, 9), [0.0], seeds, local_capacity=10.0)),
    Recipe("fig4b", "num", 10, lambda seeds: num_sweep(
        "fig4b", "recipe: fig4b", range(1, 9), [0.2], seeds, local_capacity=10.0)),
    Recipe("fig5a", "num", 10, lambda seeds: num_sweep(
        "fig5a", "recipe: fig5a", [3], [0.0, 0.1, 0.2, 0.3], seeds, local_capacity=1.0)),
    Recipe("fig5b", "num", 10, lambda seeds: num_sweep(
        "fig5b", "recipe: fig5b", [4], [0.0, 0.1, 0.2, 0.3], seeds, local_capacity=1.0)),
    Recipe("fig6b", "proto", 2, _fig6b_recipe),
    Recipe("fig-microdownload", "proto", 3, _microdownload_recipe),
    Recipe("fig-congested", "proto", 2, _congested_recipe),
    Recipe("fig7b", "bench", 1, _bench_recipe),
]}


def run_recipe(name: str, base_seed: int = 0, n_seeds: int | None = None) -> RecipeOutput:
    if name not in RECIPES:
        raise ScenarioError(
            f"unknown recipe {name!r} (known: {', '.join(sorted(RECIPES))})")
    recipe = RECIPES[name]
    count = recipe.default_seeds if n_seeds is None else n_seeds
    return recipe.run(list(range(base_seed, base_seed + count)))


def write_recipe_output(out: RecipeOutput, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    raw = os.path.join(out_dir, f"{out.name}.csv")
    agg = os.path.join(out_dir, f"{out.name}_agg.csv")
    write_csv(raw, out.comments, out.columns, out.rows)
    write_csv(agg, out.comments + ["aggregated: mean/std per sweep point"],
              out.agg_columns, out.agg_rows)
    return [raw, agg]
