"""Scenario parsing, CSV plumbing, and the figure recipe registry."""

import copy
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microcast import num, scenarios
from microcast.netsim import MODE_STAR, MODES
from microcast.protocols import (ASSIGN_ADAPTIVE, ASSIGN_STATIC, PROTO_R2,
                                 PROTOCOLS)
from microcast.scenarios import ScenarioError


def write_yaml(tmp_path, text, name="scen.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ scenario files


def test_minimal_scenario_defaults(tmp_path):
    path = write_yaml(tmp_path, "devices:\n  - cellular_kbps: 550\n  - {}\n")
    sim_cfg, proto = scenarios.load_scenario(path)
    assert sim_cfg.n == 2
    assert sim_cfg.capacity_bps == pytest.approx(20e6)
    assert sim_cfg.devices[0].cellular.times == (0.0,)
    assert sim_cfg.devices[0].cellular.rates == pytest.approx((550e3,))
    assert sim_cfg.devices[1].cellular is None
    assert proto.protocol == "microcast"
    assert proto.file_bytes == 9_930_000 and proto.m == 25 and proto.n == 900


def test_full_scenario_fields(tmp_path):
    path = write_yaml(tmp_path, """
protocol: r2_push
assignment: static
mode: star
ap: 1
file_mb: 0.5
video_kbps: 300
seed: 7
idle_window_s: 5
max_time_s: 120
log_events: true
devices:
  - cellular_kbps: 800
    cell_fail_prob: 0.1
    cell_timeout_s: 3.0
  - {}
local:
  capacity_mbps: 8
  background_mbps: 2
  loss_uniform: 0.05
segment_params: {m: 10, n: 200}
""")
    sim_cfg, proto = scenarios.load_scenario(path)
    assert sim_cfg.mode == MODE_STAR and sim_cfg.ap == 1
    assert sim_cfg.capacity_bps == pytest.approx(8e6)
    assert sim_cfg.background_bps == pytest.approx(2e6)
    assert sim_cfg.seed == 7 and sim_cfg.log_events
    assert sim_cfg.devices[0].cell_fail_prob == pytest.approx(0.1)
    assert sim_cfg.devices[0].cell_timeout == pytest.approx(3.0)
    assert proto.protocol == PROTO_R2 and proto.assignment == ASSIGN_STATIC
    assert proto.file_bytes == 500_000
    assert proto.m == 10 and proto.n == 200
    assert proto.video_kbps == pytest.approx(300.0)


def test_seed_parameter_overrides_file(tmp_path):
    path = write_yaml(tmp_path, "seed: 3\ndevices: [{cellular_kbps: 500}]\n")
    sim_cfg, _ = scenarios.load_scenario(path)
    assert sim_cfg.seed == 3
    doc = {"seed": 3, "devices": [{"cellular_kbps": 500}]}
    assert scenarios.build_configs(doc)[0] == sim_cfg
    sim_cfg, _ = scenarios.build_configs(doc, seed=11)
    assert sim_cfg.seed == 11


def test_trace_file_resolved_next_to_scenario(tmp_path):
    (tmp_path / "link.csv").write_text(
        "t_seconds,kbps\n0,5\n75,500\n", encoding="utf-8")
    path = write_yaml(tmp_path, "devices: [{trace_file: link.csv}]\n")
    sim_cfg, _ = scenarios.load_scenario(path)
    trace = sim_cfg.devices[0].cellular
    assert trace.times == (0.0, 75.0)
    assert trace.rates == pytest.approx((5e3, 500e3))


def test_rate_trace_rejects_bad_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_seconds,kbps\n0,5\nnope,500\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"bad\.csv:3"):
        scenarios.load_rate_trace(str(bad))


@pytest.mark.parametrize("data", [
    b"t_seconds,kbps\n0," + b"5" * 200_000 + b"\n",   # past csv's field limit
    b"t_seconds,kbps\n0,\xff\n",                      # not UTF-8
])
def test_unreadable_rate_trace_names_the_file(tmp_path, data):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    with pytest.raises(ScenarioError, match=r"bad\.csv"):
        scenarios.load_rate_trace(str(bad))


@pytest.mark.parametrize("text,needle", [
    ("devices: []\n", "nonempty"),
    ("devices: [{cellular_kbps: 1, trace_file: x.csv}]\n", "not both"),
    ("devices: [{cellular_mbps: 1}]\n", "cellular_mbps"),
    ("devices: [{}]\nmode: mesh\n", "mesh"),
    ("devices: [{}]\nprotocol: torrent\n", "torrent"),
    ("devices: [{}]\nfile_mb: -1\n", "file_mb"),
    ("devices: [{}]\nseed: maybe\n", "seed"),
    ("devices: [{}]\nlocal: {loss_uniform: 0.1, loss_matrix: []}\n", "not both"),
    ("devices: [{}]\nsegment_params: {m: 0}\n", "m"),
    ("devices: [{}]\nsegment_params: {m: 256}\n", "m=256"),
    ("devices: [{}]\nsegment_params: {n: 65536}\n", "n=65536"),
    # finite, but not once in bit/s or bytes
    ("devices: [{}]\nfile_mb: 1.0e+303\n", "file_mb"),
    # finite in bytes, but more segments than a 32-bit segment id numbers
    ("devices: [{}]\nfile_mb: 1.0e+300\n",
     "file_mb must be at most 96636764.16 at m=25, n=900"),
    ("devices: [{}]\nfile_mb: 1.0e+5\nsegment_params: {m: 1, n: 1}\n",
     "file_mb must be at most 4294.967296 at m=1, n=1"),
    ("devices: [{cellular_kbps: 1.0e+306}]\n", "cellular_kbps"),
    # n = 0 is for math-only decoders; a scenario's packets go on the wire
    ("devices: [{}]\nsegment_params: {n: 0}\n", "segment_params: n must be >= 1"),
])
def test_scenario_errors_name_the_key(tmp_path, text, needle):
    path = write_yaml(tmp_path, text)
    with pytest.raises(ScenarioError, match=needle):
        scenarios.load_scenario(path)


def test_scenario_must_be_mapping(tmp_path):
    path = write_yaml(tmp_path, "- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="mapping"):
        scenarios.load_scenario(path)


def test_unparsable_yaml_names_the_file(tmp_path):
    path = write_yaml(tmp_path, "devices: [\n", name="broken.yaml")
    with pytest.raises(ScenarioError, match="broken.yaml"):
        scenarios.load_scenario(path)


@pytest.mark.parametrize("data", [b"devices: [{}]\nmode: \xff\n",       # not UTF-8
                                  b"devices: [{}]\nseed: 2020-13-45\n"])  # no such date
def test_undecodable_yaml_names_the_file(tmp_path, data):
    path = tmp_path / "broken.yaml"
    path.write_bytes(data)
    with pytest.raises(ScenarioError, match="broken.yaml"):
        scenarios.load_scenario(str(path))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# valid values per key; a drawn document uses two devices
VALID_TOP = {
    "mode": st.sampled_from(MODES),
    "ap": st.integers(0, 1),
    "protocol": st.sampled_from(PROTOCOLS),
    "assignment": st.sampled_from([ASSIGN_ADAPTIVE, ASSIGN_STATIC]),
    "initiator": st.integers(0, 1),
    "file_mb": _floats(1e-6, 100),
    "seed": st.integers(0, 2**64),
    "video_kbps": _floats(0, 1e4),
    "idle_window_s": _floats(1e-9, 1e4),
    "max_time_s": _floats(1e-9, 1e4),
    "log_events": st.booleans(),
}
VALID_LOCAL = {
    "capacity_mbps": _floats(1, 100),
    "background_mbps": _floats(0, 0.5),
    "loss_uniform": _floats(0, 1),
}
VALID_SEGMENT = {"m": st.integers(1, 255), "n": st.integers(1, 65535)}
VALID_DEVICE = {
    "cell_fail_prob": _floats(0, 1),
    "cell_timeout_s": _floats(1e-3, 100),
}
ODD = st.one_of(
    st.sampled_from([None, True, False, "", "link.csv", "x", [], [[0.5]], [[1.0, 0.0]],
                     [[0.0, 0.5], [0.5, 0.0]], [[0.0, True], [0.5, 0.0]],
                     [[0.0, float("nan")], [0.5, 0.0]], [1, 2], {}, {"a": 1},
                     float("nan"), float("inf"), float("-inf"), -1, -1.5, 0, 0.0,
                     2, 1.5, 256, 65536, 1e300, -1e300, 1e301, 1.7e308, 10**400]),
    st.integers(-2**70, 2**70), st.floats(), st.text(max_size=3))


@st.composite
def scenario_docs(draw):
    """A valid scenario, then one key (or one nested mapping) given an odd value."""
    def pick(table):
        return {k: draw(v) for k, v in table.items() if draw(st.booleans())}

    devices = []
    for _ in range(2):
        dev = pick(VALID_DEVICE)
        link = draw(st.sampled_from(["none", "cellular_kbps", "trace_file"]))
        if link == "cellular_kbps":
            dev[link] = draw(_floats(0, 1e5))
        elif link == "trace_file":
            dev[link] = "link.csv"
        devices.append(dev)
    doc = {**pick(VALID_TOP), "devices": devices, "local": pick(VALID_LOCAL),
           "segment_params": pick(VALID_SEGMENT)}
    if draw(st.booleans()):
        doc["local"].pop("loss_uniform", None)
        doc["local"]["loss_matrix"] = [[0.0, draw(_floats(0, 1))],
                                       [draw(_floats(0, 1)), 0.0]]
    places = ([(doc, k) for k in [*VALID_TOP, "devices", "local", "segment_params"]]
              + [(doc["local"], k) for k in [*VALID_LOCAL, "loss_matrix"]]
              + [(doc["segment_params"], k) for k in VALID_SEGMENT]
              + [(devices, 0), (devices, 1)]
              + [(dev, k) for dev in devices
                 for k in [*VALID_DEVICE, "cellular_kbps", "trace_file"]])
    where, key = draw(st.sampled_from(places))
    return doc, where, key, draw(ODD)


def _plain(configs):
    sim_cfg, proto = configs
    return {**vars(sim_cfg), "loss": sim_cfg.loss.tolist()}, vars(proto)


# a refusal raised by a config dataclass names the field a key feeds
FIELD_WORDS = {"capacity_mbps": "capacity", "background_mbps": "background",
               "loss_uniform": "loss", "loss_matrix": "loss",
               "cell_timeout_s": "cell_timeout"}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=scenario_docs())
def test_scenario_grammar_builds_or_names_the_key(tmp_path, case):
    # build_configs only: a valid drawn file of up to 100 MB can still make
    # a long run
    (tmp_path / "link.csv").write_text("t_seconds,kbps\n0,5\n7,500\n", encoding="utf-8")
    doc, where, key, value = case
    if isinstance(where, dict):
        where.pop(key, None)
    absent = copy.deepcopy(doc)
    where[key] = value
    try:
        built = scenarios.build_configs(doc, base_dir=str(tmp_path))
    except ScenarioError as exc:
        if isinstance(key, int):                 # a whole device entry
            words = [re.escape(f"devices[{key}]")]
        else:
            words = [re.escape(key), FIELD_WORDS.get(key, re.escape(key))]
        if key == "trace_file" and isinstance(value, str):
            words.append(re.escape(os.path.join(str(tmp_path), value)))
        assert any(re.search(rf"(?<!\w){w}(?!\w)", str(exc)) for w in words), \
            (key, value, str(exc))
        return
    if value is None and isinstance(where, dict):
        # null is the default, the same as leaving the key out
        assert _plain(built) == _plain(scenarios.build_configs(absent, base_dir=str(tmp_path)))


# ------------------------------------------------------------- CSV round trip


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [["a", 1, 0.25], ["b", 2, 1 / 3]]
    scenarios.write_csv(path, ["one", "two, with comma"], ["k", "i", "x"], rows)
    comments, columns, parsed = scenarios.read_csv(path)
    assert comments == ["one", "two, with comma"]
    assert columns == ["k", "i", "x"]
    assert parsed[0] == {"k": "a", "i": "1", "x": "0.25"}
    assert float(parsed[1]["x"]) == pytest.approx(1 / 3, abs=1e-10)


def test_float_formatting_ten_digits():
    assert scenarios.fmt_value(1 / 3) == "0.3333333333"
    assert scenarios.fmt_value(2.0) == "2"
    assert scenarios.fmt_value(5) == "5"


def test_aggregate_mean_std_per_group():
    columns = ["g", "seed", "v"]
    rows = [["a", 0, 1.0], ["a", 1, 3.0], ["b", 0, 5.0]]
    agg_cols, agg_rows = scenarios.aggregate(rows, columns, ["g"], ["v"])
    assert agg_cols == ["g", "v_mean", "v_std", "runs"]
    assert agg_rows[0] == ["a", 2.0, 1.0, 2]
    assert agg_rows[1] == ["b", 5.0, 0.0, 1]


def test_aggregate_empty_rows():
    agg_cols, agg_rows = scenarios.aggregate([], ["g", "v"], ["g"], ["v"])
    assert agg_rows == [] and agg_cols[-1] == "runs"


# ------------------------------------------------------------------- recipes


def test_recipe_registry():
    names = {"fig4a", "fig4b", "fig5a", "fig5b", "fig6b",
             "fig-microdownload", "fig-congested", "fig7b"}
    assert set(scenarios.RECIPES) == names
    kinds = {r.kind for r in scenarios.RECIPES.values()}
    assert kinds == {"num", "proto", "bench"}


def test_run_recipe_unknown_name():
    with pytest.raises(ScenarioError, match="no-such"):
        scenarios.run_recipe("no-such")


def test_recipe_output_and_aggregate_purity(tmp_path):
    out = scenarios.run_recipe("fig5a", n_seeds=2)
    paths = scenarios.write_recipe_output(out, str(tmp_path))
    assert [p.endswith(("fig5a.csv", "fig5a_agg.csv")) for p in paths] == [True, True]
    comments, columns, raw = scenarios.read_csv(paths[0])
    assert any("recipe: fig5a" in c for c in comments)
    assert columns == scenarios.NUM_COLUMNS
    assert len(raw) == len(num.POLICIES) * 4 * 2   # policies x loss grid x seeds
    # the aggregate must be recomputable from the raw rows alone
    redo_rows = [[r[c] for c in columns] for r in raw]
    _, redo = scenarios.aggregate(redo_rows, columns,
                                  ["policy", "n_devices", "p_local"],
                                  ["avg_rate"])
    _, agg_cols, agg = scenarios.read_csv(paths[1])
    assert len(agg) == len(redo)
    for got, want in zip(agg, redo):
        assert float(got["avg_rate_mean"]) == pytest.approx(want[-3], abs=1e-9)
        assert float(got["avg_rate_std"]) == pytest.approx(want[-2], abs=1e-9)


def test_microdownload_traces_shape():
    fast, steady, choked = scenarios.microdownload_traces()
    assert fast.times == tuple(10.0 * k for k in range(12))
    assert fast.rates == pytest.approx((800e3, 1000e3) * 6)
    assert (steady.times, steady.rates) == ((0.0,), (500e3,))
    assert choked.times == (0.0, 75.0)
    assert choked.rates == pytest.approx((5e3, 500e3))
