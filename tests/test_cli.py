"""Command line harness: subcommands, CSV contracts, exit codes."""

import argparse
import dataclasses
import os
import subprocess
import sys

import pytest

import microcast
from microcast import acceptance, cli, scenarios
from microcast.cli import EXIT_STALLED, main
from microcast.netsim import SimStalled


def run_cli(*argv) -> int:
    return main(list(argv))


def scenario_file(tmp_path, text=None):
    path = tmp_path / "tiny.yaml"
    path.write_text(text or """
protocol: microcast
file_mb: 0.01
devices:
  - cellular_kbps: 2000
  - {}
local: {capacity_mbps: 10}
segment_params: {m: 5, n: 200}
""", encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ num-sim


def test_num_sim_rows_and_aggregate(tmp_path):
    out = str(tmp_path)
    code = run_cli("num-sim", "--policy", "unicast", "--n-devices", "1,2",
                   "--p-local", "0.1", "--iterations", "100",
                   "--seeds", "2", "--out", out)
    assert code == 0
    comments, columns, rows = scenarios.read_csv(os.path.join(out, "num-sim.csv"))
    assert columns == scenarios.NUM_COLUMNS
    assert len(rows) == 2 * 2   # device counts x seeds
    assert any("step_size" in c for c in comments)
    _, agg_cols, agg = scenarios.read_csv(os.path.join(out, "num-sim_agg.csv"))
    assert agg_cols[:3] == ["policy", "n_devices", "p_local"]
    assert len(agg) == 2 and agg[0]["runs"] == "2"


def test_num_sim_empty_sweep_writes_header_only(tmp_path):
    out = str(tmp_path)
    assert run_cli("num-sim", "--n-devices", "", "--out", out) == 0
    _, columns, rows = scenarios.read_csv(os.path.join(out, "num-sim.csv"))
    assert columns == scenarios.NUM_COLUMNS and rows == []


@pytest.mark.parametrize("command, n_seeds", [
    pytest.param("num-sim --n-devices 2", "0", id="0"),
    pytest.param("num-sim --n-devices 2", "-2", id="-2"),
    pytest.param("proto-sim", "-2", id="proto-sim"),
    pytest.param("recipe fig6b", "0", id="fig6b"),
    pytest.param("recipe fig7b", "-1", id="fig7b"),
])
def test_num_sim_rejects_empty_seed_list(tmp_path, capsys, command, n_seeds):
    argv = command.split()
    if command == "proto-sim":
        argv.append(scenario_file(tmp_path))
    out = str(tmp_path / "out")
    assert run_cli(*argv, "--seeds", n_seeds, "--out", out) == 2
    assert "error: need at least one seed" in capsys.readouterr().err
    assert not os.path.exists(out)   # no CSV, not even the directory


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_num_sim_rejects_non_finite_gamma(tmp_path, capsys, gamma):
    out = str(tmp_path / "out")
    assert run_cli("num-sim", "--n-devices", "2", "--gamma", gamma, "--out", out) == 2
    assert "gamma" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_num_sim_rejects_garbled_list(tmp_path, capsys):
    code = run_cli("num-sim", "--n-devices", "1;2", "--out", str(tmp_path))
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


def test_num_sim_deterministic(tmp_path):
    args = ("num-sim", "--policy", "pseudo_broadcast", "--n-devices", "3",
            "--p-local", "0.2", "--iterations", "150", "--seeds", "2")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    for name in ("num-sim.csv", "num-sim_agg.csv"):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_num_sim_default_seeds_are_0_to_9(tmp_path):
    out = str(tmp_path)
    assert run_cli("num-sim", "--policy", "unicast", "--n-devices", "1",
                   "--iterations", "10", "--out", out) == 0
    _, _, rows = scenarios.read_csv(os.path.join(out, "num-sim.csv"))
    assert [r["seed"] for r in rows] == [str(s) for s in range(10)]


# ---------------------------------------------------------------- proto-sim


def test_proto_sim_writes_rows_and_events(tmp_path):
    scen = scenario_file(tmp_path)
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--event-log", "--out", out) == 0
    _, columns, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert columns[:4] == ["protocol", "seed", "complete", "duration_s"]
    assert len(rows) == 1 and rows[0]["complete"] == "1"
    assert rows[0]["status"] == "done"
    _, ev_cols, events = scenarios.read_csv(os.path.join(out, "tiny_events.csv"))
    assert ev_cols == ["t", "device", "event_kind", "segment", "bytes", "peer",
                       "msg", "dims"]
    kinds = {e["event_kind"] for e in events}
    assert "cell_done" in kinds and any(k.startswith("tx.") for k in kinds)
    # a reception names its sender and the transmission it belongs to
    sent = {e["msg"]: e for e in events if e["event_kind"].startswith("tx.")}
    for e in events:
        if e["event_kind"].startswith("rx."):
            assert e["peer"] == sent[e["msg"]]["device"] != e["device"]


def test_proto_sim_multi_seed_rows(tmp_path):
    scen = scenario_file(tmp_path)
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--seeds", "2", "--seed", "5",
                   "--out", out) == 0
    _, _, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert [r["seed"] for r in rows] == ["5", "6"]


def test_proto_sim_starts_from_the_files_seed(tmp_path):
    # two files that differ only in `seed` run different seeds, and an
    # explicit --seed still wins over the file's
    lossy = ("file_mb: 0.01\ndevices: [{cellular_kbps: 2000}, {}]\n"
             "local: {loss_uniform: 0.2}\nsegment_params: {m: 5, n: 200}\n")

    def rows(name, seed_key, *argv):
        scen = scenario_file(tmp_path, lossy + seed_key)
        out = tmp_path / name
        assert run_cli("proto-sim", scen, "--seeds", "2", "--out", str(out), *argv) == 0
        return scenarios.read_csv(str(out / "tiny.csv"))[2]

    zero, seven = rows("zero", "seed: 0\n"), rows("seven", "seed: 7\n")
    assert [r["seed"] for r in zero] == ["0", "1"]
    assert [r["seed"] for r in seven] == ["7", "8"]
    assert [r["duration_s"] for r in zero] != [r["duration_s"] for r in seven]
    assert rows("flag0", "seed: 7\n", "--seed", "0") == zero
    assert rows("flag7", "", "--seed", "7") == seven


def test_proto_sim_keeps_finished_seeds_when_one_stalls(tmp_path, capsys, monkeypatch):
    real = cli.run_protocol

    def stall_seed_6(sim_cfg, proto):
        if sim_cfg.seed == 6:
            raise SimStalled("no progress for 30s at t=9.0s", "device 1: 1 segments missing (0)")
        return real(sim_cfg, proto)

    monkeypatch.setattr(cli, "run_protocol", stall_seed_6)
    out = str(tmp_path / "res")
    code = run_cli("proto-sim", scenario_file(tmp_path), "--seeds", "3", "--seed", "5",
                   "--out", out)
    assert code == EXIT_STALLED == 3
    _, columns, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert columns[-1] == "status"
    assert [(r["seed"], r["status"], r["complete"]) for r in rows] == [
        ("5", "done", "1"), ("6", "stalled", "0"), ("7", "done", "1")]
    assert all(r[c] == "" for c in columns[3:-1] for r in rows[1:2])
    assert float(rows[0]["duration_s"]) > 0.0
    _, _, agg = scenarios.read_csv(os.path.join(out, "tiny_agg.csv"))
    assert [a["runs"] for a in agg] == ["2"]
    err = capsys.readouterr().err
    assert "seed 6: stalled: no progress" in err and "device 1: 1 segments missing" in err


def test_proto_sim_capped_run_is_data(tmp_path):
    scen = scenario_file(tmp_path, """
protocol: microcast
file_mb: 0.01
devices:
  - cellular_kbps: 2000
  - {}
local: {capacity_mbps: 10}
segment_params: {m: 5, n: 200}
max_time_s: 0.01
""")
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--out", out) == 0
    _, _, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert [(r["complete"], r["status"]) for r in rows] == [("0", "capped")]


def test_proto_sim_drained_run_is_data(tmp_path):
    # under `none` a failed download strands only its own device, and the
    # run ends with no event left, long before max_time_s
    scen = scenario_file(tmp_path, """
protocol: none
file_mb: 0.05
devices:
  - cellular_kbps: 2000
  - {cellular_kbps: 2000, cell_fail_prob: 1.0}
local: {capacity_mbps: 10}
max_time_s: 3600
""")
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--out", out) == 0
    _, _, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert [(r["complete"], r["status"]) for r in rows] == [("0", "drained")]
    assert float(rows[0]["duration_s"]) < 1.0


def test_proto_sim_zero_rate_device_stalls(tmp_path, capsys):
    # a static split gives the 0 kbps device a share it can never download
    scen = scenario_file(tmp_path, """
protocol: microcast
assignment: static
file_mb: 0.01
devices:
  - cellular_kbps: 2000
  - cellular_kbps: 0
  - {}
local: {capacity_mbps: 10}
segment_params: {m: 5, n: 200}
""")
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--seeds", "2", "--out", out,
                   "--event-log") == EXIT_STALLED
    _, _, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert [r["status"] for r in rows] == ["stalled", "stalled"]
    err = capsys.readouterr().err
    assert "cellular rate is zero forever" in err
    # the stall report names what each device still misses
    assert "device 1: 10 segments missing (0, 1, 2" in err
    # a stalled seed keeps its records up to the stall
    for seed in (0, 1):
        comments, columns, events = scenarios.read_csv(
            os.path.join(out, f"tiny_events_s{seed}.csv"))
        assert columns == cli.EVENT_COLUMNS and f"seed: {seed}" in comments
        assert events and {e["event_kind"] for e in events} >= {"cell_start"}


def test_proto_sim_failed_static_download_stalls(tmp_path, capsys):
    # the static split never reassigns the failed device's share
    scen = scenario_file(tmp_path, """
protocol: r2_push
assignment: static
file_mb: 0.01
devices:
  - cellular_kbps: 2000
  - {cellular_kbps: 2000, cell_fail_prob: 1.0}
local: {capacity_mbps: 10}
segment_params: {m: 5, n: 200}
""")
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--out", out) == EXIT_STALLED
    _, _, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    assert [(r["complete"], r["status"]) for r in rows] == [("0", "stalled")]
    err = capsys.readouterr().err
    assert "device 1 failed to download segment 5" in err
    assert "device 0: 9 segments missing (1, 2" in err


def test_proto_sim_bad_config_exit_2(tmp_path, capsys):
    scen = scenario_file(tmp_path, "protocol: bogus\ndevices: [{}]\n")
    assert run_cli("proto-sim", scen) == 2
    assert "bogus" in capsys.readouterr().err


def test_proto_sim_missing_file_exit_2(tmp_path, capsys):
    assert run_cli("proto-sim", str(tmp_path / "nope.yaml")) == 2
    assert "nope.yaml" in capsys.readouterr().err


def test_proto_sim_unparsable_yaml_exit_2(tmp_path, capsys):
    scen = scenario_file(tmp_path, "devices: [\n")
    assert run_cli("proto-sim", scen, "--out", str(tmp_path / "res")) == 2
    err = capsys.readouterr().err
    assert "tiny.yaml" in err and "Traceback" not in err


@pytest.mark.parametrize("key, fields", [
    ("ap", {"mode": "star", "ap": "'1'"}),
    ("ap", {"mode": "star", "ap": "1.5"}),
    ("cellular_kbps", {"devices": "[{cellular_kbps: .inf}, {}]"}),
    ("cellular_kbps", {"devices": "[{cellular_kbps: .nan}, {}]"}),
    ("inf.csv", {"devices": "[{trace_file: inf.csv}, {}]"}),
    ("file_mb", {"file_mb": ".inf"}),
    ("capacity_mbps", {"local": "{capacity_mbps: .nan}"}),
    ("loss", {"local": "{loss_uniform: .nan}"}),
    ("m must be an integer", {"segment_params": "{m: 2.5}"}),
    ("initiator", {"initiator": "0.5"}),
    ("log_events", {"log_events": "'no'"}),
    ("loss_uniform", {"local": "{loss_uniform: {p: 0.1}}"}),
    ("loss_uniform", {"local": "{loss_uniform: true}"}),
    ("seed", {"seed": "-1"}),
    ("file_mb", {"file_mb": "1.0e+300"}),
    ("segment_params: n must be >= 1", {"segment_params": "{n: 0}"}),
])
def test_proto_sim_bad_value_exit_2(tmp_path, capsys, key, fields):
    (tmp_path / "inf.csv").write_text("t_seconds,kbps\n0,inf\n", encoding="utf-8")
    doc = {"file_mb": "0.05", "devices": "[{cellular_kbps: 2000}, {}]", **fields}
    scen = scenario_file(tmp_path, "".join(f"{k}: {v}\n" for k, v in doc.items()))
    # an exception escaping main would fail here: it is a traceback at the shell
    assert run_cli("proto-sim", scen, "--out", str(tmp_path / "res")) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "res" / "tiny.csv")


def test_proto_sim_empty_value_is_the_default(tmp_path):
    # the same path both times: the CSV headers name the scenario file
    base = "file_mb: 0.05\ndevices: [{cellular_kbps: 2000}, {}]\n"
    scen = scenario_file(tmp_path, base + "local:\n  capacity_mbps:\nmax_time_s:\n")
    assert run_cli("proto-sim", scen, "--out", str(tmp_path / "empty")) == 0
    scenario_file(tmp_path, base)
    assert run_cli("proto-sim", scen, "--out", str(tmp_path / "absent")) == 0
    assert ((tmp_path / "empty" / "tiny.csv").read_bytes()
            == (tmp_path / "absent" / "tiny.csv").read_bytes())


def test_proto_sim_loads_the_scenario_once(tmp_path, monkeypatch):
    scen = scenario_file(tmp_path)
    calls = []
    real = scenarios.load_scenario

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "load_scenario", counting)
    out = str(tmp_path / "res")
    assert run_cli("proto-sim", scen, "--seeds", "3", "--seed", "4",
                   "--event-log", "--out", out) == 0
    assert calls == [(scen,)]
    # each seed's run is the file's config with only the seed replaced
    _, columns, rows = scenarios.read_csv(os.path.join(out, "tiny.csv"))
    for row, seed in zip(rows, (4, 5, 6), strict=True):
        sim_cfg, proto = real(scen)
        met = cli.run_protocol(dataclasses.replace(sim_cfg, seed=seed), proto).metrics
        expected = [met.protocol, seed, int(met.complete), met.duration_s,
                    met.avg_rate_bps, met.local_bytes, met.local_data_bytes,
                    met.local_control_bytes, "done"]
        assert [row[c] for c in columns] == [scenarios.fmt_value(v) for v in expected]


def test_log_events_key_writes_the_event_log(tmp_path):
    # the same path both times: the CSV headers name the scenario file
    scen = scenario_file(tmp_path)
    with open(scen, encoding="utf-8") as fh:
        base = fh.read()
    scenario_file(tmp_path, base + "log_events: true\n")
    by_key = tmp_path / "key"
    assert run_cli("proto-sim", scen, "--seeds", "2", "--out", str(by_key)) == 0
    scenario_file(tmp_path, base)
    by_flag = tmp_path / "flag"
    assert run_cli("proto-sim", scen, "--seeds", "2", "--event-log",
                   "--out", str(by_flag)) == 0

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert "tiny_events_s0.csv" in files(by_key)
    assert files(by_key) == files(by_flag)


def test_proto_sim_is_byte_deterministic(tmp_path):
    scen = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "group-stream.yaml")

    def run(name, *argv):
        out = tmp_path / name
        assert run_cli("proto-sim", scen, "--seeds", "2", "--event-log",
                       "--out", str(out), *argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    a, b = run("a"), run("b")
    assert sorted(a) == ["group-stream.csv", "group-stream_agg.csv",
                         "group-stream_events_s0.csv", "group-stream_events_s1.csv"]
    assert a == b
    other = run("c", "--seed", "5")
    assert other["group-stream_events_s5.csv"] != a["group-stream_events_s0.csv"]
    assert other["group-stream.csv"] != a["group-stream.csv"]


# --------------------------------------------------------------- bench-codec


def test_bench_codec_writes_csv(tmp_path):
    out = str(tmp_path)
    assert run_cli("bench-codec", "--m", "4,8", "--n", "64",
                   "--seconds", "0.02", "--out", out) == 0
    _, columns, rows = scenarios.read_csv(os.path.join(out, "bench-codec.csv"))
    assert columns == scenarios.BENCH_COLUMNS
    assert [r["m"] for r in rows] == ["4", "8"]
    assert all(float(r["encode_mbps"]) > 0 for r in rows)
    # m=4 over its neighbour m=8; the largest m has no neighbour
    assert float(rows[0]["encode_ratio_next"]) > 0 and float(rows[0]["decode_ratio_next"]) > 0
    assert rows[1]["encode_ratio_next"] == rows[1]["decode_ratio_next"] == ""


@pytest.mark.parametrize("argv, needle", [
    (("bench-codec", "--m", "0"), "m=0"),
    (("bench-codec", "--seconds", "0"), "seconds"),
    (("bench-codec", "--seconds", "-1"), "seconds"),
    (("num-sim", "--n-devices", "0"), "at least one device"),
    (("num-sim", "--seed", "-1"), "--seed"),
    (("bench-codec", "--seed", "-1"), "--seed"),
    (("recipe", "fig4a", "--seed", "-1"), "--seed"),
    (("proto-sim", "tiny.yaml", "--seed", "-1"), "--seed"),
    (("num-sim", "--n-devices", "-1"), "at least one device"),
])
def test_bad_numbers_exit_2(tmp_path, capsys, argv, needle):
    # draw_coefficients(0) never returns, so m is checked before any draw
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert needle in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# -------------------------------------------------------------------- recipe


def test_recipe_runs_and_writes(tmp_path):
    out = str(tmp_path)
    assert run_cli("recipe", "fig-microdownload", "--seeds", "1",
                   "--out", out) == 0
    comments, _, rows = scenarios.read_csv(
        os.path.join(out, "fig-microdownload.csv"))
    assert len(rows) == 2   # adaptive and static, one seed each
    assert any("recipe" in c for c in comments)
    assert os.path.exists(os.path.join(out, "fig-microdownload_agg.csv"))


def test_recipe_unknown_name_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("recipe", "fig9z", "--out", str(tmp_path))
    assert exc.value.code == 2


def test_recipe_default_seeds_are_the_recipes_own(tmp_path):
    out = str(tmp_path)
    assert run_cli("recipe", "fig-microdownload", "--out", out) == 0
    _, _, rows = scenarios.read_csv(os.path.join(out, "fig-microdownload.csv"))
    assert sorted({r["seed"] for r in rows}) == ["0", "1", "2"]


# --------------------------------------------------------------- flag table


# every flag a subcommand takes, with its default: each one has a reader
FLAGS = {
    "num-sim": {"--policy": "all", "--n-devices": "1,2,3,4,5,6,7,8",
                "--p-local": "0", "--cell-capacity": 1.0,
                "--local-capacity": 10.0, "--gamma": 1.0,
                "--iterations": 1000, "--seed": 0, "--seeds": 10,
                "--out": "results"},
    "proto-sim": {"--event-log": False, "--seed": None, "--seeds": 1,
                  "--out": "results"},
    "bench-codec": {"--m": "16,25,32,64", "--n": 900, "--seconds": 0.3,
                    "--seed": 0, "--out": "results"},
    "recipe": {"--seed": 0, "--seeds": None, "--out": "results"},
    "check": {"--out": "results"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(FLAGS)
    for name, parser in commands.items():
        flags = {a.option_strings[-1]: a.default for a in parser._actions
                 if a.option_strings and a.option_strings != ["-h", "--help"]}
        assert flags == FLAGS[name], name


@pytest.mark.parametrize("argv", [
    ("check", "--seed", "5"),
    ("check", "--seeds", "2"),
    ("bench-codec", "--m", "4", "--n", "8", "--seconds", "0.01", "--seeds", "2"),
    ("recipe", "fig7b", "--m", "4"),
    ("num-sim", "--m", "4"),
    ("proto-sim", "scenario.yaml", "--policy", "all"),
], ids=["check-seed", "check-seeds", "bench-codec-seeds", "recipe-m", "num-sim-m",
        "proto-sim-policy"])
def test_a_flag_the_command_never_reads_exits_2(tmp_path, capsys, argv):
    # reported with the subcommand's own usage, not the top-level one
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: microcast {argv[0]} ")
    assert "unrecognized arguments" in err
    assert not out.exists()


# --------------------------------------------------------------------- check


def test_check_missing_results_fails_not_run(tmp_path, capsys, monkeypatch):
    # criteria that need no CSVs are stubbed out; this test is about the
    # missing-file path, not the inline computations
    quick = [acceptance.CriterionResult(1, "stub", "pass", "x", "y")]
    monkeypatch.setattr(acceptance, "evaluate_all",
                        lambda d: quick + [acceptance.evaluate_codec_throughput(d)])
    assert run_cli("check", "--out", str(tmp_path / "none")) == 1
    text = capsys.readouterr().out
    assert "not run" in text and "FAIL" in text


@pytest.mark.parametrize("name, header, column", [
    ("fig7b.csv", "m,encode_mbps\n25,40.0\n", "decode_mbps"),
    ("fig4a_agg.csv", "policy,n_devices\nunicast,1\n", "avg_rate_mean"),
], ids=["fig7b", "fig4a"])
def test_check_csv_missing_column_is_bad_input(tmp_path, capsys, monkeypatch,
                                               name, header, column):
    (tmp_path / name).write_text(header, encoding="utf-8")
    (tmp_path / "fig4b_agg.csv").write_text(
        "policy,n_devices,avg_rate_mean\n", encoding="utf-8")
    quick = [acceptance.CriterionResult(1, "stub", "pass", "x", "y")]
    monkeypatch.setattr(acceptance, "evaluate_all", lambda d: quick + [
        acceptance.evaluate_codec_throughput(d),
        acceptance.evaluate_group_size_shapes(d)])
    assert run_cli("check", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert name in err and column in err and "Traceback" not in err


def test_check_csv_short_row_is_bad_input(tmp_path, capsys, monkeypatch):
    committed = os.path.join(os.path.dirname(__file__), "..", "results", "fig7b.csv")
    with open(committed, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = next(k for k, text in enumerate(lines) if text.startswith("25,"))
    lines[line] = "25,40.0"
    (tmp_path / "fig7b.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(scenarios.ScenarioError, match=f"line {line + 1}: 2 fields"):
        scenarios.read_csv(str(tmp_path / "fig7b.csv"))
    monkeypatch.setattr(acceptance, "evaluate_all", lambda d: [
        acceptance.evaluate_codec_throughput(d)])
    assert run_cli("check", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "fig7b.csv" in err and f"line {line + 1}" in err and "Traceback" not in err


def test_check_table_and_exit_codes(tmp_path, capsys, monkeypatch):
    rows = [acceptance.CriterionResult(1, "alpha", "pass", "m1", "b1"),
            acceptance.CriterionResult(2, "beta", "fail", "m2", "b2", "row x")]
    monkeypatch.setattr(acceptance, "evaluate_all", lambda d: rows)
    assert run_cli("check", "--out", str(tmp_path)) == 1
    text = capsys.readouterr().out
    assert "criterion 1 alpha: pass" in text
    assert "detail:   row x" in text
    assert "FAIL (1/2)" in text
    monkeypatch.setattr(acceptance, "evaluate_all", lambda d: rows[:1])
    assert run_cli("check", "--out", str(tmp_path)) == 0
    assert "PASS (1/1)" in capsys.readouterr().out


def test_check_ignores_file_times(tmp_path, capsys, monkeypatch):
    # a fresh clone may write results/ before src/; the golden test, not a
    # file time, says whether the results are current
    committed = os.path.join(os.path.dirname(__file__), "..", "results")
    for name in ("fig4a.csv", "fig4a_agg.csv", "fig4b.csv", "fig4b_agg.csv"):
        with open(os.path.join(committed, name), encoding="utf-8") as fh:
            (tmp_path / name).write_text(fh.read(), encoding="utf-8")
    monkeypatch.setattr(acceptance, "evaluate_all", lambda d: [
        acceptance.evaluate_group_size_shapes(d)])
    assert run_cli("check", "--out", str(tmp_path)) == 0
    fresh = capsys.readouterr().out
    for path in tmp_path.iterdir():
        os.utime(path, (1, 1))   # far older than the package source
    assert run_cli("check", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == fresh
    assert "PASS (1/1)" in fresh and "stale" not in fresh


# ------------------------------------------------------------ lazy imports


def test_heavy_dependencies_load_on_first_use():
    # a fresh interpreter: this one has long since imported scipy and yaml
    src = os.path.dirname(os.path.dirname(os.path.abspath(microcast.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = """
import sys
import microcast.cli
from microcast import num
assert "scipy" not in sys.modules, "scipy loaded at import"
assert "yaml" not in sys.modules, "yaml loaded at import"
topo = num.Topology(cell_capacity=[1.0, 1.0], cell_loss=[0.0, 0.0],
                    local_capacity=10.0, local_loss=0.0)
num.centralized_oracle(topo, num.PSEUDO_BROADCAST)
assert "scipy" not in sys.modules, "the oracle loaded scipy"
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout
