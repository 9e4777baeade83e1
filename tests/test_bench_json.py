"""tools/bench_json.py: a failed run and a wide spread exit differently;
every point counts the package's source lines and times start-up."""

import importlib.util
import json
import os
import sys
import types

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_json.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_spread(incorrect_seeds, spread):
    """A stand-in for perfbench/spread.py: three runs and one traced run of
    workload `w`, through `run_once` as the real one does."""
    fake = types.ModuleType("spread")
    fake.run_once = lambda workload, seed, seconds, trace: (
        {"correct": seed not in incorrect_seeds}, {}, 1.0)

    def main(argv):
        for seed in (1, 2, 3):
            fake.run_once("w", seed, 12, 0)
        fake.run_once("w", 1, 12, 1)
        metric = {"median": 1.0, "spread": spread, "bound": 0.25, "values": [0.9, 1.0, 1.1]}
        with open(argv[argv.index("--save") + 1], "w", encoding="utf-8") as fh:
            json.dump({"workloads": {"w": {"end_to_end": {"setup_s": metric}}}}, fh)
        return 0 if spread <= 0.25 / 3 and not incorrect_seeds else 1

    fake.main = main
    return fake


@pytest.mark.parametrize("incorrect, spread, code, wide", [
    ((), 0.05, 0, []),
    ((), 0.12, 3, ["w.setup_s"]),     # a noisy host alone
    ((2,), 0.12, 1, ["w.setup_s"]),   # a wrong run wins over a wide spread
    ((2,), 0.05, 1, []),
])
def test_exit_status_tells_a_wrong_run_from_a_noisy_host(
        tmp_path, monkeypatch, incorrect, spread, code, wide):
    tool = load_tool()
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool adds perfbench/
    monkeypatch.setitem(sys.modules, "spread", fake_spread(incorrect, spread))
    monkeypatch.setattr(tool, "recipe_times", dict)
    monkeypatch.setattr(tool, "tier1_time", dict)
    monkeypatch.setattr(tool, "startup_s", lambda: 0.25)
    monkeypatch.chdir(tmp_path)
    package = tmp_path / "src" / "microcast"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (package / "b.py").write_text("z = 3", encoding="utf-8")   # no final newline
    (package / "notes.txt").write_text("not source\n", encoding="utf-8")
    assert tool.main(["--label", "t"]) == code
    with open(tmp_path / "BENCH_t.json", encoding="utf-8") as fh:
        point = json.load(fh)
    assert point["wide_spreads"] == wide
    assert point["correct"] == (not incorrect)
    assert point["src_lines"] == {"files": {"a.py": 3, "b.py": 1}, "total": 4}
    assert point["north_star"] == {"startup_s": 0.25, "recipe_all": {}, "tier1": {}}
    assert point["workloads"]["w"]["runs"] == [
        {"seed": s, "traced": t, "correct": s not in incorrect}
        for s, t in ((1, False), (2, False), (3, False), (1, True))]


def test_startup_time_runs_the_command_line(monkeypatch):
    tool = load_tool()
    monkeypatch.chdir(os.path.join(os.path.dirname(TOOL), os.pardir))
    seconds = tool.startup_s()
    assert 0.0 < seconds < 60.0
