"""tools/identity.py: the battery digest repeats in one tree, and a changed
coefficient draw, solver step, LP optimum or wide coded byte changes it."""

import importlib.util
import math
import os

import numpy as np
import pytest

from microcast import num, protocols, rlnc

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "identity.py")
RUNS = 12


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_gives_the_same_digest():
    tool = load_tool()
    first = tool.battery_digest(seed=3, runs=RUNS)
    assert len(first) == 64
    assert tool.battery_digest(seed=3, runs=RUNS) == first
    assert tool.battery_digest(seed=4, runs=RUNS) != first


def test_a_changed_recode_draw_changes_the_digest(monkeypatch):
    tool = load_tool()
    before = tool.battery_digest(seed=3, runs=RUNS)
    real = protocols.recode
    calls = []

    def recode_one_vector_later(state, coefficients):
        calls.append(state)
        coefficients.integers(0, 256, state.rank, dtype=np.uint8)
        return real(state, coefficients)

    monkeypatch.setattr(protocols, "recode", recode_one_vector_later)
    assert tool.battery_digest(seed=3, runs=RUNS) != before
    assert calls   # the battery recodes, so the plant was reached


def test_a_one_ulp_solver_step_changes_the_digest(monkeypatch):
    tool = load_tool()
    before = tool.battery_digest(seed=3, runs=0)
    monkeypatch.setattr(num, "STEP_SIZE", math.nextafter(num.STEP_SIZE, 1.0))
    assert tool.battery_digest(seed=3, runs=0) != before


def test_a_one_ulp_oracle_change_changes_the_digest(monkeypatch):
    tool = load_tool()
    before = tool.battery_digest(seed=3, runs=0, codec=0)
    real = num.centralized_oracle
    sizes = []

    def oracle_one_ulp_up(topo, policy):
        sizes.append(topo.n)
        return math.nextafter(real(topo, policy), math.inf)

    monkeypatch.setattr(num, "centralized_oracle", oracle_one_ulp_up)
    assert tool.battery_digest(seed=3, runs=0, codec=0) != before
    # every group size the oracle takes, once per policy
    assert sorted(set(sizes)) == list(range(1, num.ORACLE_DEVICE_LIMIT + 1))
    assert len(sizes) == num.ORACLE_DEVICE_LIMIT * len(num.POLICIES)


def test_one_wrong_byte_in_a_wide_packet_changes_the_digest(monkeypatch):
    # the protocol battery's packets are 8 bytes wide; the codec battery
    # must catch a fault that only wider packets show
    tool = load_tool()
    before = tool.battery_digest(seed=3, runs=0, codec=4)
    real = rlnc.encode
    widths = []

    def encode_wide_off_by_one(generation, rng, params):
        pkt = real(generation, rng, params)
        widths.append(params.n)
        if params.n > 8:
            pkt.row[-1] ^= 1
        return pkt

    monkeypatch.setattr(rlnc, "encode", encode_wide_off_by_one)
    assert tool.battery_digest(seed=3, runs=0, codec=4) != before
    assert max(widths) > 8


def test_an_uninverted_pivot_map_in_extract_changes_the_digest(monkeypatch):
    # dense coefficients pivot in column order, where slot and column
    # agree; only the battery's permuted decoder tells them apart
    tool = load_tool()
    before = tool.battery_digest(seed=3, runs=0, codec=4)

    def extract_by_slot(state):
        m = state.params.m
        return [rlnc.PlainPacket(state.segment_id, k, state.rows[col, m:].tobytes())
                for k, col in enumerate(state._pivot_cols.tolist())]

    monkeypatch.setattr(rlnc.DecoderState, "extract", extract_by_slot)
    assert tool.battery_digest(seed=3, runs=0, codec=4) != before


def test_main_prints_the_digest(capsys):
    tool = load_tool()
    assert tool.main(["--seed", "3", "--runs", str(RUNS)]) == 0
    assert capsys.readouterr().out == tool.battery_digest(3, RUNS) + "\n"


def test_main_prints_the_solver_and_codec_digest_alone(capsys):
    tool = load_tool()
    assert tool.main(["--seed", "3", "--runs", "0", "--codec", "2"]) == 0
    assert capsys.readouterr().out == \
        tool.battery_digest(3, runs=0, codec=2) + "\n"
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--runs", "-1"])
    assert exit_.value.code == 2
    assert "--runs must not be negative" in capsys.readouterr().err
