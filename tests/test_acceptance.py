"""The acceptance gate: every criterion at its stated tolerance.

Recipe CSVs are generated once per session into a temp directory; the
inline criteria (codec round trip, solver-vs-oracle, protocol property
grid) run their own computations.  Each test prints one verdict line.
The same CSVs are also held byte for byte to the committed results/.
"""

from pathlib import Path

import pytest

from microcast import acceptance, scenarios
from microcast.netsim import MODE_CLIQUE, DeviceSpec, RateTrace, SimConfig
from microcast.protocols import PROTO_MICROCAST, ProtocolConfig, run_protocol


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    for name in scenarios.RECIPES:
        scenarios.write_recipe_output(scenarios.run_recipe(name), str(out))
    return str(out)


COMMITTED = Path(__file__).resolve().parent.parent / "results"


def test_recipes_reproduce_committed_results(results_dir):
    # every recipe is a pure function of its seeds except fig7b, which
    # measures codec throughput on the wall clock
    def golden(d):
        return {p.name: p.read_bytes() for p in Path(d).glob("*.csv")
                if not p.name.startswith("fig7b")}
    got, want = golden(results_dir), golden(COMMITTED)
    assert sorted(got) == sorted(want)
    differ = [name for name in sorted(want) if got[name] != want[name]]
    assert not differ, f"regenerated CSVs differ from results/: {differ}"


def report(r):
    print(f"criterion {r.number} {r.name}: {r.verdict} "
          f"[measured: {r.measured} | bound: {r.bound}]")
    assert r.passed, r.detail or r.measured


def test_criterion_1_codec_roundtrip():
    report(acceptance.evaluate_codec_roundtrip())


def test_criterion_2_codec_throughput(results_dir):
    report(acceptance.evaluate_codec_throughput(results_dir))


def test_criterion_3_solver_tracks_oracle():
    report(acceptance.evaluate_solver_oracle())


def test_criterion_4_rate_vs_group_size(results_dir):
    report(acceptance.evaluate_group_size_shapes(results_dir))


def test_criterion_5_rate_vs_local_loss(results_dir):
    report(acceptance.evaluate_loss_shapes(results_dir))


def test_criterion_6_local_traffic_ratios(results_dir):
    report(acceptance.evaluate_traffic_ratios(results_dir))


def test_criterion_7_download_adaptivity(results_dir):
    report(acceptance.evaluate_download_adaptivity(results_dir))


def test_criterion_8_congested_medium(results_dir):
    report(acceptance.evaluate_congestion(results_dir))


def test_criterion_9_protocol_properties():
    report(acceptance.evaluate_protocol_properties())


def test_coalescing_check_skips_scheduler_notifications():
    # at t=6 device 1 serves one dimension of segment 3 to device 2, and its
    # next transmission is its scheduler feedback Notification for segment 3
    # to device 0, whose ask for 4 dimensions was served at t=0.1: that
    # feedback is not a notification to a member of the serve
    devices = [DeviceSpec(cellular=RateTrace.constant(2293812.8591898195)),
               DeviceSpec(cellular=RateTrace.constant(1953665.5828385355)),
               DeviceSpec(), DeviceSpec()]
    sim_cfg = SimConfig(devices=devices, capacity_bps=5e6, loss=0.3,
                        mode=MODE_CLIQUE, seed=1053094561, max_time_s=900.0,
                        log_events=True)
    proto = ProtocolConfig(PROTO_MICROCAST, file_bytes=6 * 10 * 24, m=10,
                           n=24, initiator=0)
    res = run_protocol(sim_cfg, proto)
    assert res.metrics.complete
    assert acceptance._check_microcast_run(res, proto, lossless=False) == []
