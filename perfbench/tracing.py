"""In-memory spans and counters around microcast's public entry points.

The benchmark never edits the package: `instrument` swaps module and
class attributes for wrappers and returns a function that puts the
originals back.  A `Tracer` with spans off only keeps the counters, so
one pass can collect exact counts (events, inserts, MACs) without the
cost of timing every call.

A span records its name, start, end, parent and trace id.  Spans of one
protocol run or one solver call share a trace id; other spans share the
id of their outermost span.
Self time is a span's duration minus the durations of its direct
children; the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, TRACE = range(5)

# spans that open a new trace id instead of joining their parent's
TRACE_ROOTS = frozenset({"protocols.run", "num.simulate", "num.oracle"})


class Tracer:
    def __init__(self, spans: bool = True):
        self.enabled = spans
        self.spans: list = []
        self.attrs: dict = {}      # span index -> dict
        self.stack: list = []
        self.counts: dict = defaultdict(int)

    def wrap(self, name: str, fn, note=None):
        """Wrap fn in a span; note(span_index, result, args) runs after it.

        With spans off, only note runs (span_index is -1), and a wrapper
        without a note is fn itself.
        """
        if not self.enabled:
            if note is None:
                return fn

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                note(-1, result, args)
                return result
            return counted

        spans, stack = self.spans, self.stack
        new_trace = name in TRACE_ROOTS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, parent,
                   idx if new_trace or parent < 0 else spans[parent][TRACE]]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                note(idx, result, args)
            return result
        return traced

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def reset(self) -> None:
        # in place: the wrappers hold on to these containers
        for store in (self.spans, self.attrs, self.stack, self.counts):
            store.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, own in zip(self.spans, self.self_times()):
            row = out[rec[NAME]]
            row[0] += 1
            row[1] += rec[END] - rec[START]
            row[2] += own
        return out

    def by_trace(self, root_name: str) -> list:
        """Per trace rooted at a `root_name` span: its attrs and self time per span name."""
        own = self.self_times()
        layers: dict = {}
        for idx, rec in enumerate(self.spans):
            if self.spans[rec[TRACE]][NAME] == root_name:
                per = layers.setdefault(rec[TRACE], defaultdict(float))
                per[rec[NAME]] += own[idx]
        return [(self.attrs.get(root, {}), dict(per))
                for root, per in sorted(layers.items())]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,trace,name,start_s,end_s\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for idx, rec in enumerate(self.spans):
                fh.write(f"{idx},{rec[PARENT]},{rec[TRACE]},{rec[NAME]},"
                         f"{rec[START] - t0:.9f},{rec[END] - t0:.9f}\n")


def instrument(tracer: Tracer):
    """Wrap the public entry points of every layer; returns the undo function."""
    from microcast import acceptance, gf256, netsim, num, protocols, rlnc, scenarios

    counts, attrs = tracer.counts, tracer.attrs
    undo = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(name, note=None):
        return lambda fn: tracer.wrap(name, fn, note)

    # gf256: the row-combination kernel, with its multiply-accumulate count
    def note_dot(idx, result, args):
        coeffs, matrix = args
        k, w = len(coeffs), matrix.shape[1]
        counts["gf256.gf_dot.mac"] += k * w
        counts["gf256.gf_dot.bytes"] += k * w + k + w
    patch(gf256, "gf_dot", span("gf256.gf_dot", note_dot))

    # rlnc: encode, recode, insert, extract, wire format
    def note_insert(idx, innovative, args):
        counts["rlnc.insert.calls"] += 1
        counts["rlnc.insert.innovative"] += bool(innovative)

    def note_recode(idx, result, args):
        counts["rlnc.recode.calls"] += 1
    patch(rlnc, "encode", span("rlnc.encode"))
    patch(rlnc, "recode", span("rlnc.recode", note_recode))
    patch(protocols, "recode", span("rlnc.recode", note_recode))
    patch(rlnc.DecoderState, "insert", span("rlnc.insert", note_insert))
    patch(rlnc.DecoderState, "extract", span("rlnc.extract"))
    patch(rlnc.CodedPacket, "to_bytes", span("rlnc.wire"))
    patch(rlnc.CodedPacket, "from_bytes",
          lambda cm: classmethod(tracer.wrap("rlnc.wire", cm.__func__)))

    # netsim: event loop, event count, medium jobs, log path, meter
    def counting_schedule(original):
        def schedule(self, delay, fn, *args):
            def event(*a):
                counts["netsim.events"] += 1
                return fn(*a)
            return original(self, delay, event, *args)
        return schedule

    def counting_record_tx(original):
        def record_tx(self, msg, occupations):
            counts["netsim.transmissions"] += occupations
            return original(self, msg, occupations)
        return record_tx

    def note_build(idx, result, args):
        counts["netsim.medium.jobs"] += 1
        counts["netsim.medium.null_builds"] += not result

    def wrapping_submit(original):
        def submit(self, build):
            return original(self, tracer.wrap("protocols.build", build, note_build))
        return submit

    def wrapping_attach(original):
        def attach(self, device, on_message):
            return original(self, device, tracer.wrap("protocols.handler", on_message))
        return attach

    def note_log(idx, result, args):
        counts["netsim.log.calls"] += 1
    patch(netsim.Simulator, "run", span("netsim.run"))
    patch(netsim.Simulator, "schedule", counting_schedule)
    patch(netsim.Simulator, "log", span("netsim.log", note_log))
    patch(netsim.Simulator, "attach", wrapping_attach)
    patch(netsim.LocalMedium, "submit", wrapping_submit)
    patch(netsim.TrafficMeter, "record_tx", counting_record_tx)

    # protocols: one span per run, labelled with its cell
    def note_run(idx, result, args):
        sim_config, proto = args
        counts["netsim.log.records"] += len(result.sim.events)
        if idx >= 0:
            attrs[idx] = {"protocol": proto.protocol, "mode": sim_config.mode}
    patch(protocols, "run_protocol", span("protocols.run", note_run))
    patch(acceptance, "run_protocol", span("protocols.run", note_run))

    # num: solver iterations and the LP reference
    def note_simulate(idx, result, args):
        topo, cfg = args
        if idx >= 0:
            attrs[idx] = {"n": topo.n, "policy": cfg.policy,
                          "iterations": cfg.iterations * len(cfg.seeds)}
    patch(num, "simulate", span("num.simulate", note_simulate))
    patch(num, "centralized_oracle", span("num.oracle"))

    # scenarios and acceptance
    patch(scenarios, "build_configs", span("scenarios.build_configs"))
    patch(scenarios, "write_csv", span("scenarios.csv"))
    patch(scenarios, "aggregate", span("scenarios.csv"))
    patch(acceptance, "evaluate_protocol_properties",
          span("acceptance.protocol_properties"))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore
