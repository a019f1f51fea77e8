#!/usr/bin/env python3
"""Reads the span file of a traced benchmark run and derives the per-layer
metrics from it.

    python3 perfbench/spans.py .bench_build/spans-zipf-hit.tsv

prints, for every span name, its sample count, mean and median duration
and mean self time (the span minus the part of it its child spans
cover), then every per-layer metric with its sample count. run.py
imports per_layer_metrics() for the --trace 1 result. Standard library
only.

The file is written by perfbench_loadgen (see loadgen/spans.h):
    S <rid> <id> <parent> <name> <start_ns> <end_ns> [<key>=<value>...]
    M <name> <value>
"""

import statistics
import sys

# Per-layer metric -> unit. BENCHMARK.json lists the same names.
UNITS = {
    "hierarchy.build_s": "s",
    "hierarchy.k": "count",
    "hierarchy.core_vertices": "count",
    "hierarchy.core_edges": "count",
    "labeling.build_s": "s",
    "labeling.entries": "count",
    "labeling.bytes": "bytes",
    "storage.save_s": "s",
    "storage.load_s": "s",
    "kernel.label_us": "us",
    "kernel.search_us": "us",
    "kernel.search_share": "ratio",
    "kernel.settled": "count",
    "kernel.relaxed": "count",
    "kernel.type1_share": "ratio",
    "kernel.type2_share": "ratio",
    "kernel.type3_share": "ratio",
    "kernel.path_us": "us",
    "kernel.one_us": "us",
    "pool.wait_us": "us",
    "pool.engines_created": "count",
    "cache.lookup_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.gen_invalidations": "count",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "dispatcher.execute_us": "us",
    "dispatcher.self_us": "us",
    "frontend.wire_us": "us",
    "tcp.bytes_in_per_req": "bytes",
    "tcp.bytes_out_per_req": "bytes",
    "updates.insert_us": "us",
    "updates.core_vertices": "count",
    "updates.core_edges": "count",
    "loadgen.cpu_us_per_req": "us",
    "trace.overhead_pct": "%",
}

# server::RequestKind values carried by the "execute" span's kind attribute.
KIND_DISTANCE = 1

# Next to each replayed request the benchmark runs RequestDispatcher::
# Execute on it. A distance request then hits the cache the replay has just
# filled, so Execute repeats only the cache lookup and the encode; the
# benchmark times those two once more right after Execute ("execute_repeat"),
# and Execute minus that is the dispatcher's own time. Path and one-to-many
# requests repeat the whole query, whose run-to-run jitter would swamp that
# time, so they are left out of the estimate.


class Span:
    __slots__ = ("rid", "id", "parent", "name", "start", "end", "attrs")

    def __init__(self, fields):
        self.rid = int(fields[1])
        self.id = int(fields[2])
        self.parent = int(fields[3])
        self.name = fields[4]
        self.start = int(fields[5])
        self.end = int(fields[6])
        self.attrs = {}
        for kv in fields[7:]:
            k, _, v = kv.partition("=")
            self.attrs[k] = float(v)

    @property
    def us(self):
        return (self.end - self.start) / 1e3


def read(path):
    """Returns (spans, values) of one span file."""
    spans, values = [], {}
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "S":
                spans.append(Span(fields))
            elif fields[0] == "M":
                values[fields[1]] = float(fields[2])
    return spans, values


def self_times(spans):
    """Span id -> self time in µs: duration minus the union of its
    children's intervals."""
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start - covered) / 1e3
    return out


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer_metrics(spans, values):
    """Returns {metric: (value, sample count)} for every name in UNITS."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name):
        return [s.us for s in by_name.get(name, ())]

    def span_metric(name):
        d = durations(name)
        return mean(d), len(d)

    m = {}
    for name in ("hierarchy.build_s", "hierarchy.k", "hierarchy.core_vertices",
                 "hierarchy.core_edges", "labeling.build_s", "labeling.entries",
                 "labeling.bytes", "storage.save_s", "storage.load_s",
                 "pool.engines_created", "cache.evictions",
                 "cache.gen_invalidations", "tcp.bytes_in_per_req",
                 "tcp.bytes_out_per_req", "updates.core_vertices",
                 "updates.core_edges", "loadgen.cpu_us_per_req"):
        m[name] = (values.get(name, 0.0), 1)

    kernel = by_name.get("kernel", [])
    n = len(kernel)
    label = [s.attrs.get("label_us", 0.0) for s in kernel]
    search = [s.attrs.get("search_us", 0.0) for s in kernel]
    m["kernel.label_us"] = (mean(label), n)
    m["kernel.search_us"] = (mean(search), n)
    total = sum(label) + sum(search)
    m["kernel.search_share"] = (sum(search) / total if total else 0.0, n)
    m["kernel.settled"] = (mean([s.attrs.get("settled", 0.0) for s in kernel]), n)
    m["kernel.relaxed"] = (mean([s.attrs.get("relaxed", 0.0) for s in kernel]), n)
    for t in (1, 2, 3):
        hits = sum(1 for s in kernel if s.attrs.get("type") == t)
        m["kernel.type%d_share" % t] = (hits / n if n else 0.0, n)
    m["kernel.path_us"] = span_metric("kernel_path")
    m["kernel.one_us"] = span_metric("kernel_one")
    m["pool.wait_us"] = span_metric("pool_wait")
    m["cache.lookup_us"] = span_metric("cache_lookup")
    lookups = by_name.get("cache_lookup", [])
    m["cache.hit_ratio"] = (mean([s.attrs.get("hit", 0.0) for s in lookups]),
                            len(lookups))
    m["protocol.parse_us"] = span_metric("parse")
    m["protocol.encode_us"] = span_metric("encode")
    m["updates.insert_us"] = span_metric("insert")

    # Dispatcher: its own time from distance requests; the Execute cost of
    # the replayed stream is then the replayed layers (parse excluded:
    # Execute takes a parsed request) plus that.
    repeat = {s.rid: s.us for s in by_name.get("execute_repeat", ())}
    self_us = [s.us - repeat[s.rid] for s in by_name.get("execute", ())
               if s.attrs.get("kind") == KIND_DISTANCE and s.rid in repeat]
    m["dispatcher.self_us"] = (mean(self_us), len(self_us))
    layers = {}
    for s in spans:
        if s.parent and s.name != "parse":
            layers[s.rid] = layers.get(s.rid, 0.0) + s.us
    execute_us = [layers.get(s.rid, 0.0) + m["dispatcher.self_us"][0]
                  for s in by_name.get("execute", ())]
    m["dispatcher.execute_us"] = (mean(execute_us), len(execute_us))

    # Front end: with `depth` requests in flight per connection, a
    # connection completes one request every round trip / depth (Little's
    # law); what of that the dispatcher does not spend is the front end's.
    wire = durations("wire")
    depth = values.get("depth", 1.0)
    m["frontend.wire_us"] = (mean(wire) / depth - m["dispatcher.execute_us"][0],
                             len(wire))
    plain = values.get("untraced.wall_us_per_req", 0.0)
    traced = values.get("traced.wall_us_per_req", 0.0)
    m["trace.overhead_pct"] = ((traced / plain - 1) * 100 if plain else 0.0,
                               len(wire))
    return m


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans, values = read(argv[1])
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    print("%-14s %9s %12s %12s %12s" % ("span", "n", "mean_us", "p50_us",
                                        "self_us"))
    for name in sorted(by_name):
        group = by_name[name]
        d = [s.us for s in group]
        print("%-14s %9d %12.3f %12.3f %12.3f" % (
            name, len(d), mean(d), statistics.median(d),
            mean([selfs[s.id] for s in group])))
    print()
    print("%-26s %16s %-6s %9s" % ("metric", "value", "unit", "n"))
    for name, (value, n) in per_layer_metrics(spans, values).items():
        print("%-26s %16.6g %-6s %9d" % (name, value, UNITS[name], n))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
