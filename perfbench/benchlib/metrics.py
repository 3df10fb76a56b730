"""Metric catalogue and the derivation of every metric from hzbench's raw
record (samples, values, spans).

END_TO_END metrics come from the timed run (--trace 0), PER_LAYER metrics
from the separate traced run (--trace 1).  BENCHMARK.json lists the same
names, units and directions; tests/test_benchlib.py keeps the two in step.
"""
from collections import defaultdict

from . import spans as spanlib
from . import stats

KERNELS = ("hzccl", "ccoll", "mpi")

# name -> (unit, better)
END_TO_END = {}
for _k in KERNELS:
    END_TO_END["%s_ms_p50" % _k] = ("ms", "lower")
    END_TO_END["%s_ms_p90" % _k] = ("ms", "lower")
END_TO_END.update({
    "hzccl_modeled_us": ("us", "lower"),
    "ccoll_modeled_us": ("us", "lower"),
    "wire_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
})

# Metrics that are exact functions of the seed: any change is a behaviour
# change, never noise.  Checked bit-equal across runs of one build.
DETERMINISTIC_E2E = (
    "hzccl_modeled_us",
    "ccoll_modeled_us",
    "wire_ratio",
)

# The Scheduler's own metrics, printed by the fleet workload only.  fleet is
# not in BENCHMARK.json (its wall time is not steady run to run), so these
# are not END_TO_END metrics and no other workload reports them.
FLEET = {
    "fleet_wall_s": ("s", "lower"),
    "fleet_makespan_modeled_ms": ("ms", "lower"),
    "job_modeled_us_p50": ("us", "lower"),
    "job_modeled_us_p90": ("us", "lower"),
}

PER_LAYER = {
    "core.facade_ms": ("ms", "lower"),
    "simmpi.spawn_ms": ("ms", "lower"),
    "simmpi.rtt_us": ("us", "lower"),
    "simmpi.stream_gbps": ("GB/s", "higher"),
    "simmpi.frame_gbps": ("GB/s", "higher"),
    "util.crc32c_gbps": ("GB/s", "higher"),
    "simmpi.frames_per_op": ("count", "lower"),
    "simmpi.wire_bytes_per_op": ("B", "lower"),
    "simmpi.faults_per_op": ("count", "lower"),
    "simmpi.retransmits_per_op": ("count", "lower"),
    "simmpi.shrinks_per_op": ("count", "lower"),
    "util.pool_allocs_per_op": ("count", "lower"),
}
for _w in range(1, 8):
    PER_LAYER["kernels.pack_gbps.w%d" % _w] = ("GB/s", "higher")
    PER_LAYER["kernels.unpack_gbps.w%d" % _w] = ("GB/s", "higher")
PER_LAYER.update({
    "compressor.compress_gbps": ("GB/s", "higher"),
    "compressor.decompress_gbps": ("GB/s", "higher"),
    "compressor.ratio": ("ratio", "higher"),
    "homomorphic.hz_add_gbps": ("GB/s", "higher"),
    "homomorphic.p4_share": ("ratio", "lower"),
    "homomorphic.hz_adds_per_op": ("count", "lower"),
    "homomorphic.doc_add_gbps": ("GB/s", "higher"),
    "integrity.verify_gbps": ("GB/s", "higher"),
    "integrity.emit_overhead": ("ratio", "lower"),
    "integrity.digests_per_op": ("count", "lower"),
    "integrity.mismatches_per_op": ("count", "lower"),
    "integrity.recoveries_per_op": ("count", "lower"),
})
for _k in KERNELS:
    PER_LAYER["collectives.body_ms.%s" % _k] = ("ms", "lower")
PER_LAYER.update({
    "collectives.unattributed_frac": ("ratio", "lower"),
    "sched.run_s": ("s", "lower"),
    "sched.submit_s": ("s", "lower"),
    "sched.events_per_s": ("1/s", "higher"),
    "sched.fused_share": ("ratio", "higher"),
    "sched.queue_wait_us_p90": ("us", "lower"),
    "cluster.select_ms": ("ms", "lower"),
    "cluster.roundsim_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
})
for _b in ("mpi", "cpr", "dpr", "cpt", "hpr", "other"):
    PER_LAYER["modeled.%s_us" % _b] = ("us", "lower")

# Per-layer values hzbench computes itself (counts and exact ratios).
DIRECT_VALUES = (
    "simmpi.frames_per_op", "simmpi.wire_bytes_per_op", "simmpi.faults_per_op",
    "simmpi.retransmits_per_op", "simmpi.shrinks_per_op", "util.pool_allocs_per_op",
    "compressor.ratio", "homomorphic.p4_share", "homomorphic.hz_adds_per_op",
    "integrity.digests_per_op", "integrity.mismatches_per_op", "integrity.recoveries_per_op",
    "cluster.roundsim_ratio", "modeled.mpi_us", "modeled.cpr_us", "modeled.dpr_us",
    "modeled.cpt_us", "modeled.hpr_us", "modeled.other_us",
)


class MissingData(Exception):
    pass


def _samples(raw, name):
    values = raw["samples"].get(name)
    if not values:
        raise MissingData("no samples of %s" % name)
    return values


def _by_class(raw, prefix):
    """Sample lists named "<prefix>@<class>", in name order."""
    groups = [v for k, v in sorted(raw["samples"].items()) if k.startswith(prefix + "@") and v]
    if not groups:
        raise MissingData("no samples of %s@*" % prefix)
    return groups


def _class_percentiles(groups):
    """(p50, p90) as the mean over classes of each class's percentile, so a
    mixture of op shapes or job classes does not jump between its modes."""
    p50 = sum(stats.median(v) for v in groups) / len(groups)
    p90 = sum(stats.nearest_rank(v, 90.0) for v in groups) / len(groups)
    return p50, p90


def _timing(raw, kernel):
    """(p50, p90, n, highest valid percentile) of a kernel's call times,
    from samples kept per op shape ("<kernel>_ms@<shape>")."""
    shapes = _by_class(raw, "%s_ms" % kernel)
    p50, p90 = _class_percentiles(shapes)
    n = min(len(v) for v in shapes)
    return p50, p90, sum(len(v) for v in shapes), stats.highest_percentile(n)


def end_to_end(raw):
    """{name: value} of every END_TO_END metric, plus notes for the report."""
    out = {}
    notes = []
    for k in KERNELS:
        p50, p90, n, q = _timing(raw, k)
        out["%s_ms_p50" % k] = p50
        out["%s_ms_p90" % k] = p90
        notes.append("%s_ms: n=%d p50=%.4f p90=%.4f (highest percentile with >=10 beyond, "
                     "per shape: %s)"
                     % (k, n, p50, p90, "p%g" % q if q else "none"))
    out["hzccl_modeled_us"] = stats.interquartile_mean(_samples(raw, "modeled_us.hzccl"))
    out["ccoll_modeled_us"] = stats.interquartile_mean(_samples(raw, "modeled_us.ccoll"))
    out["wire_ratio"] = raw["values"]["wire_ratio"]
    out["setup_s"] = stats.median(_samples(raw, "setup_s"))
    out["peak_rss_mb"] = raw["values"]["peak_rss_mb"]
    notes.append("setup_s: n=%d" % len(_samples(raw, "setup_s")))
    return out, notes


def fleet(raw):
    """{name: value} of every FLEET metric, plus notes for the report."""
    jobs = _by_class(raw, "job_modeled_us")
    p50, p90 = _class_percentiles(jobs)
    wall = _samples(raw, "fleet_wall_s")
    out = {
        "fleet_wall_s": stats.median(wall),
        "fleet_makespan_modeled_ms": raw["values"]["fleet_makespan_modeled_ms"],
        "job_modeled_us_p50": p50,
        "job_modeled_us_p90": p90,
    }
    notes = ["fleet_wall_s: n=%d  job_modeled_us: n=%d"
             % (len(wall), sum(len(v) for v in jobs))]
    return out, notes


def _rate(sp, name):
    """GB/s of all spans called `name`: bytes over summed self time (ns)."""
    num = sum(s.bytes for s in sp if s.name == name)
    den = sum(t for s, t in sp.selfs if s.name == name)
    return num / den if den else 0.0


class _Spans(list):
    """Spans with their self times attached."""

    def __init__(self, rows):
        super().__init__(spanlib.load(rows))
        self.selfs = list(zip(self, spanlib.self_times(self)))

    def durations(self, name):
        return [s.end - s.start for s in self if s.name == name]


def _per_op_body(spans):
    """{op: [max rank body ns of each simmpi.run]} and the kernel of each op."""
    runs = defaultdict(list)
    kernel = {}
    by_parent = defaultdict(list)
    for s in spans:
        if s.name.startswith("collectives.body."):
            by_parent[s.parent].append(s.end - s.start)
            kernel[s.op] = s.name.rsplit(".", 1)[1]
    for i, s in enumerate(spans):
        if s.name == "simmpi.run" and by_parent.get(i):
            runs[s.op].append(max(by_parent[i]))
    return runs, kernel


def per_layer(raw):
    """{name: value} of every PER_LAYER metric, plus layer self times."""
    sp = _Spans(raw["spans"])
    values = raw["values"]
    out = {name: values.get(name, 0.0) for name in DIRECT_VALUES}

    def med(name):
        d = sp.durations(name)
        return stats.median(d) if d else 0.0

    bodies, kernel = _per_op_body(sp)
    facade = []
    for op, runs in bodies.items():
        calls = [s.end - s.start for s in sp if s.name == "core.run_collective" and s.op == op]
        if calls:
            facade.append(stats.median(calls) - stats.median(runs))
    out["core.facade_ms"] = (sum(facade) / len(facade)) * 1e-6 if facade else 0.0
    out["simmpi.spawn_ms"] = med("simmpi.spawn") * 1e-6
    out["simmpi.rtt_us"] = med("simmpi.rtt") * 1e-3
    out["simmpi.stream_gbps"] = _rate(sp, "simmpi.stream")
    out["simmpi.frame_gbps"] = _rate(sp, "simmpi.frame_codec")
    out["util.crc32c_gbps"] = _rate(sp, "util.crc32c")
    for w in range(1, 8):
        out["kernels.pack_gbps.w%d" % w] = _rate(sp, "kernels.pack.w%d" % w)
        out["kernels.unpack_gbps.w%d" % w] = _rate(sp, "kernels.unpack.w%d" % w)
    out["compressor.compress_gbps"] = _rate(sp, "compressor.fz_compress")
    out["compressor.decompress_gbps"] = _rate(sp, "compressor.fz_decompress")
    out["homomorphic.hz_add_gbps"] = _rate(sp, "homomorphic.hz_add")
    out["homomorphic.doc_add_gbps"] = _rate(sp, "homomorphic.doc_add")
    out["integrity.verify_gbps"] = _rate(sp, "integrity.fz_verify_digests")
    plain = sum(sp.durations("compressor.fz_compress.plain"))
    digests = sum(sp.durations("compressor.fz_compress.digests"))
    out["integrity.emit_overhead"] = digests / plain - 1.0 if plain else 0.0

    for k in KERNELS:
        per_op = [stats.median(r) for op, r in bodies.items() if kernel.get(op) == k]
        out["collectives.body_ms.%s" % k] = (sum(per_op) / len(per_op)) * 1e-6 if per_op else 0.0
    out["collectives.unattributed_frac"] = unattributed_frac(sp, bodies)

    run_s = raw["samples"].get("sched.run_s", [])
    out["sched.run_s"] = stats.median(run_s) if run_s else 0.0
    submit_s = raw["samples"].get("sched.submit_s", [])
    out["sched.submit_s"] = stats.median(submit_s) if submit_s else 0.0
    out["sched.events_per_s"] = (values.get("sched.trace_events", 0.0) / out["sched.run_s"]
                                 if out["sched.run_s"] else 0.0)
    out["sched.fused_share"] = values.get("sched.fused_share", 0.0)
    waits = raw["samples"].get("queue_wait_us", [])
    out["sched.queue_wait_us_p90"] = stats.nearest_rank(waits, 90.0) if waits else 0.0
    out["cluster.select_ms"] = med("cluster.choose_allreduce_algo") * 1e-6
    traced, plain_calls = [], []
    for op in bodies:
        t = [s.end - s.start for s in sp if s.name == "core.run_collective.traced" and s.op == op]
        p = [s.end - s.start for s in sp if s.name == "core.run_collective" and s.op == op]
        if t and p:
            traced.append(stats.median(t))
            plain_calls.append(stats.median(p))
    out["trace.overhead_frac"] = sum(traced) / sum(plain_calls) - 1.0 if plain_calls else 0.0
    return out, spanlib.layer_self_ns(sp)


def unattributed_frac(sp, bodies):
    """1 - (replayed layer time of the busiest rank / measured body time),
    summed over the op shapes that have a replay."""
    replay_roots = {i: s.op for i, s in enumerate(sp) if s.name == "bench.replay"}
    per_rank = defaultdict(lambda: defaultdict(int))
    for s in sp:
        if s.parent in replay_roots and s.rank >= 0:
            per_rank[s.op][s.rank] += s.end - s.start
    replayed = body = 0.0
    for op, ranks in per_rank.items():
        if bodies.get(op):
            replayed += max(ranks.values())
            body += stats.median(bodies[op])
    return 1.0 - replayed / body if body else 0.0
