// bulk, small and lossy: closed loops of blocking run_collective calls.
#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <map>

#include "hzccl/trace/trace.hpp"
#include "workloads.hpp"

namespace hzbench {

using hzccl::JobConfig;
using hzccl::JobResult;
using hzccl::coll::AllreduceAlgo;

BlockingSpec blocking_spec(const std::string& workload) {
  BlockingSpec s;
  s.name = workload;
  s.kernels = {Kernel::kMpi, Kernel::kCCollSingleThread, Kernel::kHzcclSingleThread};
  if (workload == "bulk") {
    // 4 entries x 4 ranks x 8 MiB = 128 MiB of rank inputs, larger than the
    // 105 MiB last-level cache of the reference host.
    s.elems = size_t{8} << 18;
    s.dataset = DatasetId::kCesmAtm;
    s.pool_entries = 4;
    s.shapes = {{"ar_ring", Op::kAllreduce, AllreduceAlgo::kRing}};
  } else if (workload == "small") {
    s.ranks_per_node = 2;
    s.elems = size_t{64} << 8;  // 64 KiB per rank
    s.dataset = DatasetId::kRtmSim1;
    s.pool_entries = 16;
    s.modeled_rotations = 160;
    s.shapes = {{"ar_ring", Op::kAllreduce, AllreduceAlgo::kRing},
                {"ar_rd", Op::kAllreduce, AllreduceAlgo::kRecursiveDoubling},
                {"ar_2level", Op::kAllreduce, AllreduceAlgo::kTwoLevel},
                {"ar_auto", Op::kAllreduce, AllreduceAlgo::kAuto},
                {"rs_ring", Op::kReduceScatter, AllreduceAlgo::kRing}};
  } else if (workload == "lossy") {
    // 4 MiB per rank: at 1 MiB the compressed ops took about 4 ms, and
    // host interference moved their p90 by up to 40% between runs.
    s.elems = size_t{1} << 20;
    s.dataset = DatasetId::kHurricane;
    s.pool_entries = 8;
    s.shapes = {{"ar_ring", Op::kAllreduce, AllreduceAlgo::kRing}};
    s.lossy = true;
    s.det_rounds = 2;
    s.modeled_rotations = 200;
  } else {
    throw hzccl::Error("hzbench: unknown blocking workload '" + workload + "'");
  }
  return s;
}

namespace {

/// Seeded per-op fault plan of the lossy workload: link faults at about 2%
/// (drop, corrupt, reorder, duplicate) and 1% (stall, mangle, sdc), plus a
/// rank crash on one op in eight.
hzccl::simmpi::FaultPlan lossy_plan(uint64_t seed, uint64_t op_index, int nranks) {
  hzccl::simmpi::FaultPlan p;
  p.seed = mix(seed, 0x10557, op_index);
  p.drop = 0.02;
  p.corrupt = 0.02;
  p.reorder = 0.02;
  p.duplicate = 0.02;
  p.stall = 0.01;
  p.mangle = 0.01;
  p.sdc = 0.01;
  if (op_index % 8 == 5) {
    hzccl::simmpi::RankFault crash;
    crash.kind = hzccl::simmpi::RankFaultKind::kCrash;
    crash.rank = static_cast<int>(mix(seed, 0xC4A5, op_index) % static_cast<uint64_t>(nranks));
    crash.after_ops = 1 + mix(seed, 0xAF7, op_index) % 6;
    p.rank_faults.push_back(crash);
  }
  return p;
}

}  // namespace

JobConfig job_config(const BlockingSpec& spec, const OpInputs& in, const Shape& shape,
                     uint64_t seed, uint64_t op_index, bool faults) {
  JobConfig c;
  c.nranks = spec.nranks;
  c.abs_error_bound = in.abs_error_bound;
  c.host_threads = 1;
  c.algo = shape.algo;
  if (spec.ranks_per_node > 0) {
    c.net = hzccl::simmpi::NetModel::omnipath_100g_nodes(spec.ranks_per_node);
  }
  if (spec.lossy) {
    c.verify = hzccl::coll::VerifyPolicy::kPerRound;
    c.retry.max_attempts = 2;
    if (faults) c.faults = lossy_plan(seed, op_index, spec.nranks);
  }
  return c;
}

namespace {

std::string op_label(const BlockingSpec& spec, const Shape& shape, Kernel kernel) {
  return spec.name + "/" + shape.name + "/" + kernel_slug(kernel);
}

/// Wall seconds of one run_collective call, or a negative value when the
/// call threw (recorded as a failure).
double timed_call(Kernel kernel, const Shape& shape, const JobConfig& config, const OpInputs& in,
                  JobResult& result, std::string& error) {
  const hzccl::RankInputFn fn = in.fn();
  const int64_t t0 = now_ns();
  try {
    result = hzccl::run_collective(kernel, shape.op, config, fn);
  } catch (const std::exception& e) {
    error = e.what();
    return -1.0;
  }
  return seconds_since(t0);
}

/// Output check of a completed op against the exact reduction over the
/// group it completed with.  An op that took a degraded round is held to
/// the library's degraded envelope; when it needed more than n * eb, that
/// is counted (degraded_beyond_eb_ops) and reported, not hidden.
std::string check_result(const OpInputs& in, const Shape& shape, Kernel kernel,
                         const JobConfig& config, const JobResult& r, Record& record) {
  const size_t group = r.final_group.empty() ? in.ranks.size() : r.final_group.size();
  // Survivor references are built per op and dropped, so that the
  // benchmark's own memory does not depend on which crashes a seed draws.
  std::vector<float> survivors;
  if (group != in.ranks.size()) survivors = hzccl::exact_reduction(r.final_group, in.fn());
  const std::vector<float>& exact = survivors.empty() ? in.exact : survivors;
  size_t offset = 0;
  if (shape.op == Op::kReduceScatter) {
    const hzccl::Range owned = rs_rank0_range(in.exact.size(), static_cast<int>(group));
    offset = owned.begin;
    if (r.rank0_output.size() != owned.size()) return "reduce-scatter block has the wrong size";
  } else if (r.rank0_output.size() != in.exact.size()) {
    return "allreduce output has the wrong size";
  }
  std::string error = check_output(kernel, r.rank0_output, exact, offset, group,
                                   config.abs_error_bound, in.max_sum_abs);
  const bool degraded = r.transport.raw_fallbacks > 0 || r.integrity.raw_fallbacks > 0;
  if (!error.empty() && degraded &&
      check_output(kernel, r.rank0_output, exact, offset, group, config.abs_error_bound,
                   in.max_sum_abs, kDegradedEnvelope)
          .empty()) {
    record.values["degraded_beyond_eb_ops"] += 1.0;
    return {};
  }
  return error;
}

}  // namespace

double run_checked(const BlockingSpec& spec, const OpInputs& in, const Shape& shape, Kernel kernel,
                   const JobConfig& config, Record& record, JobResult* out) {
  JobResult r;
  std::string error;
  ++record.attempted;
  const double seconds = timed_call(kernel, shape, config, in, r, error);
  if (seconds >= 0.0) error = check_result(in, shape, kernel, config, r, record);
  if (!error.empty()) {
    record.fail(op_label(spec, shape, kernel) + ": " + error);
    return -1.0;
  }
  if (out) *out = std::move(r);
  return seconds;
}

std::vector<OpInputs> setup_blocking(const BlockingSpec& spec, uint64_t seed, Record& record) {
  std::vector<OpInputs> pool;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = now_ns();
    pool.clear();
    pool.shrink_to_fit();
    for (int e = 0; e < spec.pool_entries; ++e) {
      // RTM windows of 64 KiB vary too much with structure for seeds to be
      // comparable, so their structure is fixed per entry; the other fields'
      // statistics barely move with it, so the seed picks them.
      const uint64_t entry = static_cast<uint64_t>(e);
      const uint64_t structure = has_texture(spec.dataset) ? mix(0x5EED, entry) : mix(seed, entry);
      pool.push_back(make_inputs(spec.dataset, spec.elems, spec.nranks, structure,
                                 mix(seed, entry, 7), spec.rel_bound));
    }
    // Warm-up: every kernel x shape once, so lazy set-up (dispatch tables,
    // first-touch pages, the main thread's pool) is paid here.
    for (const Shape& shape : spec.shapes) {
      for (const Kernel k : spec.kernels) {
        JobResult r;
        std::string error;
        const JobConfig c = job_config(spec, pool[0], shape, seed, 0);
        if (timed_call(k, shape, c, pool[0], r, error) < 0.0) {
          throw hzccl::Error("warm-up " + op_label(spec, shape, k) + " failed: " + error);
        }
      }
    }
    record.sample("setup_s", seconds_since(t0));
  }
  return pool;
}

namespace {

using Values = std::map<std::string, double>;

/// One traced pass over every pool entry x shape x kernel; returns the
/// deterministic values it measured.
Values pass_values(const BlockingSpec& spec, const std::vector<OpInputs>& pool, uint64_t seed,
                   Record& record) {
  Values out;
  uint64_t ops = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t faults = 0;
  uint64_t retransmits = 0;
  uint64_t shrinks = 0;
  uint64_t digests = 0;
  uint64_t mismatches = 0;
  uint64_t recoveries = 0;
  uint64_t hz_ops = 0;
  uint64_t hz_adds = 0;
  uint64_t compressed_in = 0;
  uint64_t compressed_wire = 0;
  hzccl::HzPipelineStats pipeline;
  std::array<double, hzccl::simmpi::kNumBuckets> buckets{};
  uint64_t op_index = 0;
  for (size_t i = 0; i < pool.size() * static_cast<size_t>(spec.det_rounds); ++i) {
    const size_t e = i % pool.size();
    for (const Shape& shape : spec.shapes) {
      for (const Kernel k : spec.kernels) {
        JobConfig c = job_config(spec, pool[e], shape, seed, op_index++);
        c.trace.enabled = true;
        JobResult r;
        if (run_checked(spec, pool[e], shape, k, c, record, &r) < 0.0) continue;
        if (r.trace.dropped_events != 0) record.fail("trace ring overflowed");
        uint64_t sent = 0;
        uint64_t homreduce = 0;
        for (const std::vector<hzccl::trace::Event>& rank : r.trace.ranks) {
          for (const hzccl::trace::Event& ev : rank) {
            if (ev.kind == hzccl::trace::EventKind::kSend) sent += ev.bytes;
            if (ev.kind == hzccl::trace::EventKind::kHomReduce) ++homreduce;
          }
        }
        ++ops;
        frames += r.transport.frames_sent;
        wire_bytes += sent;
        faults += r.transport.faults_injected;
        retransmits += r.transport.retransmits;
        shrinks += static_cast<uint64_t>(r.attempts - 1);
        digests += r.integrity.digests_checked;
        mismatches += r.integrity.mismatches;
        recoveries += r.integrity.retransmit_recoveries + r.integrity.recomputes +
                      r.integrity.raw_fallbacks;
        if (hzccl::kernel_uses_compression(k)) {
          compressed_in += static_cast<uint64_t>(spec.nranks) * r.input_bytes_per_rank;
          compressed_wire += sent;
        }
        if (k == Kernel::kHzcclSingleThread) {
          ++hz_ops;
          hz_adds += homreduce;
          pipeline += r.pipeline_stats;
          for (int b = 0; b < hzccl::simmpi::kNumBuckets; ++b) {
            buckets[static_cast<size_t>(b)] += r.slowest.bucket_seconds[static_cast<size_t>(b)];
          }
        }
      }
    }
  }
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  const double nh = static_cast<double>(std::max<uint64_t>(hz_ops, 1));
  out["det_ops"] = static_cast<double>(ops);
  out["wire_ratio"] = compressed_wire ? static_cast<double>(compressed_in) /
                                            static_cast<double>(compressed_wire)
                                      : 0.0;
  out["simmpi.frames_per_op"] = static_cast<double>(frames) / n;
  out["simmpi.wire_bytes_per_op"] = static_cast<double>(wire_bytes) / n;
  out["simmpi.faults_per_op"] = static_cast<double>(faults) / n;
  out["simmpi.retransmits_per_op"] = static_cast<double>(retransmits) / n;
  out["simmpi.shrinks_per_op"] = static_cast<double>(shrinks) / n;
  out["integrity.digests_per_op"] = static_cast<double>(digests) / n;
  out["integrity.mismatches_per_op"] = static_cast<double>(mismatches) / n;
  out["integrity.recoveries_per_op"] = static_cast<double>(recoveries) / n;
  out["homomorphic.hz_adds_per_op"] = static_cast<double>(hz_adds) / nh;
  out["homomorphic.p4_share"] = pipeline.blocks() ? static_cast<double>(pipeline.p4) /
                                                      static_cast<double>(pipeline.blocks())
                                                : 0.0;
  // Fig. 2 buckets of the hZCCL ops, mean over the pass.
  for (int b = 0; b < hzccl::simmpi::kNumBuckets; ++b) {
    const auto bucket = static_cast<hzccl::simmpi::CostBucket>(b);
    std::string slug;
    for (const char ch : hzccl::simmpi::bucket_name(bucket)) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    out["modeled." + slug + "_us"] = buckets[static_cast<size_t>(b)] / nh * 1e6;
  }
  return out;
}

/// Same bits, so NaN == NaN and -0 != +0.
bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// FNV-1a over an op's output bytes.
uint64_t output_hash(const std::vector<float>& v) {
  uint64_t h = 0xCBF29CE484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(float); ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

}  // namespace

void deterministic_pass(const BlockingSpec& spec, const std::vector<OpInputs>& pool,
                        uint64_t seed, Record& record) {
  const Values first = pass_values(spec, pool, seed, record);
  const Values again = pass_values(spec, pool, seed, record);
  ++record.attempted;
  for (const auto& [name, value] : first) {
    if (!bit_equal(value, again.at(name))) {
      record.fail("not deterministic: " + name + " " + std::to_string(value) + " then " +
                  std::to_string(again.at(name)));
    }
    record.set(name, value, true);
  }
}

void engine_identity_check(const BlockingSpec& spec, const std::vector<OpInputs>& pool,
                           uint64_t seed, Record& record) {
  // The engine models a clean transport, so the lossy workload compares its
  // shape on a clean fabric (verification still on).
  const OpInputs& in = pool[0];
  for (const Shape& shape : spec.shapes) {
    for (const Kernel k : spec.kernels) {
      const JobConfig c = job_config(spec, in, shape, seed, 0, /*faults=*/false);
      JobResult blocking;
      if (run_checked(spec, in, shape, k, c, record, &blocking) < 0.0) continue;
      ++record.attempted;
      try {
        hzccl::sched::EngineConfig ec;
        ec.fleet_ranks = spec.nranks;
        ec.net = c.net;
        ec.seed = seed;
        hzccl::sched::Engine engine(ec);
        const hzccl::sched::Request req =
            engine.submit(k,
                          shape.op == Op::kAllreduce ? hzccl::sched::ICollOp::kAllreduce
                                                     : hzccl::sched::ICollOp::kReduceScatter,
                          c, in.fn());
        engine.run();
        const hzccl::sched::JobOutcome& out = engine.outcome(req);
        const bool same = out.completed &&
                          out.rank0_output.size() == blocking.rank0_output.size() &&
                          std::memcmp(out.rank0_output.data(), blocking.rank0_output.data(),
                                      blocking.rank0_output.size() * sizeof(float)) == 0;
        if (!same) {
          record.fail(op_label(spec, shape, k) + ": engine output differs from run_collective" +
                      (out.completed ? "" : " (" + out.error + ")"));
        }
      } catch (const std::exception& e) {
        record.fail(op_label(spec, shape, k) + ": engine threw: " + e.what());
      }
    }
  }
}

void run_blocking(const BlockingSpec& spec, const Args& args, Record& record) {
  const std::vector<OpInputs> pool = setup_blocking(spec, args.seed, record);
  deterministic_pass(spec, pool, args.seed, record);

  // The first pass over the pool is run again after the loop: its modeled
  // times and output bytes must replay bit-equal.
  struct Replayed {
    size_t entry;
    const Shape* shape;
    Kernel kernel;
    uint64_t op_index;
    double modeled;
    uint64_t hash;
  };
  std::vector<Replayed> replay;

  uint64_t op_index = static_cast<uint64_t>(pool.size() * spec.shapes.size() * spec.kernels.size() *
                                            static_cast<size_t>(spec.det_rounds));
  std::map<Kernel, size_t> counts;
  const int64_t start = now_ns();
  const double cap = std::max(2.0 * args.seconds, args.seconds + 30.0);
  for (size_t round = 0;; ++round) {
    const size_t entry = round % pool.size();
    const OpInputs& in = pool[entry];
    for (const Shape& shape : spec.shapes) {
      for (const Kernel k : spec.kernels) {
        const JobConfig c = job_config(spec, in, shape, args.seed, op_index);
        JobResult r;
        const double dt = run_checked(spec, in, shape, k, c, record, &r);
        if (dt >= 0.0) {
          record.sample(std::string(kernel_slug(k)) + "_ms@" + shape.name, dt * 1e3);
          ++counts[k];
          if (round < spec.modeled_rotations) {
            record.sample(std::string("modeled_us.") + kernel_slug(k),
                          r.slowest.total_seconds * 1e6);
          }
          if (round < pool.size()) {
            replay.push_back({entry, &shape, k, op_index, r.slowest.total_seconds,
                              output_hash(r.rank0_output)});
          }
        }
        ++op_index;
      }
    }
    const double elapsed = seconds_since(start);
    const bool enough = std::all_of(spec.kernels.begin(), spec.kernels.end(), [&](Kernel k) {
      return counts[k] >= kMinSamplesPerKernel;
    });
    if ((elapsed >= args.seconds && enough && round + 1 >= spec.modeled_rotations) ||
        elapsed >= cap) {
      break;
    }
  }

  for (const Replayed& op : replay) {
    const JobConfig c = job_config(spec, pool[op.entry], *op.shape, args.seed, op.op_index);
    JobResult r;
    if (run_checked(spec, pool[op.entry], *op.shape, op.kernel, c, record, &r) < 0.0) continue;
    if (!bit_equal(r.slowest.total_seconds, op.modeled) || output_hash(r.rank0_output) != op.hash) {
      ++record.attempted;
      record.fail(op_label(spec, *op.shape, op.kernel) + " op " + std::to_string(op.op_index) +
                  ": not deterministic (modeled time or output bytes differ on replay)");
    }
  }

  engine_identity_check(spec, pool, args.seed, record);
}

}  // namespace hzbench
