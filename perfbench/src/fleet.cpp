// fleet: sched::Scheduler over a 512-rank engine fleet (64 nodes x 8 ranks),
// a seeded multi-tenant job mix arriving in staggered virtual-time waves.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "fleet.hpp"
#include "hzccl/sched/scheduler.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"

namespace hzbench {

using hzccl::JobConfig;
using hzccl::coll::AllreduceAlgo;
using hzccl::coll::VerifyPolicy;
using hzccl::sched::ICollOp;

namespace {

constexpr int kRanksPerNode = 8;
constexpr int kFleetRanks = 64 * kRanksPerNode;
constexpr int kPartition = 64;
constexpr int kPartitions = kFleetRanks / kPartition;
constexpr int kWaves = 9;
constexpr double kWaveGap = 400e-6;
constexpr int kSoloEntries = 8;  ///< input sets of the one-job-at-a-time calls

hzccl::simmpi::NetModel fleet_net() {
  return hzccl::simmpi::NetModel::omnipath_100g_nodes(kRanksPerNode);
}

std::shared_ptr<JobInputs> job_inputs(DatasetId id, size_t elems, int nranks, uint64_t structure,
                                      uint64_t texture) {
  const OpInputs members = make_inputs(id, elems, kMembers, structure, texture, 1e-3);
  auto in = std::make_shared<JobInputs>();
  in->members = members.ranks;
  in->nranks = nranks;
  in->exact = hzccl::exact_reduction(nranks, in->fn());
  in->max_sum_abs = members.max_sum_abs * static_cast<double>(nranks / kMembers);
  return in;
}

}  // namespace

FleetMix make_fleet_mix(uint64_t seed) {
  FleetMix out;
  const std::span<const DatasetId> datasets = hzccl::all_datasets();
  uint64_t serial = 0;
  auto add = [&](const char* cls, const char* tenant, Kernel kernel, ICollOp op, AllreduceAlgo algo,
                 int first_rank, int nranks, DatasetId id, size_t elems, double t,
                 VerifyPolicy verify, std::shared_ptr<JobInputs> in, double abs_bound) {
    FleetJob j;
    j.cls = cls;
    j.tenant = tenant;
    j.kernel = kernel;
    j.op = op;
    j.algo = algo;
    j.first_rank = first_rank;
    j.nranks = nranks;
    j.enqueue_vtime = t;
    j.verify = verify;
    j.inputs = in ? std::move(in)
                  : job_inputs(id, elems, nranks, mix(0xF1EE7, serial), mix(seed, 0xF1EE7, serial));
    j.abs_error_bound = abs_bound > 0.0
                            ? abs_bound
                            : hzccl::abs_bound_from_rel(j.inputs->members[0], 1e-3);
    ++serial;
    out.jobs.push_back(std::move(j));
  };

  for (int w = 0; w < kWaves; ++w) {
    // A fixed stagger within each wave: the seed changes the data, not the
    // arrival pattern, so every seed queues and contends alike.
    const double t = w * kWaveGap + static_cast<double>(mix(0x7A7E, w) % 20) * 1e-6;
    const auto quarter = [&](int k) {
      return (k % 4) == 0 ? VerifyPolicy::kPerRound : VerifyPolicy::kOff;
    };
    // Two gradient allreduces per wave on 64-rank partitions (12 KiB per
    // rank, each alone under its fuse key); datasets rotate.
    for (int i = 0; i < 2; ++i) {
      const int p = (2 * w + i) % kPartitions;
      add("grad", p < kPartitions / 2 ? "train-a" : "train-b", Kernel::kHzcclSingleThread,
          ICollOp::kAllreduce, AllreduceAlgo::kRing, p * kPartition, kPartition,
          datasets[static_cast<size_t>(2 * w + i) % datasets.size()], 3072, t + i * 1e-6,
          quarter(2 * w + i), nullptr, 0.0);
    }
    // Small gradient buckets (8 KiB per rank) that arrive inside one fusion
    // window with one fuse key, so the scheduler concatenates them.
    {
      const int part = w % 4;
      const auto first = job_inputs(DatasetId::kRtmSim2, 2048, kPartition, mix(0xB0C, w),
                                    mix(seed, 0xB0C, w));
      const double bound = hzccl::abs_bound_from_rel(first->members[0], 1e-3);
      for (int i = 0; i < 4; ++i) {
        add("bucket", "train-a", Kernel::kHzcclSingleThread, ICollOp::kAllreduce,
            AllreduceAlgo::kRing, part * kPartition, kPartition, DatasetId::kRtmSim2, 2048,
            t + 10e-6 * (i + 1),
            quarter(w), i == 0 ? first : nullptr, bound);
      }
    }
    // Latency-bound MPI recursive-doubling jobs straddling two partitions.
    for (int i = 0; i < 4; ++i) {
      const int p = (4 * w + i) % (kPartitions - 1);
      add("rd", "infer", Kernel::kMpi, ICollOp::kAllreduce, AllreduceAlgo::kRecursiveDoubling,
          p * kPartition + kPartition / 2, kPartition, DatasetId::kNyx, 256, t + 5e-6 * i,
          VerifyPolicy::kOff, nullptr, 0.0);
    }
    // A hierarchical hZCCL job spanning four partitions.
    add("2level", "train-b", Kernel::kHzcclSingleThread, ICollOp::kAllreduce,
        AllreduceAlgo::kTwoLevel,
        (w % 2) * 4 * kPartition, 4 * kPartition, DatasetId::kHurricane, 2048, t + 20e-6,
        quarter(w + 3), nullptr, 0.0);
    // A C-Coll reduce-scatter.
    add("rs", "infer", Kernel::kCCollSingleThread, ICollOp::kReduceScatter, AllreduceAlgo::kRing,
        ((w + 3) % kPartitions) * kPartition, kPartition, DatasetId::kCesmAtm, 4096, t + 30e-6,
        quarter(w + 2), nullptr, 0.0);
  }
  return out;
}

namespace {

hzccl::sched::SchedulerConfig scheduler_config(uint64_t seed, bool trace) {
  hzccl::sched::SchedulerConfig sc;
  sc.engine.fleet_ranks = kFleetRanks;
  sc.engine.net = fleet_net();
  sc.engine.seed = seed;
  sc.engine.trace.enabled = trace;
  sc.fusion = true;
  return sc;
}

JobConfig fleet_job_config(const FleetJob& j) {
  JobConfig c;
  c.nranks = j.nranks;
  c.net = fleet_net();
  c.abs_error_bound = j.abs_error_bound;
  c.algo = j.algo;
  c.verify = j.verify;
  return c;
}

}  // namespace

std::unique_ptr<hzccl::sched::Scheduler> submit_fleet(const FleetMix& mix, uint64_t seed,
                                                      bool trace) {
  auto s = std::make_unique<hzccl::sched::Scheduler>(scheduler_config(seed, trace));
  for (const FleetJob& j : mix.jobs) {
    hzccl::sched::TenantJobSpec spec;
    spec.tenant = j.tenant;
    spec.kernel = j.kernel;
    spec.op = j.op;
    spec.config = fleet_job_config(j);
    spec.input = j.inputs->fn();
    spec.first_rank = j.first_rank;
    spec.enqueue_vtime = j.enqueue_vtime;
    s->submit(std::move(spec));
  }
  return s;
}

FleetCheck check_fleet(const FleetMix& mix, const hzccl::sched::Scheduler& s, Record& record) {
  FleetCheck c;
  const std::vector<hzccl::sched::TenantJobResult>& results = s.results();
  std::map<int, size_t> engine_job_spec;  // engine job -> a member's spec index
  for (size_t i = 0; i < mix.jobs.size(); ++i) {
    const FleetJob& j = mix.jobs[i];
    const hzccl::sched::TenantJobResult& r = results[i];
    ++record.attempted;
    if (!r.completed) {
      record.fail("fleet job " + std::to_string(i) + " did not complete: " + r.error);
      continue;
    }
    size_t offset = 0;
    if (j.op == ICollOp::kReduceScatter) {
      offset = rs_rank0_range(j.inputs->exact.size(), j.nranks).begin;
    }
    const std::string error =
        check_output(j.kernel, r.rank0_output, j.inputs->exact, offset,
                     static_cast<size_t>(j.nranks), j.abs_error_bound, j.inputs->max_sum_abs);
    if (!error.empty()) {
      record.fail("fleet job " + std::to_string(i) + ": " + error);
      continue;
    }
    c.job_modeled_us.push_back((r.complete_vtime - r.enqueue_vtime) * 1e6);
    c.job_class.push_back(j.cls);
    c.queue_wait_us.push_back((r.grant_vtime - r.enqueue_vtime) * 1e6);
    if (r.fused) ++c.fused;
    engine_job_spec.emplace(r.engine_job, i);
  }
  for (const auto& [job, index] : engine_job_spec) {
    const FleetJob& j = mix.jobs[index];
    const hzccl::sched::JobOutcome& out = s.engine().outcome(hzccl::sched::Request{job});
    ++c.engine_jobs;
    c.frames += out.transport.frames_sent;
    c.wire_bytes += out.payload_bytes_sent;
    c.faults += out.transport.faults_injected;
    c.retransmits += out.transport.retransmits;
    c.shrinks += static_cast<uint64_t>(std::max(out.attempts - 1, 0));
    c.digests += out.integrity.digests_checked;
    c.mismatches += out.integrity.mismatches;
    c.recoveries += out.integrity.retransmit_recoveries + out.integrity.recomputes +
                    out.integrity.raw_fallbacks;
    if (hzccl::kernel_uses_compression(j.kernel)) {
      c.compressed_in += static_cast<uint64_t>(j.nranks) * out.input_bytes_per_rank;
      c.compressed_wire += out.payload_bytes_sent;
    }
    if (j.kernel == Kernel::kHzcclSingleThread) {
      ++c.hz_jobs;
      c.pipeline += out.pipeline_stats;
    }
  }
  c.makespan = s.makespan();
  return c;
}

void record_fleet_check(const FleetCheck& c, Record& record) {
  for (size_t i = 0; i < c.job_modeled_us.size(); ++i) {
    record.sample(std::string("job_modeled_us@") + c.job_class[i], c.job_modeled_us[i]);
  }
  for (const double v : c.queue_wait_us) record.sample("queue_wait_us", v);
  record.set("fleet_makespan_modeled_ms", c.makespan * 1e3, true);
  record.set("fleet_jobs", static_cast<double>(c.job_modeled_us.size()), true);
  record.set("sched.fused_share",
             c.job_modeled_us.empty() ? 0.0
                                      : static_cast<double>(c.fused) /
                                            static_cast<double>(c.job_modeled_us.size()),
             true);
  const double n = static_cast<double>(std::max<uint64_t>(c.engine_jobs, 1));
  record.set("wire_ratio", c.compressed_wire ? static_cast<double>(c.compressed_in) /
                                                   static_cast<double>(c.compressed_wire)
                                             : 0.0,
             true);
  record.set("simmpi.frames_per_op", static_cast<double>(c.frames) / n, true);
  record.set("simmpi.wire_bytes_per_op", static_cast<double>(c.wire_bytes) / n, true);
  record.set("simmpi.faults_per_op", static_cast<double>(c.faults) / n, true);
  record.set("simmpi.retransmits_per_op", static_cast<double>(c.retransmits) / n, true);
  record.set("simmpi.shrinks_per_op", static_cast<double>(c.shrinks) / n, true);
  record.set("integrity.digests_per_op", static_cast<double>(c.digests) / n, true);
  record.set("integrity.mismatches_per_op", static_cast<double>(c.mismatches) / n, true);
  record.set("integrity.recoveries_per_op", static_cast<double>(c.recoveries) / n, true);
  record.set("homomorphic.p4_share",
             c.pipeline.blocks() ? static_cast<double>(c.pipeline.p4) /
                                       static_cast<double>(c.pipeline.blocks())
                                 : 0.0,
             true);
}

bool same_fleet_outcome(const FleetCheck& a, const FleetCheck& b) {
  return a.makespan == b.makespan && a.job_modeled_us == b.job_modeled_us &&
         a.wire_bytes == b.wire_bytes && a.frames == b.frames;
}

BlockingSpec fleet_solo_spec() {
  BlockingSpec s;
  s.name = "fleet";
  s.nranks = kPartition;
  s.ranks_per_node = kRanksPerNode;
  s.elems = 8192;  // 32 KiB per rank
  s.dataset = DatasetId::kCesmAtm;
  s.pool_entries = kSoloEntries;
  s.shapes = {{"ar_ring", Op::kAllreduce, AllreduceAlgo::kRing}};
  s.kernels = {Kernel::kMpi, Kernel::kCCollSingleThread, Kernel::kHzcclSingleThread};
  return s;
}

SoloResult solo_call(const BlockingSpec& spec, const OpInputs& in, Kernel kernel, uint64_t seed) {
  SoloResult res;
  hzccl::sched::EngineConfig ec;
  ec.fleet_ranks = kFleetRanks;
  ec.net = fleet_net();
  ec.seed = seed;
  JobConfig c;
  c.nranks = spec.nranks;
  c.net = ec.net;
  c.abs_error_bound = in.abs_error_bound;
  const hzccl::RankInputFn fn = in.fn();
  const int64_t t0 = now_ns();
  hzccl::sched::Engine engine(ec);
  const hzccl::sched::Request req = engine.iallreduce(kernel, c, fn);
  engine.run();
  res.seconds = seconds_since(t0);
  const hzccl::sched::JobOutcome& out = engine.outcome(req);
  res.modeled_us = (out.complete_vtime - out.enqueue_vtime) * 1e6;
  if (!out.completed) {
    res.error = "solo " + std::string(kernel_slug(kernel)) + " did not complete: " + out.error;
  } else {
    res.error = check_output(kernel, out.rank0_output, in.exact, 0,
                             static_cast<size_t>(spec.nranks), in.abs_error_bound,
                             in.max_sum_abs);
  }
  return res;
}

FleetSetup setup_fleet(uint64_t seed, Record& record) {
  FleetSetup setup;
  const BlockingSpec solo = fleet_solo_spec();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = now_ns();
    setup.mix = make_fleet_mix(seed);
    setup.solo.clear();
    for (int e = 0; e < solo.pool_entries; ++e) {
      setup.solo.push_back(make_inputs(solo.dataset, solo.elems, solo.nranks,
                                       mix(seed, 0x5010, static_cast<uint64_t>(e)),
                                       mix(seed, 0x5011, static_cast<uint64_t>(e)),
                                       solo.rel_bound));
    }
    for (const Kernel k : solo.kernels) {
      const SoloResult warm = solo_call(solo, setup.solo[0], k, seed);
      if (!warm.error.empty()) throw hzccl::Error("fleet warm-up: " + warm.error);
    }
    record.sample("setup_s", seconds_since(t0));
  }
  return setup;
}

void run_fleet(const Args& args, Record& record) {
  const FleetSetup setup = setup_fleet(args.seed, record);
  const BlockingSpec solo = fleet_solo_spec();

  // Deterministic modeled times of the one-job-at-a-time calls; the timed
  // calls below must reproduce them bit for bit.
  std::map<std::pair<size_t, Kernel>, double> modeled;
  for (size_t e = 0; e < setup.solo.size(); ++e) {
    for (const Kernel k : solo.kernels) {
      ++record.attempted;
      const SoloResult r = solo_call(solo, setup.solo[e], k, args.seed);
      if (!r.error.empty()) {
        record.fail(r.error);
        continue;
      }
      record.sample(std::string("modeled_us.") + kernel_slug(k), r.modeled_us);
      modeled[{e, k}] = r.modeled_us;
    }
  }

  // The reference outcome every timed Scheduler run must match.
  FleetCheck first;
  {
    std::unique_ptr<hzccl::sched::Scheduler> s = submit_fleet(setup.mix, args.seed, false);
    s->run();
    first = check_fleet(setup.mix, *s, record);
  }

  // Closed loop, one caller: Scheduler::run over the whole mix, then solo
  // calls (one per kernel, rotating over the inputs) for about as long,
  // until the window closes and every kernel has its minimum sample count.
  std::map<Kernel, size_t> counts;
  const int64_t start = now_ns();
  const double cap = std::max(2.0 * args.seconds, args.seconds + 30.0);
  const auto done = [&] {
    const double elapsed = seconds_since(start);
    const bool enough = std::all_of(solo.kernels.begin(), solo.kernels.end(),
                                    [&](Kernel k) { return counts[k] >= kMinSamplesPerKernel; });
    return (elapsed >= args.seconds && enough) || elapsed >= cap;
  };
  size_t round = 0;
  while (!done()) {
    std::unique_ptr<hzccl::sched::Scheduler> s = submit_fleet(setup.mix, args.seed, false);
    const int64_t t0 = now_ns();
    try {
      s->run();
      record.sample("fleet_wall_s", seconds_since(t0));
      if (!same_fleet_outcome(first, check_fleet(setup.mix, *s, record))) {
        ++record.attempted;
        record.fail("fleet replay differs between Scheduler runs with the same seed");
      }
    } catch (const std::exception& e) {
      ++record.attempted;
      record.fail(std::string("Scheduler::run threw: ") + e.what());
    }
    const double fleet_s = seconds_since(t0);
    s.reset();

    const int64_t solo_start = now_ns();
    do {
      const size_t entry = round++ % setup.solo.size();
      for (const Kernel k : solo.kernels) {
        ++record.attempted;
        SoloResult r;
        try {
          r = solo_call(solo, setup.solo[entry], k, args.seed);
        } catch (const std::exception& e) {
          r.error = std::string("solo call threw: ") + e.what();
        }
        if (r.error.empty() && modeled.count({entry, k}) && r.modeled_us != modeled[{entry, k}]) {
          r.error = "solo " + std::string(kernel_slug(k)) + " modeled time differs on replay";
        }
        if (!r.error.empty()) {
          record.fail(r.error);
          continue;
        }
        record.sample(std::string(kernel_slug(k)) + "_ms@" + solo.shapes[0].name, r.seconds * 1e3);
        ++counts[k];
      }
    } while (seconds_since(solo_start) < fleet_s && !done());
  }
  record_fleet_check(first, record);
}

}  // namespace hzbench
