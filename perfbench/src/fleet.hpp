// The fleet workload's job mix, its output checks and the one-job-at-a-time
// engine calls; shared by the timed and the traced run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hzccl/sched/scheduler.hpp"
#include "workloads.hpp"

namespace hzbench {

/// Distinct rank inputs per fleet job: rank r contributes member r % 8 of a
/// correlated set, so a 256-rank job needs 8 vectors, not 256.
inline constexpr int kMembers = 8;

struct JobInputs {
  std::vector<std::vector<float>> members;
  std::vector<float> exact;  ///< double-exact reduction over all the job's ranks
  double max_sum_abs = 0.0;
  int nranks = 0;

  hzccl::RankInputFn fn() const {
    return [this](int r) { return members[static_cast<size_t>(r % kMembers)]; };
  }
};

struct FleetJob {
  const char* cls = "";  ///< job class: grad, bucket, rd, 2level or rs
  std::string tenant;
  Kernel kernel = Kernel::kHzcclSingleThread;
  hzccl::sched::ICollOp op = hzccl::sched::ICollOp::kAllreduce;
  hzccl::coll::AllreduceAlgo algo = hzccl::coll::AllreduceAlgo::kRing;
  int first_rank = 0;
  int nranks = 0;
  double enqueue_vtime = 0.0;
  hzccl::coll::VerifyPolicy verify = hzccl::coll::VerifyPolicy::kOff;
  double abs_error_bound = 0.0;
  std::shared_ptr<JobInputs> inputs;
};

struct FleetMix {
  std::vector<FleetJob> jobs;
};

/// 9 waves x 12 jobs from 3 tenants: two hZCCL ring gradient allreduces on
/// 64-rank partitions (datasets rotate), four fusable 8 KiB buckets, four
/// MPI rd latency jobs, one hZCCL 2level job over four partitions and one
/// C-Coll reduce-scatter; one compressed job in four verifies per round.
FleetMix make_fleet_mix(uint64_t seed);

std::unique_ptr<hzccl::sched::Scheduler> submit_fleet(const FleetMix& mix, uint64_t seed,
                                                      bool trace);

/// Per-run outcome of the mix: deterministic for a seed.
struct FleetCheck {
  std::vector<double> job_modeled_us;
  std::vector<const char*> job_class;  ///< FleetJob::cls of each job_modeled_us entry
  std::vector<double> queue_wait_us;
  double makespan = 0.0;
  uint64_t fused = 0;
  uint64_t engine_jobs = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t faults = 0;
  uint64_t retransmits = 0;
  uint64_t shrinks = 0;
  uint64_t digests = 0;
  uint64_t mismatches = 0;
  uint64_t recoveries = 0;
  uint64_t compressed_in = 0;
  uint64_t compressed_wire = 0;
  uint64_t hz_jobs = 0;
  hzccl::HzPipelineStats pipeline;
};

/// Check every job's output against its exact reduction (n * eb envelope)
/// and collect the outcome.
FleetCheck check_fleet(const FleetMix& mix, const hzccl::sched::Scheduler& s, Record& record);
void record_fleet_check(const FleetCheck& c, Record& record);
bool same_fleet_outcome(const FleetCheck& a, const FleetCheck& b);

struct SoloResult {
  double seconds = 0.0;
  double modeled_us = 0.0;
  std::string error;  ///< empty when the output passed its check
};

/// One allreduce of `kernel` alone on a fresh fleet engine, timed from
/// engine construction to completion.
SoloResult solo_call(const BlockingSpec& spec, const OpInputs& in, Kernel kernel, uint64_t seed);

struct FleetSetup {
  FleetMix mix;
  std::vector<OpInputs> solo;
};

FleetSetup setup_fleet(uint64_t seed, Record& record);

}  // namespace hzbench
