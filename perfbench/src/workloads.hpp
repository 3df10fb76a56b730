// The four workloads.  bulk, small and lossy are closed loops of blocking
// run_collective calls (one caller, one collective in flight); fleet drives
// sched::Scheduler over a seeded multi-tenant job mix.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "hzccl/sched/engine.hpp"

namespace hzbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

/// Minimum timed calls per kernel per run: a p90 needs ten samples beyond it.
inline constexpr size_t kMinSamplesPerKernel = 100;

/// Setups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

struct Shape {
  const char* name;
  Op op;
  hzccl::coll::AllreduceAlgo algo;
};

struct BlockingSpec {
  std::string name;
  int nranks = 4;
  int ranks_per_node = 0;  ///< 0 = flat fabric
  size_t elems = 0;        ///< floats per rank
  DatasetId dataset = DatasetId::kCesmAtm;
  int pool_entries = 1;
  double rel_bound = 1e-3;
  std::vector<Shape> shapes;
  std::vector<Kernel> kernels;
  bool lossy = false;
  /// Passes over the pool in the traced deterministic pass (wire bytes and
  /// per-op counters); lossy takes several, each with fresh fault plans.
  int det_rounds = 1;
  /// Leading rotations of the timed loop whose modeled times feed the
  /// modeled metrics.  Every op's modeled time is a function of its pool
  /// entry and op index alone, so this fixed prefix replays bit-equal; the
  /// loop always runs at least this many rotations.
  size_t modeled_rotations = kMinSamplesPerKernel;
};

BlockingSpec blocking_spec(const std::string& workload);

/// The JobConfig one op of `spec` runs with.  `op_index` seeds the lossy
/// workload's per-op FaultPlan; `faults` off gives the same op on a clean
/// fabric.
hzccl::JobConfig job_config(const BlockingSpec& spec, const OpInputs& in, const Shape& shape,
                            uint64_t seed, uint64_t op_index, bool faults = true);

/// Generate the input pool (kSetupRepeats times, keeping the last) and warm
/// every kernel x shape once; records the setup_s samples.
std::vector<OpInputs> setup_blocking(const BlockingSpec& spec, uint64_t seed, Record& record);

/// Run one op and check its output.  Returns the call's wall seconds, or a
/// negative value (and records the failure) when it throws, does not
/// complete or leaves the envelope.
double run_checked(const BlockingSpec& spec, const OpInputs& in, const Shape& shape, Kernel kernel,
                   const hzccl::JobConfig& config, Record& record, hzccl::JobResult* out);

/// The deterministic pass: every pool entry x shape x kernel, det_rounds
/// times, traced, feeding wire bytes, per-op counters and modeled buckets.
/// It runs twice, and a value that differs between the two is a failure.
void deterministic_pass(const BlockingSpec& spec, const std::vector<OpInputs>& pool,
                        uint64_t seed, Record& record);

/// Run every op shape once through sched::Engine and require the same bytes
/// as run_collective (outside any timed region).
void engine_identity_check(const BlockingSpec& spec, const std::vector<OpInputs>& pool,
                           uint64_t seed, Record& record);

void run_blocking(const BlockingSpec& spec, const Args& args, Record& record);
void trace_blocking(const BlockingSpec& spec, const Args& args, Record& record);

/// The fleet partition shape (64 ranks, 8 per node, ring allreduce) that
/// the fleet workload times one job at a time and the traced run breaks
/// into layers.
BlockingSpec fleet_solo_spec();

void run_fleet(const Args& args, Record& record);
void trace_fleet(const Args& args, Record& record);

}  // namespace hzbench
