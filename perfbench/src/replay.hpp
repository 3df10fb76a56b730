// Layer-by-layer replay of one ring collective.
//
// The replay makes again, on the op's own inputs, every layer call the ring
// schedule makes on every rank: fz compress/decompress of the ring blocks,
// hz_add (or decompress + float combine) along the accumulation chain,
// digest checks, and one Comm send + recv per frame.  Ranks advance in
// lockstep on one thread; each call is a span attributed to the rank that
// makes it, so per-rank replayed time can be set against the rank's
// measured collective-body time.  The replay's call counts and rank 0's
// output bytes must equal the program's own.
#pragma once

#include <vector>

#include "bench.hpp"
#include "hzccl/collectives/common.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"

namespace hzbench {

struct ReplayCounts {
  uint64_t frames = 0;    ///< Comm sends (TransportStats::frames_sent)
  uint64_t hz_adds = 0;   ///< hz_add calls (trace kHomReduce events)
  uint64_t verifies = 0;  ///< digest checks (IntegrityStats::digests_checked)
  hzccl::HzPipelineStats pipeline;  ///< summed over ranks (JobResult::pipeline_stats)
};

struct ReplayResult {
  std::vector<float> rank0_output;
  ReplayCounts counts;
};

/// Replay a ring allreduce or reduce-scatter of `kernel` over all ranks of
/// `in`.  Spans are children of `parent` and carry `op_id`.
ReplayResult replay_ring(Kernel kernel, Op op, const OpInputs& in,
                         const hzccl::coll::CollectiveConfig& config, int op_id, int parent);

}  // namespace hzbench
