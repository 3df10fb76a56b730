// Topology tier: the node/socket hierarchy model and the algorithm zoo it
// unlocks.
//
// What the tier guarantees:
//   1. Model: the flat (default) topology reproduces the homogeneous α–β
//      model exactly; grouped topologies give co-located ranks the fast
//      congestion-free channel and key fabric congestion on inter-node
//      flows, not global rank count.
//   2. Exactness: compressed recursive doubling and Rabenseifner are
//      bit-identical to the flat compressed ring for the same error bound —
//      they reorder homomorphic adds of exactly-summing quantized streams —
//      across every paper dataset, including non-power-of-two rank counts
//      and ranks-per-node remainders.
//   3. Two-level: the hierarchical schedule re-quantizes node sums, so it
//      is differential (within the accumulated bound) against the flat
//      ring, never bitwise.
//   4. Selection: kAuto resolves to the argmin of the selector's own
//      prediction table, threads through run_collective (JobResult::algo,
//      trace marker), and never picks something the model scores worse
//      than the worst static choice.
//   5. Resilience: the new schedules recover from seeded rank failures
//      (shrink+retry, bitwise vs a clean survivor run) and replay
//      deterministically under chaos link faults.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "hzccl/cluster/autotune.hpp"
#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/collectives/algorithms.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

using simmpi::FaultPlan;
using simmpi::NetModel;
using simmpi::RetryPolicy;
using simmpi::Topology;

RankInputFn field_inputs(size_t elements, DatasetId id = DatasetId::kHurricane) {
  return [elements, id](int rank) {
    std::vector<float> full = generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank));
    full.resize(elements);
    return full;
  };
}

JobConfig grouped_config(int nodes, int rpn, coll::AllreduceAlgo algo, size_t elements,
                         DatasetId id = DatasetId::kHurricane) {
  JobConfig config;
  config.nranks = nodes * rpn;
  config.net = NetModel::omnipath_100g_nodes(rpn);
  config.algo = algo;
  config.abs_error_bound = abs_bound_from_rel(field_inputs(elements, id)(0), 1e-3);
  return config;
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0) << label;
}

// ---------------------------------------------------------------------------
// 1. Topology / NetModel
// ---------------------------------------------------------------------------

TEST(Topology, FlatIsTheDefaultAndOneRankPerNode) {
  for (const Topology topo : {Topology{}, Topology{1}}) {
    EXPECT_TRUE(topo.flat());
    EXPECT_EQ(topo.node_of(7), 7);
    EXPECT_FALSE(topo.same_node(3, 3 + 1));
    EXPECT_FALSE(topo.same_node(0, 0));  // flat: nothing is co-located
    EXPECT_EQ(topo.num_nodes(13), 13);
  }
}

TEST(Topology, GroupsRanksIntoNodesWithRemainders) {
  const Topology topo{4};
  EXPECT_FALSE(topo.flat());
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_TRUE(topo.same_node(5, 6));
  EXPECT_FALSE(topo.same_node(3, 4));
  EXPECT_EQ(topo.num_nodes(8), 2);
  EXPECT_EQ(topo.num_nodes(9), 3);   // remainder node with one rank
  EXPECT_EQ(topo.num_nodes(11), 3);  // remainder node with three ranks
}

TEST(NetModel, FlatTopologyReproducesTheHomogeneousModel) {
  const NetModel legacy = NetModel::omnipath_100g();
  const NetModel flat = NetModel::omnipath_100g_nodes(1);
  const size_t bytes = size_t{1} << 20;
  for (int n : {2, 8, 64, 512}) {
    EXPECT_DOUBLE_EQ(flat.link_seconds(bytes, 0, 1, n), legacy.transfer_seconds(bytes, n));
    EXPECT_DOUBLE_EQ(flat.link_retransmit_seconds(bytes, 0, 1, n),
                     legacy.retransmit_seconds(bytes, n));
    EXPECT_EQ(flat.congestion_flows(n), n);
  }
  EXPECT_DOUBLE_EQ(flat.link_latency_s(0, 1), legacy.latency_s);
}

TEST(NetModel, IntraNodeLinksAreFastAndCongestionFree) {
  const NetModel net = NetModel::omnipath_100g_nodes(8);
  const size_t bytes = size_t{1} << 20;
  const int nranks = 4096;
  // Ranks 0 and 1 share node 0; ranks 7 and 8 straddle the node boundary.
  EXPECT_TRUE(net.topo.same_node(0, 1));
  EXPECT_FALSE(net.topo.same_node(7, 8));
  EXPECT_LT(net.link_latency_s(0, 1), net.link_latency_s(7, 8));
  EXPECT_LT(net.link_seconds(bytes, 0, 1, nranks), net.link_seconds(bytes, 7, 8, nranks));
  // The intra-node channel ignores job scale entirely.
  EXPECT_DOUBLE_EQ(net.link_seconds(bytes, 0, 1, 16), net.link_seconds(bytes, 0, 1, nranks));
}

TEST(NetModel, CongestionKeysOnInterNodeFlows) {
  const NetModel net = NetModel::omnipath_100g_nodes(8);
  EXPECT_EQ(net.congestion_flows(4096), 512);
  // 4096 ranks on 512 nodes congest like 512 flat ranks, not 4096.
  const NetModel flat = NetModel::omnipath_100g();
  EXPECT_DOUBLE_EQ(net.effective_bytes_per_s(net.congestion_flows(4096)),
                   flat.effective_bytes_per_s(512));
  // Per-flow bandwidth saturates monotonically with the flow count.
  EXPECT_GT(net.effective_bytes_per_s(2), net.effective_bytes_per_s(64));
  EXPECT_GT(net.effective_bytes_per_s(64), net.effective_bytes_per_s(512));
}

// ---------------------------------------------------------------------------
// 2. Bit-identity of the latency-optimal compressed schedules
// ---------------------------------------------------------------------------

class AlgoIdentityTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(AlgoIdentityTest, CompressedRdAndRabMatchRingBitwise) {
  const DatasetId id = GetParam();
  const size_t elements = 4096;
  for (int nranks : {8, 6, 5}) {  // pow2, even non-pow2, odd non-pow2
    JobConfig config;
    config.nranks = nranks;
    config.abs_error_bound = abs_bound_from_rel(field_inputs(elements, id)(0), 1e-3);
    config.algo = coll::AllreduceAlgo::kRing;
    const JobResult ring =
        run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements, id));
    for (const auto algo :
         {coll::AllreduceAlgo::kRecursiveDoubling, coll::AllreduceAlgo::kRabenseifner}) {
      config.algo = algo;
      const JobResult r = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                         field_inputs(elements, id));
      expect_bitwise_equal(r.rank0_output, ring.rank0_output, coll::allreduce_algo_name(algo));
      EXPECT_EQ(r.algo, algo);
    }
  }
}

TEST_P(AlgoIdentityTest, TwoLevelStaysWithinTheAccumulatedBound) {
  const DatasetId id = GetParam();
  const size_t elements = 4096;
  // 2x4 exact fill plus a 3-ranks-per-node remainder topology (8 = 3+3+2).
  for (int rpn : {4, 3}) {
    JobConfig config = grouped_config((8 + rpn - 1) / rpn, rpn, coll::AllreduceAlgo::kTwoLevel,
                                      elements, id);
    config.nranks = 8;
    const JobResult two = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                         field_inputs(elements, id));
    config.algo = coll::AllreduceAlgo::kRing;
    const JobResult ring = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                          field_inputs(elements, id));
    ASSERT_EQ(two.rank0_output.size(), ring.rank0_output.size());
    // Each path is within nranks*eb of the exact sum (ring: one quantization
    // error per contribution; two-level: intra float sum + requantization),
    // so they sit within 2*nranks*eb of each other.
    const double bound = config.abs_error_bound * config.nranks * 2.0;
    for (size_t i = 0; i < two.rank0_output.size(); ++i) {
      ASSERT_NEAR(two.rank0_output[i], ring.rank0_output[i], bound) << "rpn=" << rpn << " i=" << i;
    }
    EXPECT_EQ(two.algo, coll::AllreduceAlgo::kTwoLevel);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, AlgoIdentityTest, ::testing::ValuesIn([] {
                           return std::vector<DatasetId>(all_datasets().begin(),
                                                         all_datasets().end());
                         }()),
                         [](const auto& case_info) { return dataset_slug(case_info.param); });

TEST(Algos, UncompressedVariantsAgreeWithinFloatAssociativity) {
  // The raw (kMpi) dispatch reassociates float adds, so exactness is only
  // up to accumulation order; the elementwise error of a handful of
  // contributions stays tiny.
  const size_t elements = 2048;
  JobConfig config = grouped_config(2, 3, coll::AllreduceAlgo::kRing, elements);
  const JobResult ring = run_collective(Kernel::kMpi, Op::kAllreduce, config, field_inputs(elements));
  for (const auto algo : {coll::AllreduceAlgo::kRecursiveDoubling,
                          coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kTwoLevel}) {
    config.algo = algo;
    const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, field_inputs(elements));
    ASSERT_EQ(r.rank0_output.size(), ring.rank0_output.size());
    for (size_t i = 0; i < r.rank0_output.size(); ++i) {
      const float scale = std::max(1.0f, std::fabs(ring.rank0_output[i]));
      ASSERT_NEAR(r.rank0_output[i], ring.rank0_output[i], 1e-4f * scale)
          << coll::allreduce_algo_name(algo) << " i=" << i;
    }
    EXPECT_EQ(r.algo, algo);
  }
}

// ---------------------------------------------------------------------------
// 3. Selection
// ---------------------------------------------------------------------------

TEST(Selector, ChoosesTheArgminOfItsOwnPredictions) {
  const std::vector<float> sample = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  JobConfig config;
  config.nranks = 4096;
  config.net = NetModel::omnipath_100g_nodes(8);
  config.abs_error_bound = abs_bound_from_rel(sample, 1e-3);
  for (const size_t bytes : {size_t{256} << 10, size_t{64} << 20}) {
    const AlgoSelection sel =
        choose_allreduce_algo(sample, Kernel::kHzcclMultiThread, bytes, config);
    EXPECT_NE(sel.algo, coll::AllreduceAlgo::kAuto);
    const double chosen = sel.predicted_seconds[static_cast<size_t>(sel.algo)];
    EXPECT_GT(chosen, 0.0);
    for (size_t a = 1; a < coll::kNumAllreduceAlgos; ++a) {
      EXPECT_GE(sel.predicted_seconds[a], chosen) << sel.summary();
    }
    EXPECT_FALSE(sel.summary().empty());
  }
}

TEST(Selector, LatencyRegimeAtScaleDropsTheRing) {
  // 512 nodes x 8 ranks/node, 256 KB/rank: the flat ring pays ~2*4096 alpha
  // steps; every latency-optimal schedule is an order of magnitude cheaper.
  const std::vector<float> sample = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  JobConfig config;
  config.nranks = 4096;
  config.net = NetModel::omnipath_100g_nodes(8);
  config.abs_error_bound = abs_bound_from_rel(sample, 1e-3);
  const AlgoSelection sel =
      choose_allreduce_algo(sample, Kernel::kHzcclMultiThread, size_t{256} << 10, config);
  EXPECT_NE(sel.algo, coll::AllreduceAlgo::kRing) << sel.summary();
  EXPECT_LT(sel.predicted_seconds[static_cast<size_t>(sel.algo)],
            sel.predicted_seconds[static_cast<size_t>(coll::AllreduceAlgo::kRing)]);
}

TEST(Selector, AutoThreadsThroughRunCollectiveAndTraces) {
  const size_t elements = size_t{1} << 14;
  JobConfig config = grouped_config(2, 4, coll::AllreduceAlgo::kAuto, elements);
  config.trace.enabled = true;
  const JobResult r =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements));
  EXPECT_NE(r.algo, coll::AllreduceAlgo::kAuto);
  // A non-ring schedule stamps one marker event per rank (aux =
  // kAuxAlgoBase + algo); ring jobs stay marker-free so pinned golden
  // traces replay byte-identically.
  size_t markers = 0;
  for (const auto& events : r.trace.ranks) {
    for (const trace::Event& e : events) {
      if (e.aux >= trace::kAuxAlgoBase) {
        ++markers;
        EXPECT_EQ(e.aux, trace::kAuxAlgoBase + static_cast<int>(r.algo));
      }
    }
  }
  if (r.algo == coll::AllreduceAlgo::kRing) {
    EXPECT_EQ(markers, 0u);
  } else {
    EXPECT_EQ(markers, static_cast<size_t>(config.nranks));
  }
}

TEST(Selector, RejectsDegenerateJobs) {
  const std::vector<float> sample = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  JobConfig config;
  config.nranks = 1;
  EXPECT_THROW(choose_allreduce_algo(sample, Kernel::kHzcclMultiThread, 1 << 20, config), Error);
  // An empty sample is only meaningful for the uncompressed kernel.
  config.nranks = 16;
  EXPECT_THROW(choose_allreduce_algo({}, Kernel::kHzcclMultiThread, 1 << 20, config), Error);
  EXPECT_NO_THROW(choose_allreduce_algo({}, Kernel::kMpi, 1 << 20, config));
}

TEST(Selector, ModelNeverScoresAutoOrTwoLevelOnFlatSingles) {
  // model_allreduce_algo guards its inputs: kAuto is a caller bug, and the
  // two-level schedule on a flat topology degenerates to the plain ring.
  const auto fields = generate_fields(DatasetId::kHurricane, Scale::kTiny, 2);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  const auto profile = cluster::CompressionProfile::measure(fields, params, 8);
  const auto net = NetModel::omnipath_100g();
  const auto cost = simmpi::CostModel::paper_broadwell();
  EXPECT_THROW(cluster::model_allreduce_algo(Kernel::kHzcclMultiThread,
                                             coll::AllreduceAlgo::kAuto, 8, 1 << 20, profile,
                                             net, cost),
               Error);
  const double ring = cluster::model_allreduce_algo(Kernel::kHzcclMultiThread,
                                                    coll::AllreduceAlgo::kRing, 8, 1 << 20,
                                                    profile, net, cost)
                          .seconds;
  const double two = cluster::model_allreduce_algo(Kernel::kHzcclMultiThread,
                                                   coll::AllreduceAlgo::kTwoLevel, 8, 1 << 20,
                                                   profile, net, cost)
                         .seconds;
  EXPECT_DOUBLE_EQ(two, ring);
}

// ---------------------------------------------------------------------------
// 4. Faults on the new paths
// ---------------------------------------------------------------------------

FaultPlan rank_crash(uint64_t seed, const std::string& schedule) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rank_faults = FaultPlan::parse_rank_faults(schedule);
  return plan;
}

TEST(TopologyFaults, TwoLevelShrinksAndRetriesAcrossARankFailure) {
  // Rank 5 (a non-leader of node 1) crashes mid two-level round; the retry
  // shrinks to 7 ranks and must match a clean run over the survivors
  // bitwise.  Survivors keep their *physical* node placement, so the
  // shrunken grouping is {0,1,2,3}+{4,6,7} — the same 4+3 shape (and the
  // same member order) as a clean 7-rank job whose vrank v maps to
  // survivor input v>=5 ? v+1 : v.
  const size_t elements = 4096;
  JobConfig config = grouped_config(2, 4, coll::AllreduceAlgo::kTwoLevel, elements);
  config.faults = rank_crash(0xBEEF, "crash@rank=5,op=1");
  config.retry.max_attempts = 3;
  const JobResult r =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements));
  EXPECT_EQ(r.algo, coll::AllreduceAlgo::kTwoLevel);

  JobConfig clean = config;
  clean.nranks = 7;
  clean.faults = FaultPlan::none();
  clean.retry = RetryPolicy{};
  const RankInputFn survivors = [&](int vrank) {
    return field_inputs(elements)(vrank >= 5 ? vrank + 1 : vrank);
  };
  const JobResult ref =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, clean, survivors);
  expect_bitwise_equal(r.rank0_output, ref.rank0_output, "two-level shrink+retry");
}

TEST(TopologyFaults, LeaderCrashAlsoRecovers) {
  // Rank 4 leads node 1; killing it exercises leader re-election by
  // renumbering (the shrunken group's topology regroups the survivors).
  const size_t elements = 4096;
  JobConfig config = grouped_config(2, 4, coll::AllreduceAlgo::kTwoLevel, elements);
  config.faults = rank_crash(0xD00D, "crash@rank=4,op=5");
  config.retry.max_attempts = 3;
  const JobResult r =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements));
  JobConfig clean = config;
  clean.nranks = 7;
  clean.faults = FaultPlan::none();
  clean.retry = RetryPolicy{};
  const RankInputFn survivors = [&](int vrank) {
    return field_inputs(elements)(vrank >= 4 ? vrank + 1 : vrank);
  };
  const JobResult ref =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, clean, survivors);
  expect_bitwise_equal(r.rank0_output, ref.rank0_output, "leader shrink+retry");
}

TEST(TopologyFaults, ChaosLinksLeaveResultsAndClocksDeterministic) {
  // CRC-healed link chaos must not change any algorithm's bits, and the
  // whole story must replay exactly from the seed.
  const size_t elements = 4096;
  for (const auto algo : {coll::AllreduceAlgo::kRecursiveDoubling,
                          coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kTwoLevel}) {
    JobConfig config = grouped_config(2, 3, algo, elements);
    config.faults.seed = 0xC0FFEE ^ static_cast<uint64_t>(algo);
    config.faults.drop = 0.05;
    config.faults.corrupt = 0.03;
    config.faults.reorder = 0.1;
    config.faults.duplicate = 0.05;
    config.faults.stall = 0.05;
    const JobResult a =
        run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements));
    const JobResult b =
        run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, field_inputs(elements));
    expect_bitwise_equal(a.rank0_output, b.rank0_output, coll::allreduce_algo_name(algo));
    EXPECT_DOUBLE_EQ(a.slowest.total_seconds, b.slowest.total_seconds);

    JobConfig clean = config;
    clean.faults = FaultPlan::none();
    const JobResult c =
        run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, clean, field_inputs(elements));
    expect_bitwise_equal(a.rank0_output, c.rank0_output, "chaos vs clean");
    EXPECT_GT(a.slowest.total_seconds, c.slowest.total_seconds);  // faults only cost time
  }
}

}  // namespace
}  // namespace hzccl
