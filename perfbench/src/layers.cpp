// The traced run: per-layer numbers measured from outside the library.
//
// For every op shape of the workload it times, in order:
//   core     run_collective, with JobConfig::trace off and on;
//   simmpi   Runtime construct + empty run + destroy (spawn and join);
//   coll     the coll::* body on each rank of a persistent Runtime;
//   replay   the ring schedule's layer calls on the op's own inputs
//            (replay.hpp), whose counts must match the program's counters;
//   sched    the same op through sched::Engine.
// It then times each layer's public entry points on the workload's data
// (frame codec, CRC-32C, Comm round trip and stream, pack/unpack, digest
// verify and emit, doc_add, the algorithm selector).  Every call is one span
// in the span log; run.py derives self times and rates from them.
#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>

#include "fleet.hpp"
#include "hzccl/cluster/autotune.hpp"
#include "hzccl/collectives/algorithms.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/homomorphic/doc.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/pool.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace hzbench {

namespace {

using hzccl::JobConfig;
using hzccl::JobResult;
using hzccl::coll::AllreduceAlgo;
using hzccl::simmpi::Comm;
using hzccl::simmpi::Runtime;
namespace coll = hzccl::coll;

const char* body_span(Kernel k) {
  switch (k) {
    case Kernel::kMpi: return "collectives.body.mpi";
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread: return "collectives.body.ccoll";
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread: return "collectives.body.hzccl";
  }
  return "collectives.body";
}

/// run_collective's dispatch from (kernel, op, algo) to the coll:: body.
void run_body(Comm& comm, Kernel kernel, Op op, AllreduceAlgo algo, std::span<const float> in,
              std::vector<float>& out, const coll::CollectiveConfig& cc) {
  hzccl::HzPipelineStats stats;
  if (op == Op::kReduceScatter) {
    switch (kernel) {
      case Kernel::kMpi: coll::raw_reduce_scatter(comm, in, out, cc); return;
      case Kernel::kCCollMultiThread:
      case Kernel::kCCollSingleThread: coll::ccoll_reduce_scatter(comm, in, out, cc); return;
      case Kernel::kHzcclMultiThread:
      case Kernel::kHzcclSingleThread:
        coll::hzccl_reduce_scatter(comm, in, out, cc, &stats);
        return;
    }
  }
  switch (kernel) {
    case Kernel::kMpi:
      switch (algo) {
        case AllreduceAlgo::kRecursiveDoubling:
          coll::raw_allreduce_recursive_doubling(comm, in, out, cc);
          break;
        case AllreduceAlgo::kRabenseifner:
          coll::raw_allreduce_rabenseifner(comm, in, out, cc);
          break;
        case AllreduceAlgo::kTwoLevel: coll::raw_allreduce_two_level(comm, in, out, cc); break;
        default: coll::raw_allreduce(comm, in, out, cc); break;
      }
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread: coll::ccoll_allreduce(comm, in, out, cc); break;
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread:
      switch (algo) {
        case AllreduceAlgo::kRecursiveDoubling:
          coll::hzccl_allreduce_recursive_doubling(comm, in, out, cc, &stats);
          break;
        case AllreduceAlgo::kRabenseifner:
          coll::hzccl_allreduce_rabenseifner(comm, in, out, cc, &stats);
          break;
        case AllreduceAlgo::kTwoLevel:
          coll::hzccl_allreduce_two_level(comm, in, out, cc, &stats);
          break;
        default: coll::hzccl_allreduce(comm, in, out, cc, &stats); break;
      }
      break;
  }
}

/// kAuto resolution exactly as run_collective performs it, timed as the
/// cluster layer's selector call.
hzccl::AlgoSelection select_algo(Kernel kernel, const OpInputs& in, const JobConfig& config,
                                 int parent, int op) {
  constexpr size_t kProbeElems = size_t{1} << 16;
  std::span<const float> sample(in.ranks[0].data(), std::min(in.ranks[0].size(), kProbeElems));
  if (kernel == Kernel::kMpi) sample = {};
  Scoped s("cluster.choose_allreduce_algo", "cluster", parent, op);
  return hzccl::choose_allreduce_algo(sample, kernel, in.ranks[0].size() * sizeof(float), config);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

uint64_t count_kind(const hzccl::trace::Trace& t, hzccl::trace::EventKind kind) {
  uint64_t n = 0;
  for (const auto& rank : t.ranks) {
    for (const auto& e : rank) n += e.kind == kind ? 1 : 0;
  }
  return n;
}

bool same_stats(const hzccl::HzPipelineStats& a, const hzccl::HzPipelineStats& b) {
  return a.p1 == b.p1 && a.p2 == b.p2 && a.p3 == b.p3 && a.p4 == b.p4 &&
         a.copied_bytes == b.copied_bytes && a.p4_elements == b.p4_elements && a.raw == b.raw;
}

struct Decomposition {
  std::vector<double> roundsim_ratios;
  uint64_t pool_allocs = 0;
  uint64_t pool_ops = 0;
  double sched_run_s = 0.0;
  double sched_submit_s = 0.0;
  uint64_t sched_events = 0;
};

/// Break one op shape x kernel into layers (see the file comment).
void decompose(const BlockingSpec& spec, const OpInputs& in, const Shape& shape, Kernel kernel,
               uint64_t seed, int op, int reps, Record& record, Decomposition& d) {
  const Scoped root("bench.op", "bench", -1, op);
  const JobConfig config = job_config(spec, in, shape, seed, 1);
  const hzccl::RankInputFn fn = in.fn();
  const std::string label = spec.name + "/" + shape.name + "/" + kernel_slug(kernel);

  // The algorithm run_collective will run.
  AllreduceAlgo algo = shape.op == Op::kAllreduce ? shape.algo : AllreduceAlgo::kRing;
  if (algo == AllreduceAlgo::kAuto) algo = select_algo(kernel, in, config, root.id(), op).algo;

  // Program reference on a clean fabric, traced: counters for the replay.
  JobConfig clean = job_config(spec, in, shape, seed, 1, /*faults=*/false);
  clean.trace.enabled = true;
  JobResult ref;
  if (run_checked(spec, in, shape, kernel, clean, record, &ref) < 0.0) return;

  // RoundSim's prediction for the schedule against the functional modeled time.
  if (kernel == Kernel::kHzcclSingleThread && shape.op == Op::kAllreduce &&
      ref.slowest.total_seconds > 0.0) {
    const hzccl::AlgoSelection sel = select_algo(kernel, in, clean, root.id(), op);
    d.roundsim_ratios.push_back(sel.predicted_seconds[static_cast<size_t>(algo)] /
                                ref.slowest.total_seconds);
  }

  // One repetition times, back to back so that host drift hits them alike:
  //   core         run_collective with trace off (and the pool growth it
  //                causes), then with trace on;
  //   simmpi       spawn and join alone;
  //   collectives  the body on each rank of a persistent Runtime.  Rank
  //                faults need run_collective's agreement and retry loop,
  //                so the lossy body runs the op's link faults only.
  hzccl::simmpi::FaultPlan link_faults = config.faults;
  link_faults.rank_faults.clear();
  Runtime persistent(spec.nranks, config.net, link_faults);
  const coll::CollectiveConfig cc = config.collective_config(hzccl::kernel_mode(kernel));
  JobConfig traced = config;
  traced.trace.enabled = true;
  for (int i = 0; i < reps; ++i) {
    const uint64_t a0 = hzccl::pool_heap_allocations();
    {
      Scoped s("core.run_collective", "core", root.id(), op);
      const JobResult r = hzccl::run_collective(kernel, shape.op, config, fn);
      s.set_bytes(r.input_bytes_per_rank * in.ranks.size());
    }
    d.pool_allocs += hzccl::pool_heap_allocations() - a0;
    ++d.pool_ops;
    {
      Scoped s("core.run_collective.traced", "core", root.id(), op);
      const JobResult r = hzccl::run_collective(kernel, shape.op, traced, fn);
      s.set_bytes(r.input_bytes_per_rank * in.ranks.size());
    }
    {
      Scoped s("simmpi.spawn", "simmpi", root.id(), op);
      Runtime rt(spec.nranks, config.net);
      (void)rt.run([](Comm&) {});
    }
    Scoped run("simmpi.run", "simmpi", root.id(), op);
    const int parent = run.id();
    (void)persistent.run([&](Comm& comm) {
      const std::vector<float> input = in.ranks[static_cast<size_t>(comm.phys_rank())];
      std::vector<float> out;
      Scoped body(body_span(kernel), "collectives", parent, op, comm.phys_rank());
      body.set_bytes(input.size() * sizeof(float));
      run_body(comm, kernel, shape.op, algo, input, out, cc);
    });
  }

  // replay: ring schedules only; counts and bytes must match the program.
  if (algo == AllreduceAlgo::kRing) {
    ReplayResult rep;
    {
      Scoped s("bench.replay", "bench", root.id(), op);
      rep = replay_ring(kernel, shape.op, in,
                        clean.collective_config(hzccl::kernel_mode(kernel)), op, s.id());
    }
    const uint64_t hz_adds = count_kind(ref.trace, hzccl::trace::EventKind::kHomReduce);
    ++record.attempted;
    std::string mismatch;
    if (rep.counts.frames != ref.transport.frames_sent) mismatch += " frames";
    if (rep.counts.hz_adds != hz_adds) mismatch += " hz_adds";
    if (rep.counts.verifies != ref.integrity.digests_checked) mismatch += " digests";
    if (!same_stats(rep.counts.pipeline, ref.pipeline_stats)) mismatch += " pipeline";
    if (rep.rank0_output.size() != ref.rank0_output.size() ||
        std::memcmp(rep.rank0_output.data(), ref.rank0_output.data(),
                    ref.rank0_output.size() * sizeof(float)) != 0) {
      mismatch += " output";
    }
    if (!mismatch.empty()) record.fail(label + ": replay differs from the program in" + mismatch);
  }

  // sched: the same op through the engine (which models a clean fabric),
  // untraced then traced.
  JobConfig engine_config = config;
  engine_config.faults = hzccl::simmpi::FaultPlan::none();
  for (const bool with_trace : {false, true}) {
    hzccl::sched::EngineConfig ec;
    ec.fleet_ranks = spec.nranks;
    ec.net = config.net;
    ec.seed = seed;
    ec.trace.enabled = with_trace;
    hzccl::sched::Engine engine(ec);
    const hzccl::sched::ICollOp iop = shape.op == Op::kAllreduce
                                          ? hzccl::sched::ICollOp::kAllreduce
                                          : hzccl::sched::ICollOp::kReduceScatter;
    int64_t t0 = now_ns();
    hzccl::sched::Request req;
    {
      Scoped s("sched.submit", "sched", root.id(), op);
      req = engine.submit(kernel, iop, engine_config, fn);
    }
    const double submit_s = seconds_since(t0);
    t0 = now_ns();
    {
      Scoped s(with_trace ? "sched.run.traced" : "sched.run", "sched", root.id(), op);
      engine.run();
    }
    if (with_trace) {
      d.sched_events += engine.trace().total_events();
    } else {
      d.sched_run_s += seconds_since(t0);
      d.sched_submit_s += submit_s;
    }
    if (!engine.outcome(req).completed) {
      ++record.attempted;
      record.fail(label + ": engine job did not complete");
    }
  }
}

/// Bytes of one MPI ring frame: a ring block of raw floats.
size_t frame_bytes(const BlockingSpec& spec) {
  return coll::ring_block_range(spec.elems, spec.nranks, 0).size() * sizeof(float);
}

/// Enough repetitions of a `bytes`-sized call to move about 16 MiB.
int batch_for(size_t bytes) {
  return static_cast<int>(
      std::clamp<size_t>((size_t{16} << 20) / std::max<size_t>(bytes, 1), 1, size_t{1} << 16));
}

void micro_transport(const BlockingSpec& spec, const OpInputs& in, int op) {
  const Scoped root("bench.micro.simmpi", "bench", -1, op);
  const size_t fb = frame_bytes(spec);
  const std::span<const uint8_t> payload(reinterpret_cast<const uint8_t*>(in.ranks[0].data()), fb);
  Runtime rt(2, hzccl::simmpi::NetModel::omnipath_100g());

  // 256 B round trips, timed on rank 0.
  std::vector<uint8_t> small(256, 0x5A);
  (void)rt.run([&](Comm& comm) {
    for (int i = 0; i < 2000; ++i) {
      if (comm.rank() == 0) {
        Scoped s("simmpi.rtt", "simmpi", root.id(), op, 0);
        comm.send(1, 7, small);
        (void)comm.recv(1, 7);
      } else {
        comm.send(0, 7, comm.recv(0, 7));
      }
    }
  });

  // One-way stream of frame-sized messages, timed on the receiver.
  const int msgs = std::clamp(batch_for(fb), 8, 4096);
  for (int rep = 0; rep < 3; ++rep) {
    (void)rt.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < msgs; ++i) comm.send(1, 9, payload);
      } else {
        Scoped s("simmpi.stream", "simmpi", root.id(), op, 1);
        for (int i = 0; i < msgs; ++i) (void)comm.recv(0, 9);
        s.set_bytes(static_cast<uint64_t>(msgs) * fb);
      }
    });
  }

  // Frame codec and CRC-32C at the frame size, in batches.
  const int batch = batch_for(fb);
  std::vector<uint8_t> frame(hzccl::simmpi::frame_size(fb));
  uint32_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    {
      Scoped s("simmpi.frame_codec", "simmpi", root.id(), op);
      for (int i = 0; i < batch; ++i) {
        hzccl::simmpi::encode_frame_into(static_cast<uint64_t>(i), payload, frame);
        sink += hzccl::simmpi::decode_frame(frame).valid ? 1u : 0u;
      }
      s.set_bytes(static_cast<uint64_t>(batch) * fb);
    }
    Scoped s("util.crc32c", "util", root.id(), op);
    for (int i = 0; i < batch; ++i) sink += hzccl::crc32c(payload);
    s.set_bytes(static_cast<uint64_t>(batch) * fb);
  }
  if (sink == 0xFFFFFFFFu) std::fputs("", stderr);  // keep the calls observable
}

void micro_kernels(const OpInputs& in, int op) {
  const Scoped root("bench.micro.kernels", "bench", -1, op);
  static const char* kPack[] = {"", "kernels.pack.w1", "kernels.pack.w2", "kernels.pack.w3",
                                "kernels.pack.w4", "kernels.pack.w5", "kernels.pack.w6",
                                "kernels.pack.w7"};
  static const char* kUnpack[] = {"", "kernels.unpack.w1", "kernels.unpack.w2",
                                  "kernels.unpack.w3", "kernels.unpack.w4", "kernels.unpack.w5",
                                  "kernels.unpack.w6", "kernels.unpack.w7"};
  const size_t n = std::min<size_t>(in.ranks[0].size(), size_t{1} << 20);
  std::vector<uint32_t> values(n);
  std::vector<uint32_t> back(n);
  std::memcpy(values.data(), in.ranks[0].data(), n * sizeof(uint32_t));
  const int reps = std::clamp(static_cast<int>((size_t{16} << 20) / (n * 4)), 3, 256);
  for (int bits = 1; bits <= 7; ++bits) {
    std::vector<uint32_t> masked(n);
    for (size_t i = 0; i < n; ++i) masked[i] = values[i] & ((1u << bits) - 1u);
    std::vector<uint8_t> packed(hzccl::kernels::packed_size_bits(n, bits));
    for (int rep = 0; rep < 3; ++rep) {
      {
        Scoped s(kPack[bits], "kernels", root.id(), op);
        for (int i = 0; i < reps; ++i) {
          hzccl::kernels::pack_bits(masked.data(), n, bits, packed.data());
        }
        s.set_bytes(static_cast<uint64_t>(reps) * n * 4);
      }
      Scoped s(kUnpack[bits], "kernels", root.id(), op);
      for (int i = 0; i < reps; ++i) {
        hzccl::kernels::unpack_bits(packed.data(), n, bits, back.data());
      }
      s.set_bytes(static_cast<uint64_t>(reps) * n * 4);
    }
  }
}

/// Codec-side layer calls on the op's own ring blocks: digest emission on
/// vs off, digest verification, and the DOC operator C-Coll's design rests on.
void micro_codec(const BlockingSpec& spec, const OpInputs& in, int op, Record& record) {
  const Scoped root("bench.micro.codec", "bench", -1, op);
  const JobConfig config = job_config(spec, in, spec.shapes[0], 0, 1, false);
  coll::CollectiveConfig cc = config.collective_config(hzccl::simmpi::Mode::kSingleThread);
  const size_t total = in.ranks[0].size();
  const int blocks = std::min(spec.nranks, 16);
  const size_t block_bytes = total * sizeof(float) / static_cast<size_t>(spec.nranks);
  const int reps = std::clamp(
      static_cast<int>((size_t{32} << 20) / (block_bytes * static_cast<size_t>(blocks))), 1, 64);
  uint64_t raw_bytes = 0;
  uint64_t compressed_bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int b = 0; b < blocks; ++b) {
      const hzccl::Range rg = coll::ring_block_range(total, spec.nranks, b);
      const std::span<const float> a(in.ranks[0].data() + rg.begin, rg.size());
      const std::span<const float> c(in.ranks[1].data() + rg.begin, rg.size());
      hzccl::FzParams plain = cc.fz_params(rg.size());
      plain.emit_digests = false;
      hzccl::FzParams digests = plain;
      digests.emit_digests = true;
      hzccl::CompressedBuffer ca;
      hzccl::CompressedBuffer cb;
      {
        Scoped s("compressor.fz_compress.plain", "compressor", root.id(), op);
        ca = hzccl::fz_compress(a, plain);
        s.set_bytes(a.size_bytes());
      }
      {
        Scoped s("compressor.fz_compress.digests", "compressor", root.id(), op);
        cb = hzccl::fz_compress(a, digests);
        s.set_bytes(a.size_bytes());
      }
      {
        Scoped s("integrity.fz_verify_digests", "integrity", root.id(), op);
        if (!hzccl::fz_verify_digests(cb).ok) throw hzccl::Error("micro: digest mismatch");
        s.set_bytes(a.size_bytes());
      }
      raw_bytes += a.size_bytes();
      compressed_bytes += ca.bytes.size();
      const hzccl::CompressedBuffer cc2 = hzccl::fz_compress(c, plain);
      Scoped s("homomorphic.doc_add", "homomorphic", root.id(), op);
      const hzccl::CompressedBuffer sum = hzccl::doc_add(ca, cc2, nullptr, 1);
      s.set_bytes(a.size_bytes());
    }
  }
  record.set("compressor.ratio",
             compressed_bytes
                 ? static_cast<double>(raw_bytes) / static_cast<double>(compressed_bytes)
                 : 0.0,
             true);
}

/// Every layer of one blocking-style spec over its pool.
void trace_layers(const BlockingSpec& spec, const std::vector<OpInputs>& pool, const Args& args,
                  Record& record) {
  const int combos = static_cast<int>(spec.shapes.size() * spec.kernels.size());
  Decomposition d;
  int op = 0;
  for (const Shape& shape : spec.shapes) {
    for (const Kernel k : spec.kernels) {
      // Repetitions sized from one timed call so the whole run stays near
      // --seconds.
      const int64_t t0 = now_ns();
      (void)hzccl::run_collective(k, shape.op, job_config(spec, pool[0], shape, args.seed, 1),
                                  pool[0].fn());
      const double one = seconds_since(t0);
      const double budget = 0.6 * args.seconds / combos / 4.0;
      const int reps = std::clamp(static_cast<int>(budget / std::max(one, 1e-4)), 3, 25);
      decompose(spec, pool[static_cast<size_t>(op) % pool.size()], shape, k, args.seed, op, reps,
                record, d);
      ++op;
    }
  }
  micro_transport(spec, pool[0], op++);
  micro_kernels(pool[0], op++);
  micro_codec(spec, pool[0], op++, record);
  record.set("cluster.roundsim_ratio", median(d.roundsim_ratios), true);
  record.set("util.pool_allocs_per_op",
             d.pool_ops
                 ? static_cast<double>(d.pool_allocs) / static_cast<double>(d.pool_ops)
                 : 0.0);
  record.sample("sched.run_s", d.sched_run_s);
  record.sample("sched.submit_s", d.sched_submit_s);
  record.set("sched.trace_events", static_cast<double>(d.sched_events), true);
}

}  // namespace

void trace_blocking(const BlockingSpec& spec, const Args& args, Record& record) {
  const std::vector<OpInputs> pool = setup_blocking(spec, args.seed, record);
  deterministic_pass(spec, pool, args.seed, record);
  trace_layers(spec, pool, args, record);
}

void trace_fleet(const Args& args, Record& record) {
  const FleetSetup setup = setup_fleet(args.seed, record);
  const BlockingSpec solo = fleet_solo_spec();
  // Modeled buckets and per-op counters of the partition shape first; the
  // fleet's own counters below replace the shared names.
  deterministic_pass(solo, setup.solo, args.seed, record);
  trace_layers(solo, setup.solo, args, record);
  record.samples.erase("sched.run_s");
  record.samples.erase("sched.submit_s");

  // sched: submission and the event loop over the whole mix.
  FleetCheck first;
  for (int rep = 0; rep < 3; ++rep) {
    const Scoped root("bench.fleet", "bench", -1, 1000 + rep);
    int64_t t0 = now_ns();
    std::unique_ptr<hzccl::sched::Scheduler> s;
    {
      const Scoped span("sched.submit", "sched", root.id(), 1000 + rep);
      s = submit_fleet(setup.mix, args.seed, false);
    }
    record.sample("sched.submit_s", seconds_since(t0));
    t0 = now_ns();
    {
      const Scoped span("sched.run", "sched", root.id(), 1000 + rep);
      s->run();
    }
    record.sample("sched.run_s", seconds_since(t0));
    const FleetCheck c = check_fleet(setup.mix, *s, record);
    if (rep == 0) first = c;
  }
  record_fleet_check(first, record);

  std::unique_ptr<hzccl::sched::Scheduler> traced = submit_fleet(setup.mix, args.seed, true);
  {
    const Scoped span("sched.run.traced", "sched", -1, 1999);
    traced->run();
  }
  const hzccl::trace::Trace t = traced->engine().trace();
  record.set("sched.trace_events", static_cast<double>(t.total_events()), true);
  record.set("homomorphic.hz_adds_per_op",
             static_cast<double>(count_kind(t, hzccl::trace::EventKind::kHomReduce)) /
                 static_cast<double>(std::max<uint64_t>(first.hz_jobs, 1)),
             true);
}

}  // namespace hzbench
