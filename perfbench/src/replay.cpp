#include "replay.hpp"

#include <cstring>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/integrity/digest.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/util/pool.hpp"

namespace hzbench {

namespace {

using hzccl::CompressedBuffer;
using hzccl::Range;
using hzccl::coll::CollectiveConfig;
using hzccl::coll::VerifyPolicy;
namespace coll = hzccl::coll;

/// State shared by the replay steps of one op.
class Replayer {
 public:
  Replayer(hzccl::simmpi::Comm& comm, const OpInputs& in, const CollectiveConfig& config,
           int op_id, int parent)
      : comm_(comm),
        in_(in),
        config_(config),
        op_(op_id),
        parent_(parent),
        n_(static_cast<int>(in.ranks.size())),
        total_(in.exact.size()),
        pool_(hzccl::BufferPool::local()) {}

  ReplayResult hzccl(Op op);
  ReplayResult ccoll(Op op);
  ReplayResult mpi(Op op);

 private:
  Range block(int b) const { return coll::ring_block_range(total_, n_, b); }

  CompressedBuffer compress(int rank, std::span<const float> data) {
    Scoped s("compressor.fz_compress", "compressor", parent_, op_, rank);
    s.set_bytes(data.size_bytes());
    return hzccl::fz_compress(data, config_.fz_params(data.size()), &pool_);
  }

  void decompress(int rank, const CompressedBuffer& c, std::span<float> out) {
    Scoped s("compressor.fz_decompress", "compressor", parent_, op_, rank);
    s.set_bytes(out.size_bytes());
    hzccl::fz_decompress(c, out, config_.host_threads);
  }

  /// One frame from `src` to `dst`: Comm::send on the sender's account,
  /// Comm::recv on the receiver's (the replay Comm sends to itself).
  std::vector<uint8_t> transfer(int src, int dst, std::span<const uint8_t> payload) {
    {
      Scoped s("simmpi.send", "simmpi", parent_, op_, src);
      s.set_bytes(payload.size());
      comm_.send(0, 0, payload);
    }
    ++counts_.frames;
    Scoped s("simmpi.recv", "simmpi", parent_, op_, dst);
    std::vector<uint8_t> bytes = comm_.recv(0, 0);
    s.set_bytes(bytes.size());
    return bytes;
  }

  /// recv_checked_block's acceptance of a received stream: it must decode
  /// to the expected block, and under per-round verification its digests
  /// are rechecked.
  void check_stream(int rank, const std::vector<uint8_t>& bytes, size_t elems) {
    {
      Scoped s("collectives.fz_stream_decodes", "collectives", parent_, op_, rank);
      if (!coll::fz_stream_decodes(bytes, elems)) {
        throw hzccl::Error("replay: stream does not decode");
      }
    }
    if (config_.verify == VerifyPolicy::kPerRound) verify(rank, bytes, elems);
  }

  void verify(int rank, std::span<const uint8_t> bytes, size_t elems) {
    Scoped s("integrity.fz_verify_digests", "integrity", parent_, op_, rank);
    s.set_bytes(elems * sizeof(float));
    const hzccl::DigestCheck check = hzccl::fz_verify_digests(hzccl::parse_fz(bytes));
    if (check.checked) ++counts_.verifies;
    if (!check.ok) throw hzccl::Error("replay: digest mismatch on a clean replay");
  }

  void combine(int rank, float* acc, const float* incoming, size_t elems) {
    Scoped s("collectives.reduce_combine_span", "collectives", parent_, op_, rank);
    s.set_bytes(elems * sizeof(float));
    coll::reduce_combine_span(config_.reduce_op, acc, incoming, elems);
  }

  /// send_floats_checked + recv_floats_checked for one raw block.
  void transfer_floats(int src, int dst, std::span<const float> data, std::span<float> out) {
    const std::vector<uint8_t> bytes = transfer(
        src, dst,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()), data.size_bytes()));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    if (config_.verify == VerifyPolicy::kOff) return;
    hzccl::integrity::Digest sent;
    {
      Scoped s("integrity.content_digest", "integrity", parent_, op_, src);
      s.set_bytes(data.size_bytes());
      sent = hzccl::integrity::content_digest(std::as_bytes(data));
    }
    const std::array<uint8_t, 16> trailer = coll::digest_trailer_bytes(sent);
    const hzccl::integrity::Digest expected =
        coll::parse_digest_trailer(transfer(src, dst, trailer));
    Scoped s("integrity.content_digest", "integrity", parent_, op_, dst);
    s.set_bytes(out.size_bytes());
    ++counts_.verifies;
    const std::span<const float> got(out);
    if (!(hzccl::integrity::content_digest(std::as_bytes(got)) == expected)) {
      throw hzccl::Error("replay: content digest mismatch on a clean replay");
    }
  }

  hzccl::simmpi::Comm& comm_;
  const OpInputs& in_;
  const CollectiveConfig& config_;
  int op_;
  int parent_;
  int n_;
  size_t total_;
  hzccl::BufferPool& pool_;
  ReplayCounts counts_;
};

ReplayResult Replayer::hzccl(Op op) {
  const size_t un = static_cast<size_t>(n_);
  // Round 1: every rank compresses all of its ring blocks.
  std::vector<std::vector<CompressedBuffer>> blocks(un);
  for (int r = 0; r < n_; ++r) {
    blocks[r].resize(un);
    for (int b = 0; b < n_; ++b) {
      const Range rg = block(b);
      blocks[r][b] = compress(r, std::span<const float>(in_.ranks[r].data() + rg.begin, rg.size()));
    }
  }
  // Reduce-scatter: receive the predecessor's partial, hz_add it in.
  std::vector<std::vector<uint8_t>> wire(un);
  for (int step = 0; step < n_ - 1; ++step) {
    for (int r = 0; r < n_; ++r) {
      CompressedBuffer& sent = blocks[r][coll::rs_send_block(r, step, n_)];
      wire[coll::ring_next(r, n_)] = transfer(r, coll::ring_next(r, n_), sent.span());
      pool_.release(std::move(sent.bytes));
    }
    for (int r = 0; r < n_; ++r) {
      const int idx = coll::rs_recv_block(r, step, n_);
      const size_t elems = block(idx).size();
      check_stream(r, wire[r], elems);
      CompressedBuffer received;
      received.bytes = std::move(wire[r]);
      CompressedBuffer summed;
      {
        Scoped s("homomorphic.hz_add", "homomorphic", parent_, op_, r);
        s.set_bytes(elems * sizeof(float));
        summed = hzccl::hz_add(blocks[r][idx], received, &counts_.pipeline, config_.host_threads,
                               &pool_);
      }
      ++counts_.hz_adds;
      if (config_.verify == VerifyPolicy::kPerRound) verify(r, summed.bytes, elems);
      pool_.release(std::move(received.bytes));
      pool_.release(std::move(blocks[r][idx].bytes));
      blocks[r][idx] = std::move(summed);
    }
  }

  ReplayResult result;
  if (op == Op::kReduceScatter) {
    for (int r = 0; r < n_; ++r) {
      const int owned = coll::rs_owned_block(r, n_);
      std::vector<float> out(block(owned).size());
      if (config_.verify != VerifyPolicy::kOff) verify(r, blocks[r][owned].bytes, out.size());
      decompress(r, blocks[r][owned], out);
      if (r == 0) result.rank0_output = std::move(out);
    }
    result.counts = counts_;
    return result;
  }

  // Allgather of the compressed owned blocks, then one decode per block.
  for (int step = 0; step < n_ - 1; ++step) {
    for (int r = 0; r < n_; ++r) {
      wire[coll::ring_next(r, n_)] =
          transfer(r, coll::ring_next(r, n_), blocks[r][coll::ag_send_block(r, step, n_)].span());
    }
    for (int r = 0; r < n_; ++r) {
      const int idx = coll::ag_recv_block(r, step, n_);
      check_stream(r, wire[r], block(idx).size());
      pool_.release(std::move(blocks[r][idx].bytes));
      blocks[r][idx].bytes = std::move(wire[r]);
    }
  }
  for (int r = 0; r < n_; ++r) {
    std::vector<float> out(total_);
    for (int b = 0; b < n_; ++b) {
      const Range rg = block(b);
      if (config_.verify != VerifyPolicy::kOff) verify(r, blocks[r][b].bytes, rg.size());
      decompress(r, blocks[r][b], std::span<float>(out.data() + rg.begin, rg.size()));
      pool_.release(std::move(blocks[r][b].bytes));
    }
    if (r == 0) result.rank0_output = std::move(out);
  }
  result.counts = counts_;
  return result;
}

ReplayResult Replayer::ccoll(Op op) {
  const size_t un = static_cast<size_t>(n_);
  std::vector<std::vector<float>> acc(un);
  for (int r = 0; r < n_; ++r) {
    Scoped s("collectives.copy_input", "collectives", parent_, op_, r);
    s.set_bytes(total_ * sizeof(float));
    acc[r] = in_.ranks[r];
  }
  std::vector<std::vector<uint8_t>> wire(un);
  std::vector<float> decoded;
  for (int step = 0; step < n_ - 1; ++step) {
    for (int r = 0; r < n_; ++r) {
      const Range rg = block(coll::rs_send_block(r, step, n_));
      CompressedBuffer c = compress(r, std::span<const float>(acc[r].data() + rg.begin, rg.size()));
      wire[coll::ring_next(r, n_)] = transfer(r, coll::ring_next(r, n_), c.span());
      pool_.release(std::move(c.bytes));
    }
    for (int r = 0; r < n_; ++r) {
      const Range rg = block(coll::rs_recv_block(r, step, n_));
      check_stream(r, wire[r], rg.size());
      CompressedBuffer received;
      received.bytes = std::move(wire[r]);
      decoded.resize(rg.size());
      decompress(r, received, decoded);
      pool_.release(std::move(received.bytes));
      combine(r, acc[r].data() + rg.begin, decoded.data(), rg.size());
    }
  }

  ReplayResult result;
  if (op == Op::kReduceScatter) {
    const Range owned = block(coll::rs_owned_block(0, n_));
    result.rank0_output.assign(acc[0].begin() + static_cast<ptrdiff_t>(owned.begin),
                               acc[0].begin() + static_cast<ptrdiff_t>(owned.end));
    result.counts = counts_;
    return result;
  }

  // ccoll_allgather: compress the owned block once, forward compressed
  // blocks around the ring, decode every foreign block.
  std::vector<std::vector<CompressedBuffer>> blocks(un);
  std::vector<std::vector<float>> out(un);
  for (int r = 0; r < n_; ++r) {
    const int own = coll::rs_owned_block(r, n_);
    const Range rg = block(own);
    out[r].assign(total_, 0.0f);
    std::memcpy(out[r].data() + rg.begin, acc[r].data() + rg.begin, rg.size() * sizeof(float));
    blocks[r].resize(un);
    blocks[r][own] = compress(r, std::span<const float>(acc[r].data() + rg.begin, rg.size()));
  }
  for (int step = 0; step < n_ - 1; ++step) {
    for (int r = 0; r < n_; ++r) {
      wire[coll::ring_next(r, n_)] =
          transfer(r, coll::ring_next(r, n_), blocks[r][coll::ag_send_block(r, step, n_)].span());
    }
    for (int r = 0; r < n_; ++r) {
      const int idx = coll::ag_recv_block(r, step, n_);
      check_stream(r, wire[r], block(idx).size());
      blocks[r][idx].bytes = std::move(wire[r]);
    }
  }
  for (int r = 0; r < n_; ++r) {
    for (int b = 0; b < n_; ++b) {
      if (b != coll::rs_owned_block(r, n_)) {
        const Range rg = block(b);
        decompress(r, blocks[r][b], std::span<float>(out[r].data() + rg.begin, rg.size()));
      }
      pool_.release(std::move(blocks[r][b].bytes));
    }
  }
  result.rank0_output = std::move(out[0]);
  result.counts = counts_;
  return result;
}

ReplayResult Replayer::mpi(Op op) {
  const size_t un = static_cast<size_t>(n_);
  std::vector<std::vector<float>> acc(un);
  for (int r = 0; r < n_; ++r) {
    Scoped s("collectives.copy_input", "collectives", parent_, op_, r);
    s.set_bytes(total_ * sizeof(float));
    acc[r] = in_.ranks[r];
  }
  std::vector<std::vector<float>> recv(un);
  for (int step = 0; step < n_ - 1; ++step) {
    for (int r = 0; r < n_; ++r) {
      const int next = coll::ring_next(r, n_);
      const Range send = block(coll::rs_send_block(r, step, n_));
      recv[next].resize(block(coll::rs_recv_block(next, step, n_)).size());
      transfer_floats(r, next, std::span<const float>(acc[r].data() + send.begin, send.size()),
                      recv[next]);
    }
    for (int r = 0; r < n_; ++r) {
      const Range rg = block(coll::rs_recv_block(r, step, n_));
      combine(r, acc[r].data() + rg.begin, recv[r].data(), rg.size());
    }
  }

  ReplayResult result;
  if (op == Op::kReduceScatter) {
    const Range owned = block(coll::rs_owned_block(0, n_));
    result.rank0_output.assign(acc[0].begin() + static_cast<ptrdiff_t>(owned.begin),
                               acc[0].begin() + static_cast<ptrdiff_t>(owned.end));
    result.counts = counts_;
    return result;
  }

  // raw_allgather over the full output vectors.
  std::vector<std::vector<float>> out(un);
  for (int r = 0; r < n_; ++r) {
    const Range own = block(coll::rs_owned_block(r, n_));
    out[r].assign(total_, 0.0f);
    std::memcpy(out[r].data() + own.begin, acc[r].data() + own.begin, own.size() * sizeof(float));
  }
  for (int step = 0; step < n_ - 1; ++step) {
    // All sends of a step read blocks no receive of that step writes.
    for (int r = 0; r < n_; ++r) {
      const int next = coll::ring_next(r, n_);
      const Range send = block(coll::ag_send_block(r, step, n_));
      const Range into = block(coll::ag_recv_block(next, step, n_));
      transfer_floats(r, next, std::span<const float>(out[r].data() + send.begin, send.size()),
                      std::span<float>(out[next].data() + into.begin, into.size()));
    }
  }
  result.rank0_output = std::move(out[0]);
  result.counts = counts_;
  return result;
}

}  // namespace

ReplayResult replay_ring(Kernel kernel, Op op, const OpInputs& in,
                         const CollectiveConfig& config, int op_id, int parent) {
  ReplayResult result;
  hzccl::simmpi::Runtime runtime(1, hzccl::simmpi::NetModel::omnipath_100g());
  runtime.run([&](hzccl::simmpi::Comm& comm) {
    Replayer replayer(comm, in, config, op_id, parent);
    switch (kernel) {
      case Kernel::kMpi: result = replayer.mpi(op); break;
      case Kernel::kCCollMultiThread:
      case Kernel::kCCollSingleThread: result = replayer.ccoll(op); break;
      case Kernel::kHzcclMultiThread:
      case Kernel::kHzcclSingleThread: result = replayer.hzccl(op); break;
    }
  });
  return result;
}

}  // namespace hzbench
