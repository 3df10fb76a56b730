// Shared pieces of the hzbench program: the host clock, the span log the
// traced run records into, the raw result record every workload fills in,
// and the output checks.
//
// hzbench only calls the library's public functions.  Every span is opened
// and closed in this directory's files, around one call into one layer
// (module under src/), so the traced run attributes host time to layers
// without touching library code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"

namespace hzbench {

using hzccl::DatasetId;
using hzccl::Kernel;
using hzccl::Op;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// 64-bit finalizer (splitmix64) used to derive every input and fault seed
/// from the run's --seed.
inline uint64_t mix(uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull + c + 0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer.  `parent` indexes the enclosing span (-1 at
/// the root), `op` groups the spans of one collective operation, `rank` is
/// the simulated rank the work belongs to (-1 when none) and `bytes` the
/// uncompressed volume the call processed (0 when not meaningful).
struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t op = -1;
  int32_t rank = -1;
  uint64_t bytes = 0;
};

/// Fixed-capacity span buffer.  Storage is allocated once before any timed
/// work; recording is a relaxed fetch_add plus stores into the claimed slot,
/// so rank threads may record concurrently.  When disabled (the timed runs)
/// every call is a single branch.
class SpanLog {
 public:
  void enable(size_t capacity);

  /// Open a span now; returns its index, or -1 when disabled or full.
  int open(const char* name, const char* layer, int parent = -1, int op = -1, int rank = -1);
  void close(int id, uint64_t bytes = 0);

  /// Spans recorded so far, in claim order.
  std::span<const Span> spans() const;
  uint64_t overflowed() const { return overflowed_.load(); }

 private:
  std::vector<Span> slots_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> overflowed_{0};
};

SpanLog& spans();

/// RAII span around one call.
class Scoped {
 public:
  Scoped(const char* name, const char* layer, int parent = -1, int op = -1, int rank = -1)
      : id_(spans().open(name, layer, parent, op, rank)) {}
  ~Scoped() { spans().close(id_, bytes_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }
  int id() const { return id_; }

 private:
  int id_;
  uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

/// What one hzbench invocation hands to run.py: raw timing samples, scalar
/// values (those listed in `deterministic` must replay bit-equal for a
/// seed), op accounting and the span log.
struct Record {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::string> deterministic;

  void fail(const std::string& what);
  void set(const std::string& name, double value, bool is_deterministic = false);
  void sample(const std::string& name, double value) { samples[name].push_back(value); }
};

/// Write `record` plus the span log as one JSON document.
void write_record(const Record& record, const std::string& path);

/// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
double peak_rss_mib();

// ---------------------------------------------------------------------------
// Inputs and output checks
// ---------------------------------------------------------------------------

/// One collective's inputs: a vector per physical rank, the double-exact
/// reduction over all ranks, and the error bound the op runs with.
struct OpInputs {
  std::vector<std::vector<float>> ranks;
  std::vector<float> exact;
  double abs_error_bound = 0.0;
  double max_sum_abs = 0.0;  ///< max over elements of sum_r |x_r| (rounding scale)

  hzccl::RankInputFn fn() const {
    return [this](int r) { return ranks[static_cast<size_t>(r)]; };
  }
};

/// Correlated per-rank members of one dataset field, generated by the
/// library's dataset module: the RTM sets share structure and vary texture
/// per member; the others scale one field per member, as
/// hzccl::generate_correlated_field does.  `elems` floats per rank.
///
/// `structure` seeds the field's shape and `texture` the RTM sets' member
/// texture, or the other sets' +-1% per-member amplitude jitter.  Callers
/// derive `texture` from --seed always, and `structure` only where the
/// workload's statistics do not move with it (see perfbench/README.md).
OpInputs make_inputs(DatasetId id, size_t elems, int nranks, uint64_t structure,
                     uint64_t texture, double rel_bound);

/// The RTM generators take a separate texture seed; the others do not.
bool has_texture(DatasetId id);

/// Envelope check of an op's result.  Compressed kernels must stay within
/// envelope * group_size * eb of the exact reduction (envelope 1 is the
/// n * eb law); MPI within float rounding.  `offset` is where `got` starts
/// inside the full vector (reduce-scatter returns one block).  Returns an
/// empty string when the output passes.
std::string check_output(Kernel kernel, std::span<const float> got, std::span<const float> exact,
                         size_t offset, size_t group_size, double abs_error_bound,
                         double max_sum_abs, double envelope = 1.0);

/// The library's envelope for an op that took a degraded round (raw
/// fallback re-quantizes like DOC): its fault and integrity tiers allow
/// 3 * n * eb.
inline constexpr double kDegradedEnvelope = 3.0;

/// Short kernel slug used in metric names.
const char* kernel_slug(Kernel kernel);

/// Which block of the full vector a reduce-scatter's rank 0 owns.
hzccl::Range rs_rank0_range(size_t total, int group_size);

}  // namespace hzbench
