// Span log, result record output, input generation and output checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <sys/resource.h>

#include "bench.hpp"
#include "hzccl/datasets/fields.hpp"
#include "hzccl/stats/metrics.hpp"

namespace hzbench {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

SpanLog& spans() {
  static SpanLog log;
  return log;
}

void SpanLog::enable(size_t capacity) {
  slots_.assign(capacity, Span{});
  next_.store(0);
}

int SpanLog::open(const char* name, const char* layer, int parent, int op, int rank) {
  if (slots_.empty()) return -1;
  const size_t id = next_.fetch_add(1, std::memory_order_relaxed);
  if (id >= slots_.size()) {
    overflowed_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = slots_[id];
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.op = op;
  s.rank = rank;
  s.start_ns = now_ns();
  return static_cast<int>(id);
}

void SpanLog::close(int id, uint64_t bytes) {
  if (id < 0) return;
  Span& s = slots_[static_cast<size_t>(id)];
  s.end_ns = now_ns();
  s.bytes = bytes;
}

std::span<const Span> SpanLog::spans() const {
  const size_t n = std::min(next_.load(), slots_.size());
  return {slots_.data(), n};
}

// ---------------------------------------------------------------------------
// Record output
// ---------------------------------------------------------------------------

void Record::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Record::set(const std::string& name, double value, bool is_deterministic) {
  values[name] = value;
  if (is_deterministic &&
      std::find(deterministic.begin(), deterministic.end(), name) == deterministic.end()) {
    deterministic.push_back(name);
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_record(const Record& record, const std::string& path) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(record.workload) << ",\"seed\":" << record.seed
    << ",\"traced\":" << (record.traced ? "true" : "false") << ",\"attempted\":" << record.attempted
    << ",\"failed\":" << record.failed << ",\"failures\":[";
  for (size_t i = 0; i < record.failures.size(); ++i) {
    o << (i ? "," : "") << json_string(record.failures[i]);
  }
  o << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : record.samples) {
    o << (first ? "" : ",") << json_string(name) << ":[";
    for (size_t i = 0; i < values.size(); ++i) o << (i ? "," : "") << json_number(values[i]);
    o << "]";
    first = false;
  }
  o << "},\"values\":{";
  first = true;
  for (const auto& [name, value] : record.values) {
    o << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
    first = false;
  }
  o << "},\"deterministic\":[";
  for (size_t i = 0; i < record.deterministic.size(); ++i) {
    o << (i ? "," : "") << json_string(record.deterministic[i]);
  }
  o << "],\"span_overflow\":" << spans().overflowed() << ",\"spans\":[";
  const std::span<const Span> all = spans().spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    o << (i ? ",\n" : "\n") << "[" << json_string(s.name) << "," << json_string(s.layer) << ","
      << s.start_ns << "," << s.end_ns << "," << s.parent << "," << s.op << "," << s.rank << ","
      << s.bytes << "]";
  }
  o << "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << o.str();
  if (!f) throw hzccl::Error("hzbench: cannot write " + path);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

/// Smallest dataset scale whose field holds at least `elems` floats.
hzccl::Dims dims_for(DatasetId id, size_t elems) {
  for (const hzccl::Scale s : {hzccl::Scale::kTiny, hzccl::Scale::kSmall, hzccl::Scale::kMedium,
                               hzccl::Scale::kLarge}) {
    const hzccl::Dims d = hzccl::dataset_dims(id, s);
    if (d.count() >= elems) return d;
  }
  throw hzccl::Error("hzbench: no dataset scale holds the requested elements");
}

std::vector<float> field(DatasetId id, const hzccl::Dims& dims, uint64_t structure,
                         uint64_t texture) {
  switch (id) {
    case DatasetId::kRtmSim1: return hzccl::rtm_sim1_field(dims, structure, texture);
    case DatasetId::kRtmSim2: return hzccl::rtm_sim2_field(dims, structure, texture);
    case DatasetId::kNyx: return hzccl::nyx_field(dims, structure);
    case DatasetId::kCesmAtm: return hzccl::cesm_atm_field(dims, structure);
    case DatasetId::kHurricane: return hzccl::hurricane_field(dims, structure);
  }
  throw hzccl::Error("hzbench: unknown dataset");
}

}  // namespace

bool has_texture(DatasetId id) {
  return id == DatasetId::kRtmSim1 || id == DatasetId::kRtmSim2;
}

OpInputs make_inputs(DatasetId id, size_t elems, int nranks, uint64_t structure,
                     uint64_t texture, double rel_bound) {
  const hzccl::Dims dims = dims_for(id, elems);
  OpInputs in;
  in.ranks.resize(static_cast<size_t>(nranks));
  std::vector<float> base;
  if (!has_texture(id)) {
    base = field(id, dims, structure, 0);
    base.resize(elems);
  }
  for (int r = 0; r < nranks; ++r) {
    std::vector<float>& v = in.ranks[static_cast<size_t>(r)];
    if (has_texture(id)) {
      v = field(id, dims, structure, mix(texture, 2, static_cast<uint64_t>(r)));
      v.resize(elems);
    } else {
      const double jitter =
          static_cast<double>(mix(texture, 3, static_cast<uint64_t>(r)) >> 11) * 0x1.0p-53;
      const float factor = (1.0f + 0.05f * static_cast<float>(r % 16)) *
                           static_cast<float>(0.99 + 0.02 * jitter);
      v.resize(elems);
      for (size_t i = 0; i < elems; ++i) v[i] = base[i] * factor;
    }
  }
  in.abs_error_bound = hzccl::abs_bound_from_rel(in.ranks[0], rel_bound);
  in.exact = hzccl::exact_reduction(nranks, in.fn());
  std::vector<double> sum_abs(elems, 0.0);
  for (const std::vector<float>& v : in.ranks) {
    for (size_t i = 0; i < elems; ++i) sum_abs[i] += std::fabs(static_cast<double>(v[i]));
  }
  in.max_sum_abs = sum_abs.empty() ? 0.0 : *std::max_element(sum_abs.begin(), sum_abs.end());
  return in;
}

std::string check_output(Kernel kernel, std::span<const float> got, std::span<const float> exact,
                         size_t offset, size_t group_size, double abs_error_bound,
                         double max_sum_abs, double envelope) {
  if (offset + got.size() > exact.size() || got.empty()) {
    return "output has " + std::to_string(got.size()) + " elements at offset " +
           std::to_string(offset) + " of " + std::to_string(exact.size());
  }
  const double rounding = static_cast<double>(group_size) *
                          static_cast<double>(std::numeric_limits<float>::epsilon()) *
                          max_sum_abs;
  const double tol =
      (kernel == Kernel::kMpi ? 0.0
                              : envelope * static_cast<double>(group_size) * abs_error_bound) +
      rounding;
  for (size_t i = 0; i < got.size(); ++i) {
    const double err =
        std::fabs(static_cast<double>(got[i]) - static_cast<double>(exact[offset + i]));
    if (!(err <= tol)) {
      std::ostringstream o;
      o << "element " << offset + i << " off by " << err << " > " << tol;
      return o.str();
    }
  }
  return {};
}

const char* kernel_slug(Kernel kernel) {
  switch (kernel) {
    case Kernel::kMpi: return "mpi";
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread: return "ccoll";
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread: return "hzccl";
  }
  return "?";
}

hzccl::Range rs_rank0_range(size_t total, int group_size) {
  return hzccl::coll::ring_block_range(total, group_size,
                                       hzccl::coll::rs_owned_block(0, group_size));
}

}  // namespace hzbench
