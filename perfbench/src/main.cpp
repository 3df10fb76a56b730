// hzbench: one workload of the hZCCL benchmark per invocation.
//
//   hzbench --workload bulk|small|fleet|lossy --seed N --seconds S
//           --trace 0|1 --out RESULT.json
//
// The timed run (--trace 0) measures end-to-end wall time with span
// recording off; the traced run (--trace 1) is a separate invocation that
// records spans around every call it makes into a library layer.  Either
// writes raw samples, values and spans to --out; perfbench/run.py turns
// them into the reported metrics.  Exit code 0 means the record was
// written (failed ops are counted in it); 2 means bad arguments.
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hzbench --workload bulk|small|fleet|lossy --seed N --seconds S "
               "--trace 0|1 --out PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hzbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--out") args.out = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.out.empty() || args.seconds <= 0.0) return usage();
  if (args.workload != "bulk" && args.workload != "small" && args.workload != "fleet" &&
      args.workload != "lossy") {
    return usage();
  }

  hzbench::Record record;
  record.workload = args.workload;
  record.seed = args.seed;
  record.traced = args.trace;
  try {
    if (args.trace) hzbench::spans().enable(size_t{1} << 19);
    if (args.workload == "fleet") {
      if (args.trace) hzbench::trace_fleet(args, record);
      else hzbench::run_fleet(args, record);
    } else {
      const hzbench::BlockingSpec spec = hzbench::blocking_spec(args.workload);
      if (args.trace) hzbench::trace_blocking(spec, args, record);
      else hzbench::run_blocking(spec, args, record);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hzbench: %s\n", e.what());
    return 1;
  }
  if (!record.values.count("peak_rss_mb")) record.set("peak_rss_mb", hzbench::peak_rss_mib());
  hzbench::write_record(record, args.out);
  return 0;
}
