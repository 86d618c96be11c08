// Benchmark program: runs one workload against the public API of core,
// mem, attn, model and serve, checks its outputs, and prints the result
// as one JSON line (end-to-end metrics untraced, per-layer metrics with
// --trace 1). perfbench/run.py builds this and is the entry point.
//
//   perfbench --workload decode_long --seed 3 --seconds 20 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!(args.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Result result;
  int rc = 0;
  try {
    perfbench::note_calibration("start", result);
    if (args.workload == "prefill_spmm") {
      rc = perfbench::run_prefill_spmm(args, result);
    } else if (args.workload == "decode_long") {
      rc = perfbench::run_decode_long(args, result);
    } else if (args.workload == "serve_mixed") {
      rc = perfbench::run_serve_mixed(args, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    // After the workload has released its memory: peak_rss_mb is read
    // inside it, before the calibration maps its buffers again.
    if (rc == 0) perfbench::note_calibration("end", result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  if (rc != 0) {
    for (const std::string& line : result.notes) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    return rc;
  }
  result.print();
  return 0;
}
