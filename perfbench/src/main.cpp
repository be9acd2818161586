// Repository benchmark binary (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--source-rev REV]
//
// Prints a detail line (provenance, sample counts, bases, audit) and, as
// the last line of stdout, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. With --out-dir, both lines are also written there, and
// a traced run writes its chrome://tracing file (the program's spans and
// the benchmark's own) next to them.
#include <sys/utsname.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/hash_backend.h"
#include "gc/garble.h"
#include "net/uring.h"
#include "obs/trace.h"
#include "runtime/server.h"
#include "runtime/streaming.h"

using namespace deepsecure;
using perfbench::JsonObject;

namespace {

struct Args {
  perfbench::RunArgs run;
  std::string out_dir;
  std::string source_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.run.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.run.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.run.seconds = std::stod(v);
      if (!(a.run.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace expects 0 or 1");
      a.run.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--source-rev") {
      a.source_rev = v;
    } else {
      throw std::runtime_error("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

// Host and effective configuration recorded with every result.
std::string provenance(const Args& a) {
  utsname u{};
  const std::string kernel = ::uname(&u) == 0 ? u.release : "unknown";
  const runtime::ServerConfig scfg;
  const bool uring = scfg.io == runtime::IoBackend::kUring && net::uring_supported();
  return JsonObject()
      .raw("host", JsonObject()
                       .num("nproc", std::thread::hardware_concurrency())
                       .str("cpu_model", cpu_model())
                       .str("cpu_features", hash_backend_cpu_features())
                       .str("kernel", kernel)
                       .str("compiler", std::string("gcc ") + __VERSION__)
                       .str("source_rev", a.source_rev)
                       .done())
      .raw("config", JsonObject()
                         .str("hash_backend", hash_backend().name)
                         .str("io", uring ? "uring" : "epoll")
                         .str("schedule", gc_schedule_default() ? "on" : "off")
                         .str("zero_copy", runtime::zero_copy_tables_default() ? "on" : "off")
                         .done())
      .done();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const perfbench::RunResult r = perfbench::run_workload(a.run);
    const bool correct = r.failed == 0;
    const perfbench::Metrics& metrics = a.run.trace ? r.per_layer : r.end_to_end;
    std::string detail = "{\"detail\":" + r.detail + ",\"provenance\":" +
                         provenance(a);
    if (a.run.trace) {
      obs::trace_drain();
      detail += ",\"trace\":" +
                JsonObject()
                    .num("program_events", static_cast<double>(obs::trace_collected()))
                    .num("program_dropped", static_cast<double>(obs::trace_dropped()))
                    .num("benchmark_spans", static_cast<double>(perfbench::spans().size()))
                    .done();
    }
    detail += "}";
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
    const std::string result = head + perfbench::metrics_json(metrics) + "}";

    if (!a.out_dir.empty()) {
      const std::string stem = a.out_dir + "/" + a.run.workload + "-seed" +
                               std::to_string(a.run.seed) +
                               (a.run.trace ? "-trace" : "");
      write_file(stem + ".json", detail + "\n" + result + "\n");
      if (a.run.trace) {
        // The program's spans (pid 1) and the benchmark's (pid 2) in one
        // chrome://tracing document.
        std::string trace = obs::chrome_trace_json();
        const std::string ours = perfbench::spans().events_json();
        const size_t close = trace.find("],\"otherData\"");
        if (close != std::string::npos && !ours.empty())
          trace.insert(close, (trace[close - 1] == '[' ? "" : ",") + ours);
        write_file(stem + ".chrome_trace.json", trace);
      }
    }
    std::printf("%s\n%s\n", detail.c_str(), result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
