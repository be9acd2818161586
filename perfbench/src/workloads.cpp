// The benchmark's workloads: closed-loop clients in this process against
// an in-process runtime::InferenceServer on loopback, everything at the
// program's defaults (auto-dispatched hash backend, default io, schedule
// and zero-copy on). Why each workload exists is recorded beside its
// definition here and in BENCHMARK.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "support/stopwatch.h"

namespace perfbench {

using namespace deepsecure;

namespace {

struct Workload {
  const char* name;
  ModelKind model;
  size_t clients;        // concurrent client slots
  bool pooled;           // offline/online split, async prefetch lane
  bool churn;            // an operation is one whole session
  // Setups per run (setup_s is their median) and in-memory garblings
  // per layer probe: several where the model is cheap, one for b3pp,
  // whose compile alone takes ~13 s per party.
  size_t repeats;
  size_t inputs;         // generated inputs, used round-robin
};

// b3pp_ondemand: the paper's Benchmark 3 after pre-processing (3.31e6
//   AND gates, ~110 MB on the wire per inference), on-demand garbling.
//   Crypto, garble/eval, OT extension and loopback bandwidth do nearly
//   all the work: gate-count, kernel and data-plane changes show here.
//   One client: a second adds its ~13 s compile and ~1 GB to every run,
//   and its garble phases drift in and out of step with the first on
//   four cores, which widened the latency spread in trial runs.
// mlp_pooled: the loadgen MLP (38,337 AND gates) with the offline/online
//   split; the async lane refills the server store inside the window.
//   Request-path crypto is ~1 ms, so dispatch, frames, credits, the
//   material pool and small-message networking dominate. It should not
//   move when only the AES or garbling kernels change.
// mlp_churn: the same MLP, one session per operation (construct the
//   client, one on-demand infer, close). Per-session costs dominate:
//   client compile, connect and handshake, base OT, the accept path.
//   Two slots, so sessions still overlap in the accept path. A session
//   keeps about one core busy; four slots saturated a 4-vCPU VM, and
//   the p50 then followed every load change on the shared host (its
//   run-to-run spread reached a third of the median).
constexpr Workload kWorkloads[] = {
    {"b3pp_ondemand", ModelKind::kPaperB3pp, 1, false, false, 1, 64},
    {"mlp_pooled", ModelKind::kLoadgenMlp, 2, true, false, 9, 256},
    {"mlp_churn", ModelKind::kLoadgenMlp, 2, false, true, 9, 256},
};

// Pool depth of a pooled client; the server's default per-session
// prefetch quota (ServerConfig::max_prefetch) is 8 as well.
constexpr size_t kPoolTarget = 8;

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// CPU time the hypervisor gave to other guests (the "steal" column of
// /proc/stat), in seconds: host noise recorded beside each window.
double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK))
                : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Process-wide counters (obs::Registry::global()): every TcpChannel of
// both parties, primary and lane, counts its sends in net.tcp.bytes_out,
// so a delta is the run's wire bytes in both directions.
struct Counters {
  uint64_t wire_bytes = 0, bytes_copied = 0, syscalls_send = 0;
  uint64_t retries = 0, poisoned = 0;
  static Counters take() {
    auto& r = obs::Registry::global();
    return Counters{r.counter("net.tcp.bytes_out").value(),
                    r.counter("net.bytes_copied").value(),
                    r.counter("net.syscalls_send").value(),
                    r.counter("client.retries").value(),
                    r.counter("pool.poisoned").value()};
  }
  Counters operator-(const Counters& b) const {
    return Counters{wire_bytes - b.wire_bytes, bytes_copied - b.bytes_copied,
                    syscalls_send - b.syscalls_send, retries - b.retries,
                    poisoned - b.poisoned};
  }
};

struct TraceSums {
  double garble = 0, ot = 0, eval = 0;
  static TraceSums of(const runtime::InferenceClient& c) {
    TraceSums t;
    for (const PhaseSample& p : c.trace().phases) {
      t.garble += p.garble_s;
      t.ot += p.ot_s;
      t.eval += p.eval_s;
    }
    return t;
  }
};

// Per client slot. Samples are split by window half: in a traced run
// tracing is off for the first half and on for the second.
struct Slot {
  std::unique_ptr<runtime::InferenceClient> client;
  std::vector<double> lat_ms[2];
  std::vector<double> connect_ms, first_infer_ms;
  double busy_s = 0;  // window start to this slot's last completion
  uint64_t attempted = 0, failed = 0, completed = 0;
  size_t next_input = 0;
  TraceSums trace_before, trace_sum;
  std::string error;
};

struct Shared {
  const Workload& w;
  const Model& m;
  uint64_t seed;
  std::atomic<uint64_t> sessions{0};  // distinct label seeds per session
};

runtime::ClientConfig client_config(Shared& sh, size_t slot,
                                    uint64_t session) {
  runtime::ClientConfig c;
  c.seed = Block{sh.seed * 1000003 + slot + 1, session + 1};
  if (sh.w.pooled) {
    c.pool_target = kPoolTarget;
    c.async_prefetch = true;
  }
  return c;
}

void note_error(Slot& s, const std::string& what) {
  ++s.failed;
  if (s.error.empty()) s.error = what;
}

// One infer() checked against the input's plaintext label. Returns the
// client-observed milliseconds, or a negative value on failure.
double checked_infer(runtime::InferenceClient& c, Slot& s, const Model& m,
                     size_t stride, uint64_t op, uint64_t parent,
                     uint32_t lane) {
  const size_t idx = s.next_input % m.inputs.size();
  s.next_input += stride;
  ++s.attempted;
  ScopedSpan span("bench.infer", op, parent, lane);
  Stopwatch sw;
  try {
    const size_t got = c.infer(m.inputs[idx]);
    const double ms = sw.millis();
    if (got != m.labels[idx]) {
      note_error(s, "inference label differs from the plaintext reference");
      return -1.0;
    }
    return ms;
  } catch (const std::exception& e) {
    note_error(s, e.what());
    return -1.0;
  }
}

void wait_until(const char* what, double limit_s,
                const std::function<bool()>& done) {
  Stopwatch sw;
  while (!done()) {
    if (sw.seconds() > limit_s)
      throw std::runtime_error(std::string("timed out waiting for ") + what);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::unique_ptr<runtime::InferenceServer> start_server(const Model& m) {
  auto s = std::make_unique<runtime::InferenceServer>(m.spec, m.weights,
                                                      runtime::ServerConfig{});
  s->start();
  return s;
}

// Session bring-up of a persistent slot: connect (client compile,
// handshake, base OT), initial pool fill, then the session's first
// inference, which belongs to setup and to runtime.first_infer_ms only.
void bring_up(Shared& sh, runtime::InferenceServer& srv, Slot& s,
              size_t slot, uint64_t session) {
  const uint32_t lane = static_cast<uint32_t>(slot);
  ScopedSpan root("bench.session_setup", 0, 0, lane);
  const uint64_t op = root.id();
  {
    ScopedSpan sp("bench.connect", op, op, lane);
    Stopwatch sw;
    s.client = std::make_unique<runtime::InferenceClient>(
        "127.0.0.1", srv.port(), sh.m.spec, client_config(sh, slot, session));
    s.connect_ms.push_back(sw.millis());
  }
  runtime::InferenceClient& c = *s.client;
  if (sh.w.pooled) {
    ScopedSpan sp("bench.prefetch", op, op, lane);
    if (c.prefetch(kPoolTarget) < kPoolTarget)
      throw std::runtime_error("initial prefetch fell short of the quota");
  }
  s.next_input = slot;
  const double first = checked_infer(c, s, sh.m, sh.w.clients, op, op, lane);
  if (first >= 0) s.first_infer_ms.push_back(first);
  if (sh.w.pooled) {
    // The lane refills what the first inference consumed; the window
    // opens with a full store and a full local pool.
    wait_until("pool refill", 120.0, [&] {
      return c.prefetched() >= kPoolTarget && c.pool_ready() >= kPoolTarget;
    });
  }
}

void close_slot(Slot& s, uint32_t lane) {
  if (!s.client) return;
  ScopedSpan sp("bench.close", 0, 0, lane);
  try {
    s.client->close();
  } catch (const std::exception& e) {
    note_error(s, e.what());
  }
  s.client.reset();
}

// One churn operation: a whole session around one on-demand inference.
// Returns the operation's milliseconds, or negative on failure.
double churn_op(Shared& sh, runtime::InferenceServer& srv, Slot& s,
                size_t slot, uint64_t session) {
  const uint32_t lane = static_cast<uint32_t>(slot);
  ScopedSpan root("bench.session", 0, 0, lane);
  const uint64_t op = root.id();
  Stopwatch sw;
  const uint64_t failed_before = s.failed;
  bool inferred = false;  // checked_infer counts the attempt
  try {
    {
      ScopedSpan sp("bench.connect", op, op, lane);
      Stopwatch csw;
      s.client = std::make_unique<runtime::InferenceClient>(
          "127.0.0.1", srv.port(), sh.m.spec, client_config(sh, slot, session));
      s.connect_ms.push_back(csw.millis());
    }
    inferred = true;
    const double ms = checked_infer(*s.client, s, sh.m, sh.w.clients, op, op, lane);
    if (ms >= 0) s.first_infer_ms.push_back(ms);
    const TraceSums t = TraceSums::of(*s.client);
    s.trace_sum.garble += t.garble;
    s.trace_sum.ot += t.ot;
    s.trace_sum.eval += t.eval;
    {
      ScopedSpan sp("bench.close", op, op, lane);
      s.client->close();
    }
  } catch (const std::exception& e) {
    if (!inferred) ++s.attempted;
    if (s.failed == failed_before) note_error(s, e.what());
  }
  s.client.reset();
  return s.failed == failed_before ? sw.millis() : -1.0;
}

struct Instance {
  std::unique_ptr<runtime::InferenceServer> server;
  std::vector<Slot> slots;
};

// Setup: server start, then every slot in parallel (persistent: connect,
// pool fill, first inference; churn: one warm-up session). Returns
// seconds from workload start to the point the window may open.
double setup(Shared& sh, Instance& inst) {
  Stopwatch sw;
  inst.server = start_server(sh.m);
  inst.slots.clear();
  inst.slots.resize(sh.w.clients);
  std::vector<std::thread> th;
  for (size_t i = 0; i < sh.w.clients; ++i) {
    const uint64_t session = sh.sessions.fetch_add(1);
    th.emplace_back([&, i, session] {
      Slot& s = inst.slots[i];
      try {
        if (sh.w.churn) {
          s.next_input = i;
          (void)churn_op(sh, *inst.server, s, i, session);
        } else {
          bring_up(sh, *inst.server, s, i, session);
        }
      } catch (const std::exception& e) {
        note_error(s, e.what());
        if (s.attempted < s.failed) s.attempted = s.failed;
      }
    });
  }
  for (auto& t : th) t.join();
  return sw.seconds();
}

void teardown(Instance& inst) {
  for (size_t i = 0; i < inst.slots.size(); ++i)
    close_slot(inst.slots[i], static_cast<uint32_t>(i));
  if (inst.server) inst.server->stop();
}

double parse_accounted_fraction(const std::string& stats) {
  const char* key = "\"accounted_fraction\":";
  const size_t at = stats.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(stats.c_str() + at + std::strlen(key), nullptr);
}

struct Percentiles {
  double p50 = 0, p90 = 0;
  size_t n = 0;
};

Percentiles percentiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentiles{quantile(v, 0.5), quantile(v, 0.9), v.size()};
}

// Steady on-demand latency of one long session (mlp_churn has no steady
// samples of its own): the base runtime.first_infer_ms subtracts.
double steady_infer_ms(Shared& sh, runtime::InferenceServer& srv, Slot& s) {
  std::vector<double> ms;
  try {
    runtime::InferenceClient c("127.0.0.1", srv.port(), sh.m.spec,
                               client_config(sh, 99, sh.sessions.fetch_add(1)));
    for (int i = 0; i < 21; ++i) {
      const double t = checked_infer(c, s, sh.m, 1, 0, 0, 99);
      if (i > 0 && t >= 0) ms.push_back(t);
    }
    c.close();
  } catch (const std::exception& e) {
    ++s.attempted;
    note_error(s, e.what());
  }
  return median(ms);
}

// Closed-loop completion rate: per slot, operations over the time its
// operations took, summed over slots.
double closed_loop_rate(const std::vector<Slot>& slots, int half) {
  double rate = 0;
  for (const Slot& s : slots) {
    double busy = 0;
    for (double ms : s.lat_ms[half]) busy += ms / 1e3;
    if (busy > 0) rate += static_cast<double>(s.lat_ms[half].size()) / busy;
  }
  return rate;
}

std::string json_array(const std::vector<double>& v) {
  std::string a = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", v[i]);
    a += buf;
  }
  return a + "]";
}

}  // namespace

RunResult run_workload(const RunArgs& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wp = &w;
  if (wp == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  const Workload& w = *wp;

  // Inputs, weights and reference labels first; none of it is timed
  // except the compile, which is the synth layer's measurement.
  Stopwatch model_sw;
  Model m = make_model(w.model, args.seed, w.inputs);
  const double model_s = model_sw.seconds();
  // An untraced run needs the reference chain no longer: dropping it
  // keeps the benchmark's own copy out of peak_rss_mb. A traced run
  // keeps it for the per-layer probes.
  if (!args.trace) std::vector<Circuit>().swap(m.chain);
  // A traced run records setup too (no end-to-end metric comes from
  // it), runs the window's first half untraced and its second traced.
  if (args.trace) {
    obs::set_trace_ring_capacity(size_t{1} << 15);
    obs::set_trace_enabled(true);
  }

  Shared sh{w, m, args.seed};
  RunResult res;
  JsonObject detail;

  uint64_t ops_attempted = 0, ops_failed = 0;
  std::vector<double> setup_s, connect_ms, first_infer_ms;
  std::string first_error;
  // Moves a slot's operation counts and samples into the run totals.
  auto harvest = [&](Slot& s) {
    ops_attempted += s.attempted;
    ops_failed += s.failed;
    connect_ms.insert(connect_ms.end(), s.connect_ms.begin(), s.connect_ms.end());
    first_infer_ms.insert(first_infer_ms.end(), s.first_infer_ms.begin(),
                          s.first_infer_ms.end());
    if (first_error.empty()) first_error = s.error;
    s.attempted = s.failed = 0;
    s.connect_ms.clear();
    s.first_infer_ms.clear();
    s.error.clear();
  };

  // Setup, `repeats` times; the last instance serves the window.
  const Counters run_start = Counters::take();
  Instance inst;
  for (size_t r = 0; r < w.repeats; ++r) {
    if (r > 0) {
      teardown(inst);
      for (Slot& s : inst.slots) harvest(s);  // close() failures
      inst = Instance{};
    }
    setup_s.push_back(setup(sh, inst));
    for (Slot& s : inst.slots) harvest(s);
  }

  // Timed window. Closed loop: each slot issues its next operation when
  // the previous one completes, until the deadline. A traced run turns
  // tracing back on halfway; the halves give the tracing overhead.
  const double half = args.seconds / 2.0;
  const obs::Snapshot srv_before = inst.server->metrics().snapshot();
  const Counters before = Counters::take();
  for (Slot& s : inst.slots)
    if (s.client) s.trace_before = TraceSums::of(*s.client);
  obs::set_trace_enabled(false);
  const double cpu_before = cpu_seconds();
  const double steal_before = host_steal_s();
  Stopwatch window;
  std::vector<std::thread> th;
  for (size_t i = 0; i < w.clients; ++i) {
    th.emplace_back([&, i] {
      Slot& s = inst.slots[i];
      if (!w.churn && !s.client) return;  // bring-up failed (counted)
      while (window.seconds() < args.seconds) {
        const int h = args.trace && window.seconds() >= half ? 1 : 0;
        const double ms =
            w.churn ? churn_op(sh, *inst.server, s, i, sh.sessions.fetch_add(1))
                    : checked_infer(*s.client, s, m, w.clients, 0, 0,
                                    static_cast<uint32_t>(i));
        if (ms >= 0) {
          s.lat_ms[h].push_back(ms);
          ++s.completed;
        }
        s.busy_s = window.seconds();
      }
    });
  }
  if (args.trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(half));
    obs::set_trace_enabled(true);
    while (window.seconds() < args.seconds) {  // bound ring occupancy
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      obs::trace_drain();
    }
  }
  for (auto& t : th) t.join();
  const double cpu_s = cpu_seconds() - cpu_before;
  const double steal_s = host_steal_s() - steal_before;
  const Counters delta = Counters::take() - before;
  const obs::Snapshot srv = inst.server->metrics().snapshot().delta(srv_before);
  TraceSums tsum;
  for (Slot& s : inst.slots) {
    if (s.client) {
      const TraceSums t = TraceSums::of(*s.client);
      s.trace_sum.garble += t.garble - s.trace_before.garble;
      s.trace_sum.ot += t.ot - s.trace_before.ot;
      s.trace_sum.eval += t.eval - s.trace_before.eval;
    }
    tsum.garble += s.trace_sum.garble;
    tsum.ot += s.trace_sum.ot;
    tsum.eval += s.trace_sum.eval;
  }
  Slot probe;
  double steady_ms = 0.0;
  if (args.trace && w.churn) {
    steady_ms = steady_infer_ms(sh, *inst.server, probe);
  } else if (args.trace) {
    std::vector<double> all;
    for (const Slot& s : inst.slots)
      all.insert(all.end(), s.lat_ms[0].begin(), s.lat_ms[0].end());
    steady_ms = median(all);
  }
  teardown(inst);
  const std::string stats = inst.server->stats_json();
  const Counters whole_run = Counters::take() - run_start;

  // --- aggregate ------------------------------------------------------
  uint64_t completed = 0;
  double rate = 0;  // closed loop: sum of per-slot completion rates
  std::vector<double> lat[2];
  for (Slot& s : inst.slots) {
    completed += s.completed;
    if (s.busy_s > 0) rate += static_cast<double>(s.completed) / s.busy_s;
    for (int h = 0; h < 2; ++h)
      lat[h].insert(lat[h].end(), s.lat_ms[h].begin(), s.lat_ms[h].end());
  }
  const double rate_h[2] = {closed_loop_rate(inst.slots, 0),
                            closed_loop_rate(inst.slots, 1)};
  for (Slot& s : inst.slots) harvest(s);
  harvest(probe);
  // A client retry is a failure too: the self-healing path hides it.
  ops_failed += whole_run.retries;
  // One-shot audit from the server's public counters: each artifact is
  // consumed at most once and nothing is poisoned on a healthy run.
  const uint64_t pooled = inst.server->inferences_pooled();
  const uint64_t prefetched = inst.server->materials_prefetched();
  const bool audit_ok = pooled <= prefetched && whole_run.poisoned == 0 &&
                        whole_run.retries == 0;
  const bool correct = ops_failed == 0 && completed > 0 && (!w.pooled || audit_ok);
  res.attempted = std::max<uint64_t>(ops_attempted, 1);
  res.failed = ops_failed;
  if (!correct && res.failed == 0) res.failed = 1;

  const Percentiles p = percentiles(lat[0]);
  const double n = static_cast<double>(std::max<uint64_t>(completed, 1));
  res.end_to_end = {
      {"latency_p50_ms", p.p50, "ms"},
      {"latency_p90_ms", p.p90, "ms"},
      {"throughput_ips", rate, "1/s"},
      {"wire_mb_per_inference", static_cast<double>(delta.wire_bytes) / 1e6 / n, "MB"},
      {"cpu_s_per_inference", cpu_s / n, "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  const uint64_t served_w = srv.counter_value("server.inferences_served");
  const uint64_t pooled_w = srv.counter_value("server.inferences_pooled");
  const uint64_t pushed_w = srv.counter_value("server.materials_prefetched");
  detail.str("workload", w.name)
      .num("seed", static_cast<double>(args.seed))
      .num("window_s", args.seconds)
      .str("loop", "closed")
      .num("clients", static_cast<double>(w.clients))
      .num("reference_s", model_s)  // inputs, weights, labels (untimed)
      .num("completed", static_cast<double>(completed))
      .num("failed_fraction",
           static_cast<double>(res.failed) / static_cast<double>(res.attempted))
      // A percentile is resolved when >= 10 samples lie beyond it.
      .raw("latency_samples",
           JsonObject()
               .num("n", static_cast<double>(p.n))
               .num("beyond_p90", std::floor(static_cast<double>(p.n) * 0.1))
               .str("p90_resolved", p.n >= 100 ? "yes" : "no")
               .done())
      .raw("setup_s_samples", json_array(setup_s))
      .raw("wire_bases", JsonObject()
                             .num("bytes", static_cast<double>(delta.wire_bytes))
                             .num("inferences", static_cast<double>(completed))
                             .num("cpu_s", cpu_s)
                             .num("host_steal_s", steal_s)
                             .done())
      .raw("audit", JsonObject()
                        .num("inferences_served", static_cast<double>(inst.server->inferences_served()))
                        .num("inferences_pooled", static_cast<double>(pooled))
                        .num("materials_prefetched", static_cast<double>(prefetched))
                        .num("pool_poisoned", static_cast<double>(whole_run.poisoned))
                        .num("client_retries", static_cast<double>(whole_run.retries))
                        .str("result", audit_ok ? "ok" : "violated")
                        .done());
  if (!first_error.empty()) detail.str("first_error", first_error);

  if (args.trace) {
    Metrics& L = res.per_layer;
    probe_layers(m, w.repeats, L, detail);
    // Table bytes shipped in the window: one artifact per on-demand
    // inference plus one per lane push (pooled inferences ship none).
    uint64_t artifact_bytes = 0;
    for (const Circuit& c : m.chain)
      artifact_bytes += 2 * sizeof(Block) + c.stats().table_bytes();
    const uint64_t table_bytes = artifact_bytes * (served_w - pooled_w + pushed_w);
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    L.push_back({"net.bytes_copied_per_table_byte",
                 ratio(static_cast<double>(delta.bytes_copied),
                       static_cast<double>(table_bytes)), "ratio"});
    L.push_back({"net.syscalls_send_per_inference",
                 ratio(static_cast<double>(delta.syscalls_send), n), "count"});
    L.push_back({"runtime.connect_ms", median(connect_ms), "ms"});
    L.push_back({"runtime.first_infer_ms", median(first_infer_ms) - steady_ms, "ms"});
    const obs::Snapshot::Hist* disp = srv.find_hist("phase.dispatch");
    L.push_back({"runtime.dispatch_wait_p50_ms", disp ? disp->quantile(0.5) / 1e6 : 0.0, "ms"});
    L.push_back({"runtime.dispatch_wait_p90_ms", disp ? disp->quantile(0.9) / 1e6 : 0.0, "ms"});
    const obs::Snapshot::Hist* push = srv.find_hist("phase.prefetch_push");
    L.push_back({"runtime.prefetch_push_ms",
                 push ? ratio(static_cast<double>(push->sum) / 1e6,
                              static_cast<double>(push->count)) : 0.0, "ms"});
    L.push_back({"runtime.pool_hit_rate",
                 ratio(static_cast<double>(pooled_w), static_cast<double>(served_w)),
                 "ratio"});
    L.push_back({"runtime.accounted_fraction", parse_accounted_fraction(stats), "ratio"});
    L.push_back({"runtime.client_garble_s", tsum.garble / n, "s"});
    L.push_back({"runtime.client_ot_s", tsum.ot / n, "s"});
    L.push_back({"runtime.client_eval_s", tsum.eval / n, "s"});
    // Tracing overhead: the traced half of the window against the
    // untraced half of the same run (positive = tracing costs).
    const double p50_traced = percentiles(lat[1]).p50;
    L.push_back({"trace.overhead_latency_pct", ratio(p50_traced - p.p50, p.p50) * 100, "%"});
    L.push_back({"trace.overhead_throughput_pct",
                 ratio(rate_h[0] - rate_h[1], rate_h[0]) * 100, "%"});
    detail.raw("layer_window_bases",
               JsonObject()
                   .num("table_bytes", static_cast<double>(table_bytes))
                   .num("bytes_copied", static_cast<double>(delta.bytes_copied))
                   .num("syscalls_send", static_cast<double>(delta.syscalls_send))
                   .num("served", static_cast<double>(served_w))
                   .num("pooled", static_cast<double>(pooled_w))
                   .num("pushed", static_cast<double>(pushed_w))
                   .num("dispatch_samples", disp ? static_cast<double>(disp->count) : 0.0)
                   .num("connect_samples", static_cast<double>(connect_ms.size()))
                   .num("first_infer_samples", static_cast<double>(first_infer_ms.size()))
                   .num("steady_infer_ms", steady_ms)
                   .num("untraced_samples", static_cast<double>(lat[0].size()))
                   .num("traced_samples", static_cast<double>(lat[1].size()))
                   .num("untraced_p50_ms", p.p50)
                   .num("traced_p50_ms", p50_traced)
                   .done())
        .raw("server_stats", stats);
  }
  res.detail = detail.done();
  return res;
}

}  // namespace perfbench
