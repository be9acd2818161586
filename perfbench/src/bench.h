// Shared pieces of the repository benchmark: the generated model and
// inputs of a run, metric lists, sample statistics, and the benchmark's
// own span log (spans around every client call, keyed by operation id).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "synth/layer_circuits.h"

namespace perfbench {

using deepsecure::BitVec;
using deepsecure::Circuit;

/// One named measurement, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Everything generated from the workload seed before any timing: the
/// server's weights, the client inputs, and each input's plaintext
/// fixed-point label (the chain evaluated gate by gate with
/// Circuit::eval). `chain` is the benchmark's own compilation of the
/// model; its compile time is the synth layer's measurement.
struct Model {
  deepsecure::synth::ModelSpec spec;
  BitVec weights;
  std::vector<std::vector<float>> inputs;
  std::vector<size_t> labels;
  std::vector<Circuit> chain;
  double compile_ms = 0.0;
};

enum class ModelKind { kPaperB3pp, kLoadgenMlp };

/// Weights from `seed`; `n_inputs` inputs with their reference labels.
Model make_model(ModelKind kind, uint64_t seed, size_t n_inputs);

/// Circuit-0 garbler-input bits of `x` in the model's fixed-point format
/// (the encoding InferenceClient::infer applies).
BitVec encode_input(const deepsecure::synth::ModelSpec& spec,
                    const std::vector<float>& x);

/// Plaintext chain evaluation; returns every circuit's output bits
/// (back() is the label).
std::vector<BitVec> eval_chain(const std::vector<Circuit>& chain,
                               const BitVec& weights, const BitVec& data);

/// Linear-interpolated quantile q in [0,1] of a sorted sample.
double quantile(const std::vector<double>& sorted, double q);
double median(std::vector<double> v);

/// The benchmark's span log. Library spans (obs::Span inside src/) go to
/// the obs tracer; these record the benchmark's calls into the program,
/// each tagged with the operation it belongs to and its parent span, so
/// the spans of one inference or session can be grouped.
class SpanLog {
 public:
  /// Fresh operation / span identifier (never 0).
  uint64_t next_id();
  /// Records span `id` over [start_ns, now).
  void record(const char* name, uint64_t id, uint64_t op,
                  uint64_t parent, uint32_t lane, uint64_t start_ns);
  /// chrome://tracing events (comma-separated, no brackets).
  std::string events_json() const;
  size_t size() const;

 private:
  struct Rec {
    const char* name;
    uint64_t id, op, parent;
    uint32_t lane;
    uint64_t start_ns, dur_ns;
  };
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
  uint64_t next_ = 1;
};

SpanLog& spans();

/// Times one call into the program as a benchmark span (a no-op while
/// tracing is off). `op` 0 makes the span the root of its own operation.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t op, uint64_t parent = 0,
             uint32_t lane = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t op_, parent_, id_;
  uint32_t lane_;
  uint64_t start_ns_;
};

/// What a workload hands back: operation counts, the end-to-end metrics
/// (from the untraced window), the per-layer metrics (traced runs only),
/// and a JSON object of supporting detail (sample counts, bases, audit).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::string detail = "{}";
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs one workload (b3pp_ondemand, mlp_pooled or mlp_churn); throws
/// on an unknown name or a failure outside any operation.
RunResult run_workload(const RunArgs& args);

class JsonObject;

/// Per-layer probes on the workload's own model, sizes and chain (see
/// layers.cpp); appends to `out` and records bases in `detail`.
void probe_layers(Model& m, size_t reps, Metrics& out, JsonObject& detail);

/// Minimal JSON object writer for the detail block.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// {"name":{"value":v,"unit":"u"},...}
std::string metrics_json(const Metrics& m);

}  // namespace perfbench
