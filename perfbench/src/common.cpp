#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/benchmark_zoo.h"
#include "fixed/fixed_point.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace perfbench {

using namespace deepsecure;

namespace {

// The loadgen MLP: 8-6(ReLU)-3-argmax, 38,337 AND gates and 1,200
// evaluator-input bits (75 weights of 16 bits).
synth::ModelSpec loadgen_mlp() {
  synth::ModelSpec spec;
  spec.name = "loadgen_mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

synth::ModelSpec paper_b3pp() {
  for (const core::ZooEntry& z : core::paper_zoo())
    if (z.compact.name == "b3_pp") return z.compact;
  throw std::runtime_error("paper_zoo() has no b3_pp model");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

BitVec encode_input(const synth::ModelSpec& spec, const std::vector<float>& x) {
  BitVec bits;
  bits.reserve(x.size() * spec.fmt.total_bits);
  for (float v : x) {
    const BitVec b = Fixed::from_double(static_cast<double>(v), spec.fmt).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

std::vector<BitVec> eval_chain(const std::vector<Circuit>& chain,
                               const BitVec& weights, const BitVec& data) {
  std::vector<BitVec> outs;
  BitVec bits = data;
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    consumed += n;
    bits = c.eval(bits, w);
    outs.push_back(bits);
  }
  return outs;
}

Model make_model(ModelKind kind, uint64_t seed, size_t n_inputs) {
  Model m;
  m.spec = kind == ModelKind::kPaperB3pp ? paper_b3pp() : loadgen_mlp();
  // Weights in [-0.2, 0.2] and features in [-0.4, 0.4]: inside the
  // 16-bit format's range through every layer, so the garbled and the
  // plaintext chain compute the same saturating fixed-point function.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (size_t i = 0; i < synth::model_weight_count(m.spec); ++i) {
    const double v = rng.next_uniform(-0.2, 0.2);
    const BitVec b = Fixed::from_double(v, m.spec.fmt).to_bits();
    m.weights.insert(m.weights.end(), b.begin(), b.end());
  }
  m.inputs.resize(n_inputs);
  for (auto& x : m.inputs) {
    x.resize(m.spec.input.flat());
    for (float& v : x) v = static_cast<float>(rng.next_uniform(-0.4, 0.4));
  }

  Stopwatch sw;
  m.chain = synth::compile_model_layers(m.spec);
  m.compile_ms = sw.millis();

  // Reference labels, a few threads at a time (Circuit::eval is const).
  m.labels.assign(n_inputs, 0);
  const size_t workers = std::min<size_t>(
      4, std::max<size_t>(1, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w)
    pool.emplace_back([&, w] {
      for (size_t i = w; i < n_inputs; i += workers)
        m.labels[i] = static_cast<size_t>(from_bits(
            eval_chain(m.chain, m.weights, encode_input(m.spec, m.inputs[i]))
                .back()));
    });
  for (auto& t : pool) t.join();
  return m;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_++;
}

void SpanLog::record(const char* name, uint64_t id, uint64_t op,
                     uint64_t parent, uint32_t lane, uint64_t start_ns) {
  const uint64_t end = obs::now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  recs_.push_back(Rec{name, id, op, parent, lane, start_ns, end - start_ns});
}

std::string SpanLog::events_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[320];
  for (size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    // pid 2 keeps the benchmark's spans apart from the program's (pid 1).
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"op\":%llu,\"parent\":%llu}}",
                  i == 0 ? "" : ",", r.name, r.lane,
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.dur_ns) / 1e3,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.op),
                  static_cast<unsigned long long>(r.parent));
    out += buf;
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recs_.size();
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t op, uint64_t parent,
                       uint32_t lane)
    : name_(obs::trace_enabled() ? name : nullptr),
      op_(op),
      parent_(parent),
      id_(name_ != nullptr ? spans().next_id() : 0),
      lane_(lane),
      start_ns_(name_ != nullptr ? obs::now_ns() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (name_ != nullptr)
    spans().record(name_, id_, op_ == 0 ? id_ : op_, parent_, lane_, start_ns_);
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + json_escape(k) + "\":";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m[i].value) ? m[i].value : 0.0);
    out += (i == 0 ? "\"" : ",\"") + json_escape(m[i].name) +
           "\":{\"value\":" + buf + ",\"unit\":\"" + json_escape(m[i].unit) +
           "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
