// Per-layer probes: each layer of the stack timed from outside through
// its public functions, on the workload's own model and sizes. Every
// probe runs after the timed window, so none of them perturbs it.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "crypto/hash_backend.h"
#include "gc/material.h"
#include "gc/ot.h"
#include "net/party.h"
#include "net/tcp_channel.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace perfbench {

using namespace deepsecure;

namespace {

Labels active(const Labels& zeros, const BitVec& bits, Block delta) {
  Labels out(zeros.size());
  for (size_t i = 0; i < zeros.size(); ++i)
    out[i] = bits[i] != 0 ? zeros[i] ^ delta : zeros[i];
  return out;
}

struct GcTiming {
  double garble_ms = 0.0;
  double eval_ms = 0.0;
};

// garble_offline + evaluate_material on `chain` in memory, `reps`
// times (median), checking the decoded output against `expect`.
GcTiming time_gc(const std::vector<Circuit>& chain, const BitVec& weights,
                 const BitVec& data, const BitVec& expect, size_t reps,
                 uint64_t seed) {
  std::vector<double> g, e;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    GarbledMaterial mat = garble_offline(chain, Block{seed, r + 1});
    g.push_back(sw.millis());
    EvalMaterial em;
    em.eval_labels = active(mat.eval_zeros, weights, mat.delta);
    em.decode_bits = std::move(mat.decode_bits);
    em.tables = std::move(mat.tables);
    const Labels data_labels = active(mat.data_zeros, data, mat.delta);
    sw.restart();
    const BitVec out = evaluate_material(chain, em, data_labels);
    e.push_back(sw.millis());
    if (out != expect)
      throw std::runtime_error("layer probe: garbled output != plaintext");
  }
  return GcTiming{median(g), median(e)};
}

double time_hash_ns_per_block() {
  const HashBackend& be = hash_backend();
  const size_t n = kGcMaxBatchWindow;
  std::vector<Block> in(n), out(n);
  std::vector<uint64_t> tweaks(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    in[i] = Block{rng.next_u64(), rng.next_u64()};
    tweaks[i] = i;
  }
  constexpr size_t kWindows = 256;
  std::vector<double> ns;
  for (int r = 0; r < 5; ++r) {
    Stopwatch sw;
    for (size_t w = 0; w < kWindows; ++w) {
      gc_hash_batch(be, in.data(), tweaks.data(), out.data(), n);
      in[w % n] ^= out[(w * 31) % n];  // keep the sweeps dependent
    }
    ns.push_back(sw.seconds() * 1e9 / static_cast<double>(kWindows * n));
  }
  return median(ns);
}

// Both ends run through run_two_party (net/party.h), which joins and
// rethrows a failure from either side.
double time_base_ot_ms() {
  std::vector<double> ms;
  for (uint64_t r = 0; r < 3; ++r) {
    std::vector<std::pair<Block, Block>> msgs(kOtExtKappa);
    BitVec choices(kOtExtKappa);
    Rng rng(r + 11);
    for (size_t i = 0; i < kOtExtKappa; ++i) {
      msgs[i] = {Block{rng.next_u64(), i}, Block{rng.next_u64(), i + 1}};
      choices[i] = rng.next_bool() ? 1 : 0;
    }
    std::vector<Block> got;
    const TwoPartyStats st = run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{r, 1});
          base_ot_send(ch, msgs, prg);
        },
        [&](Channel& ch) {
          Prg prg(Block{r, 2});
          got = base_ot_recv(ch, choices, prg);
        });
    ms.push_back(st.wall_seconds * 1e3);
    for (size_t i = 0; i < kOtExtKappa; ++i)
      if (!(got[i] == (choices[i] ? msgs[i].second : msgs[i].first)))
        throw std::runtime_error("layer probe: base OT returned a wrong block");
  }
  return median(ms);
}

// IKNP extension for `m` correlated label transfers, after setup.
double time_ot_ext_ms(size_t m) {
  std::vector<double> ms;
  for (uint64_t r = 0; r < 3; ++r) {
    std::vector<Block> zeros(m);
    BitVec choices(m);
    Rng rng(r + 21);
    for (size_t i = 0; i < m; ++i) {
      zeros[i] = Block{rng.next_u64(), rng.next_u64()};
      choices[i] = rng.next_bool() ? 1 : 0;
    }
    const Block delta{rng.next_u64() | 1, rng.next_u64()};
    std::vector<Block> got;
    double transfer_ms = 0.0;
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{r, 3});
          OtExtSender s(ch);
          s.setup(prg);
          s.send_correlated(zeros, delta);
        },
        [&](Channel& ch) {
          Prg prg(Block{r, 4});
          OtExtReceiver rcv(ch);
          rcv.setup(prg);
          Stopwatch sw;
          got = rcv.recv(choices);
          transfer_ms = sw.millis();
        });
    ms.push_back(transfer_ms);
    for (size_t i = 0; i < m; ++i)
      if (!(got[i] == (choices[i] ? zeros[i] ^ delta : zeros[i])))
        throw std::runtime_error("layer probe: OT extension wrong label");
  }
  return median(ms);
}

// A loopback TcpChannel pair shipping `bytes` (one inference's tables,
// at least 64 MB) in 4 MB sends; MB/s at the receiver.
double time_loopback_mb_per_s(uint64_t bytes) {
  bytes = std::max<uint64_t>(bytes, uint64_t{64} << 20);
  constexpr size_t kChunk = size_t{4} << 20;
  std::vector<uint8_t> buf(kChunk, 0x5a);
  TcpListener listener(0);
  double seconds = 0.0;
  std::exception_ptr err;
  std::thread rx([&] {
    try {
      TcpChannel ch = listener.accept();
      std::vector<uint8_t> in(kChunk);
      uint8_t go = 0;
      ch.recv_bytes(&go, 1);
      Stopwatch sw;
      for (uint64_t left = bytes; left > 0;) {
        const size_t n = static_cast<size_t>(std::min<uint64_t>(left, kChunk));
        ch.recv_bytes(in.data(), n);
        left -= n;
      }
      seconds = sw.seconds();
    } catch (...) {
      err = std::current_exception();
    }
  });
  try {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", listener.port());
    const uint8_t go = 1;
    ch.send_bytes(&go, 1);
    for (uint64_t left = bytes; left > 0;) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(left, kChunk));
      ch.send_bytes(buf.data(), n);
      left -= n;
    }
  } catch (...) {
    listener.close();
    rx.join();
    throw;
  }
  rx.join();
  if (err) std::rethrow_exception(err);
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace

void probe_layers(Model& m, size_t reps, Metrics& out, JsonObject& detail) {
  uint64_t and_gates = 0, eval_bits = 0, table_bytes = 0;
  for (const Circuit& c : m.chain) {
    and_gates += c.stats().num_and;
    eval_bits += c.evaluator_inputs.size();
    table_bytes += 2 * sizeof(Block) + c.stats().table_bytes();
  }
  out.push_back({"synth.compile_ms", m.compile_ms, "ms"});
  out.push_back({"synth.and_gates", static_cast<double>(and_gates), "count"});

  // First gc_scheduled() of each circuit. The flush points of the
  // scheduled view are warmed untimed, as the server's fingerprint
  // computation warms them, so the garble timings below exclude both.
  {
    ScopedSpan sp("bench.layer.schedule", 0);
    Stopwatch sw;
    for (const Circuit& c : m.chain) (void)c.gc_scheduled();
    out.push_back({"circuit.schedule_ms", sw.millis(), "ms"});
  }
  for (const Circuit& c : m.chain) (void)c.gc_scheduled()->gc_flush_points();

  {
    ScopedSpan sp("bench.layer.hash", 0);
    out.push_back({"crypto.hash_ns_per_block", time_hash_ns_per_block(), "ns"});
  }
  {
    ScopedSpan sp("bench.layer.base_ot", 0);
    out.push_back({"crypto.base_ot_ms", time_base_ot_ms(), "ms"});
  }

  const BitVec data = encode_input(m.spec, m.inputs.front());
  const std::vector<BitVec> plain = eval_chain(m.chain, m.weights, data);
  {
    ScopedSpan sp("bench.layer.gc", 0);
    const GcTiming whole = time_gc(m.chain, m.weights, data, plain.back(), reps, 41);
    out.push_back({"gc.garble_ms", whole.garble_ms, "ms"});
    out.push_back({"gc.eval_ms", whole.eval_ms, "ms"});
  }
  {
    ScopedSpan sp("bench.layer.ot_ext", 0);
    out.push_back({"gc.ot_ext_ms", time_ot_ext_ms(eval_bits), "ms"});
  }
  double mb_per_s = 0.0;
  {
    ScopedSpan sp("bench.layer.loopback", 0);
    mb_per_s = time_loopback_mb_per_s(table_bytes);
  }
  out.push_back({"net.loopback_mb_per_s", mb_per_s, "MB/s"});

  // The paper's Table 4, per NN layer: gates and table bytes counted,
  // garble/eval measured, and the Table 2 cost model calibrated to this
  // host (per-gate garbling costs from cost::calibrate, bandwidth from
  // the loopback probe above) as the prediction beside them.
  ScopedSpan table_span("bench.layer.table", 0);
  const cost::Calibration cal = cost::calibrate();
  cost::GcCostParams params;
  params.f_cpu_hz = 1e9;  // clocks per gate := nanoseconds per gate
  params.clk_per_xor = cal.ns_per_xor;
  params.clk_per_non_xor = cal.ns_per_non_xor;
  params.bandwidth_bytes_per_s = mb_per_s * 1e6;
  size_t consumed = 0;
  for (size_t k = 0; k < m.chain.size(); ++k) {
    const size_t n = m.chain[k].evaluator_inputs.size();
    const BitVec w(m.weights.begin() + static_cast<ptrdiff_t>(consumed),
                   m.weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    consumed += n;
    // Moved, not copied: a copy would drop the cached schedule.
    std::vector<Circuit> one;
    one.push_back(std::move(m.chain[k]));
    const CircuitStats st = one[0].stats();
    const GcTiming t = time_gc(one, w, k == 0 ? data : plain[k - 1], plain[k],
                               reps, 100 + k);
    m.chain[k] = std::move(one[0]);
    const cost::NetworkCost pred =
        cost::cost_from_gates(synth::GateCount{st.num_xor, st.num_and}, params);
    const std::string p = "gc.layer." + std::to_string(k) + ".";
    out.push_back({p + "and_gates", static_cast<double>(st.num_and), "count"});
    out.push_back({p + "table_mb", static_cast<double>(st.table_bytes()) / 1e6, "MB"});
    out.push_back({p + "garble_ms", t.garble_ms, "ms"});
    out.push_back({p + "eval_ms", t.eval_ms, "ms"});
    out.push_back({p + "model_ms", pred.exec_seconds * 1e3, "ms"});
  }

  detail.raw("layer_bases",
             JsonObject()
                 .num("evaluator_input_bits", static_cast<double>(eval_bits))
                 .num("table_bytes_per_inference", static_cast<double>(table_bytes))
                 .num("hash_window_blocks", static_cast<double>(kGcMaxBatchWindow))
                 .num("base_ots", static_cast<double>(kOtExtKappa))
                 .num("gc_reps", static_cast<double>(reps))
                 .num("calibrated_ns_per_and", cal.ns_per_non_xor)
                 .num("calibrated_ns_per_xor", cal.ns_per_xor)
                 .done());
}

}  // namespace perfbench
