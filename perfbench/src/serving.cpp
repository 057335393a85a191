// The two serving workloads: decode-long (a closed batch of long-context
// requests, fp16 KV then int8 KV) and serve-mixed (a closed loop with more
// clients than the batch cap over a bounded KV pool, ragged prompts half
// behind a shared system prompt, a quarter of the requests on int8 KV).
//
// Both drive serve::DecodeEngine through its public API one tick at a time
// and time every tick from outside.  A run repeats whole rounds — the same
// request script in a fresh engine — until --seconds have elapsed, so every
// run attempts the same operations in the same proportions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "fleet.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "serve/engine.hpp"
#include "sim/mma.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace perfbench {
namespace {

namespace fc = ftt::core;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

/// Documented int8-vs-fp16 hidden-state drift bound (docs/QUANTIZATION.md),
/// stated for the hidden state after the prefill plus 8 generated tokens.
constexpr double kInt8DriftBound = 0.25;
constexpr std::size_t kDriftTokens = 8;
/// Cached decode vs a from-scratch unprotected forward over the same rows:
/// the two differ only in attention summation order.
constexpr double kRecomputeTol = 2e-3;

struct Request {
  ft::MatrixF prompt;
  std::size_t budget = 0;
  fc::TileFmt fmt = fc::TileFmt::kF16;
  bool shared = false;  ///< starts with the shared system prompt
};

struct Outcome {
  bool completed = false;
  fs::RequestHealth health = fs::RequestHealth::kClean;
  std::vector<float> hidden;  ///< final hidden state at completion
  std::vector<float> early;   ///< hidden state after kDriftTokens tokens
  double submit = -1.0, admitted = -1.0, first_token = -1.0;
  std::vector<double> token_times;  ///< first token, then each decode commit
  std::size_t max_ctx = 0;
};

/// One pass of a request script through a fresh engine.
struct Pass {
  double makespan = 0.0;
  double prefill_s = 0.0;  ///< ticks carrying a prefill chunk
  std::size_t prefill_rows = 0;
  double decode_all_s = 0.0;  ///< ticks where every client's request decodes
  std::size_t decode_all_tokens = 0;
  /// Per-tick rates (rows/s) of the two tick classes above.  Their medians
  /// are the reported throughputs: a median over hundreds of ticks shrugs
  /// off the bursts of slowdown a shared machine injects, which a sum over
  /// time does not.
  std::vector<double> prefill_rate, decode_rate;
  std::size_t ticks = 0;
  std::size_t tokens_completed = 0;  ///< prompt + budget of completed requests
  std::size_t generated_f16 = 0, generated_i8 = 0;
  std::size_t kv_peak_bytes = 0, kv_tiles_peak = 0, kv_i8_peak_bytes = 0;
  fs::StepStats lifetime;
  std::vector<Outcome> out;
};

/// Closed loop: client c owns requests c, c + clients, c + 2 * clients, ...
/// and submits the next one as soon as the previous completes (its final
/// token is committed).  clients == reqs.size() is a closed batch.
Pass run_pass(const fx::Model& model, const fs::EngineOptions& opt,
              const std::vector<Request>& reqs, std::size_t clients) {
  Pass p;
  p.out.resize(reqs.size());
  fs::DecodeEngine engine(model, opt);
  std::vector<fs::DecodeEngine::RequestId> ids(reqs.size());
  std::vector<std::size_t> inflight;
  const double t0 = now_s();
  auto submit = [&](std::size_t i) {
    {
      Scope s("serve.submit");
      ids[i] = engine.submit_with_format(reqs[i].prompt, reqs[i].fmt,
                                         reqs[i].budget);
    }
    p.out[i].submit = now_s();
    inflight.push_back(i);
  };
  for (std::size_t c = 0; c < std::min(clients, reqs.size()); ++c) submit(c);

  std::size_t total_tokens = 0;
  for (const Request& r : reqs) total_tokens += r.prompt.rows() + r.budget;
  // Every tick commits at least one row while requests are in flight; a
  // stuck engine ends the pass with its requests counted as failed.
  const std::size_t max_ticks = 4 * total_tokens + 1024;
  std::size_t done = 0;
  double t_end = t0;
  while (done < reqs.size() && p.ticks < max_ticks) {
    const double ts = now_s();
    const int span = tracer().begin("serve.step");
    const fs::StepStats st = engine.step();
    const double te = now_s();
    tracer().end(span, st.prefill_chunks > 0 ? "serve.step_prefill" : nullptr);
    t_end = te;
    ++p.ticks;
    p.lifetime += st;
    if (st.prefill_chunks > 0) {
      p.prefill_s += te - ts;
      p.prefill_rows += st.prefill_rows;
      p.prefill_rate.push_back(st.prefill_rows / (te - ts));
    } else if (inflight.size() == clients && st.decoded == clients) {
      p.decode_all_s += te - ts;
      p.decode_all_tokens += st.decoded;
      p.decode_rate.push_back(st.decoded / (te - ts));
    }
    {
      Scope s("serve.pool_stats");
      p.kv_peak_bytes = std::max(p.kv_peak_bytes, engine.kv_bytes());
      p.kv_tiles_peak = std::max(p.kv_tiles_peak, engine.kv_tiles_in_use());
      std::set<fs::TilePool::TileId> i8_tiles;
      for (const std::size_t i : inflight) {
        if (reqs[i].fmt != fc::TileFmt::kI8) continue;
        for (const auto t : engine.kv_block_table(ids[i])) i8_tiles.insert(t);
      }
      p.kv_i8_peak_bytes =
          std::max(p.kv_i8_peak_bytes,
                   i8_tiles.size() * engine.pool().tile_bytes(fc::TileFmt::kI8));
    }

    std::vector<std::size_t> finished;
    for (const std::size_t i : inflight) {
      Outcome& o = p.out[i];
      const fs::RequestState state = engine.state(ids[i]);
      if (o.admitted < 0.0 && state != fs::RequestState::kQueued) {
        o.admitted = ts;
        tracer().add("serve.queue_wait", o.submit, ts);
      }
      if (state == fs::RequestState::kDecoding) {
        const std::size_t ctx = engine.context_length(ids[i]);
        if (o.first_token < 0.0 || ctx > o.max_ctx) {
          if (o.first_token < 0.0) o.first_token = te;
          o.token_times.push_back(te);
          o.max_ctx = ctx;
        }
        if (ctx == reqs[i].prompt.rows() + kDriftTokens) {
          const auto h = engine.hidden(ids[i]);
          o.early.assign(h.begin(), h.end());
        }
        if (ctx == reqs[i].prompt.rows() + reqs[i].budget) {
          o.completed = true;
          o.health = engine.health(ids[i]);
          const auto h = engine.hidden(ids[i]);
          o.hidden.assign(h.begin(), h.end());
          finished.push_back(i);
        }
      } else if (state == fs::RequestState::kRetired) {
        finished.push_back(i);  // retired before its budget: a failure
      }
    }
    for (const std::size_t i : finished) {
      inflight.erase(std::find(inflight.begin(), inflight.end(), i));
      ++done;
      if (p.out[i].completed) {
        p.tokens_completed += reqs[i].prompt.rows() + reqs[i].budget;
        (reqs[i].fmt == fc::TileFmt::kI8 ? p.generated_i8 : p.generated_f16) +=
            reqs[i].budget;
      }
      if (i + clients < reqs.size()) submit(i + clients);
    }
  }
  p.makespan = t_end - t0;
  return p;
}

/// The same request alone in a fresh engine, recording its fed rows.
struct Solo {
  bool completed = false;
  std::vector<float> hidden, early;
  ft::MatrixF fed;
};

Solo run_solo(const fx::Model& model, fs::EngineOptions opt,
              const Request& req, fc::TileFmt fmt) {
  opt.record_inputs = true;
  opt.scheduler.max_kv_tiles = 0;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit_with_format(req.prompt, fmt, req.budget);
  Solo s;
  const std::size_t target = req.prompt.rows() + req.budget;
  for (std::size_t t = 0; t < 4 * target + 64; ++t) {
    engine.step();
    const auto state = engine.state(id);
    if (state == fs::RequestState::kRetired) break;
    if (state != fs::RequestState::kDecoding) continue;
    if (engine.context_length(id) == req.prompt.rows() + kDriftTokens) {
      const auto h = engine.hidden(id);
      s.early.assign(h.begin(), h.end());
    }
    if (engine.context_length(id) == target) {
      s.completed = engine.health(id) == fs::RequestHealth::kClean;
      const auto h = engine.hidden(id);
      s.hidden.assign(h.begin(), h.end());
      s.fed = engine.fed_inputs(id);
      break;
    }
  }
  return s;
}

double max_abs_diff(const std::vector<float>& a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return INFINITY;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    if (std::isnan(d)) return INFINITY;
    m = std::max(m, d);
  }
  return m;
}

/// Bitwise equality of the batched result with a solo run, and the solo
/// run's final hidden state against a from-scratch unprotected forward over
/// its fed rows (fp16 only: int8 KV is lossy by design).
void check_sampled(const fx::Model& model, const fs::EngineOptions& opt,
                   const Request& req, const Outcome& batched,
                   const std::string& label, Result& res) {
  Solo solo;
  {
    Scope s("serve.solo_run");
    solo = run_solo(model, opt, req, req.fmt);
  }
  res.check(solo.completed, label + ": solo run did not finish clean");
  res.check(solo.hidden == batched.hidden,
            label + ": batched result differs bitwise from the solo run");
  if (req.fmt != fc::TileFmt::kF16) return;  // int8 KV is lossy by design
  res.check(solo.fed.rows() > 0, label + ": no fed rows recorded");
  if (solo.fed.rows() == 0) return;
  ft::MatrixF x = solo.fed;
  {
    Scope s("transformer.model_forward");
    model.forward(x, fx::AttentionKind::kStandard, /*protect_linear=*/false);
  }
  const double err = max_abs_diff(solo.hidden, x.row(x.rows() - 1));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: cached decode vs from-scratch forward max |diff| %.3g "
                "(tolerance %.3g)",
                label.c_str(), err, kRecomputeTol);
  res.check(err <= kRecomputeTol, buf);
  res.note(label + "_recompute", std::to_string(err));
}

void check_all_complete(const std::vector<Pass>& passes, Result& res,
                        const char* what) {
  for (const Pass& p : passes) {
    for (const Outcome& o : p.out) {
      res.check(o.completed, std::string(what) +
                                 ": a request retired before its budget");
      res.check(o.health == fs::RequestHealth::kClean,
                std::string(what) + ": a request finished not kClean");
    }
  }
}

/// Every round runs the same script, so every round's results must equal
/// the first round's bit for bit.
void check_rounds_agree(const std::vector<Pass>& passes, std::size_t stride,
                        Result& res, const char* what) {
  for (std::size_t r = stride; r < passes.size(); ++r) {
    const Pass& a = passes[r % stride];
    const Pass& b = passes[r];
    for (std::size_t i = 0; i < a.out.size(); ++i) {
      res.check(a.out[i].hidden == b.out[i].hidden,
                std::string(what) + ": a repeated round changed a result");
    }
  }
}

void latency_samples(const Pass& p, std::vector<double>& ttft,
                     std::vector<double>& itl) {
  for (const Outcome& o : p.out) {
    if (!o.completed) continue;
    ttft.push_back((o.first_token - o.submit) * 1e3);
    for (std::size_t t = 1; t < o.token_times.size(); ++t) {
      itl.push_back((o.token_times[t] - o.token_times[t - 1]) * 1e3);
    }
  }
}

double span_p50(const char* name) {
  return median(tracer().durations_ms(name));
}

/// Serving-layer per-layer metrics: latencies from the traced rounds' spans,
/// counts from `p`, the last traced pass.
void serve_layer_metrics(const Pass& p, Result& res) {
  std::vector<double> ticks = tracer().durations_ms("serve.step");
  const std::vector<double> pre = tracer().durations_ms("serve.step_prefill");
  ticks.insert(ticks.end(), pre.begin(), pre.end());
  res.add_layer("serve.tick_ms_p50", median(ticks), "ms");
  res.add_layer("serve.prefill_tick_ms_p50", median(pre), "ms");
  res.add_layer("serve.queue_wait_ms_p50", span_p50("serve.queue_wait"), "ms");
  res.add_layer("serve.rows_per_tick_mean",
                static_cast<double>(p.lifetime.active) /
                    static_cast<double>(std::max<std::size_t>(p.ticks, 1)),
                "rows");
  res.add_layer("serve.prefill_rows",
                static_cast<double>(p.lifetime.prefill_rows), "rows");
  res.add_layer("serve.shared_tiles",
                static_cast<double>(p.lifetime.shared_tiles), "count");
  res.add_layer("serve.evicted", static_cast<double>(p.lifetime.evicted),
                "count");
  res.add_layer("serve.preempted", static_cast<double>(p.lifetime.preempted),
                "count");
  res.add_layer("serve.kv_tiles_peak", static_cast<double>(p.kv_tiles_peak),
                "tiles");
}

/// Detections on a fault-free pass: attention reports plus linear ABFT
/// flags, each also noted in the run record.
std::size_t clean_detections(const Pass& p, Result& res) {
  res.note("clean_detections",
           std::to_string(p.lifetime.attention.total_detected()) +
               " attention, " + std::to_string(p.lifetime.linear.flagged) +
               " linear");
  return p.lifetime.attention.total_detected() + p.lifetime.linear.flagged;
}

/// Linear::forward over every weight shape of the model at `rows` rows,
/// protected and unprotected: the linears' share of one tick.
void replay_linears(const fx::Model& model, std::size_t rows,
                    std::uint64_t seed, Result& res) {
  const auto& cfg = model.config();
  ft::MatrixF x(rows, cfg.hidden), xi(rows, cfg.ffn_inner);
  ft::fill_normal(x, seed);
  ft::fill_normal(xi, seed + 1);
  ft::MatrixF y(rows, cfg.hidden), yi(rows, cfg.ffn_inner);
  auto tick = [&](fx::LinearProtect prot, const char* name) {
    Scope s(name);
    for (const fx::Block& b : model.blocks()) {
      for (const fx::Linear* l : {&b.wq(), &b.wk(), &b.wv(), &b.wo()}) {
        l->forward(x, y, prot);
      }
      b.ffn().w1().forward(x, yi, prot);
      b.ffn().w2().forward(xi, y, prot);
    }
  };
  for (int rep = 0; rep < 15; ++rep) {
    tick(fx::LinearProtect::kStridedAbft, "transformer.linears_protected");
    tick(fx::LinearProtect::kNone, "transformer.linears_unprotected");
  }
  const double prot = span_p50("transformer.linears_protected");
  const double plain = span_p50("transformer.linears_unprotected");
  res.add_layer("transformer.linears_ms_per_tick", prot, "ms");
  res.add_layer("transformer.linears_unprotected_ms_per_tick", plain, "ms");
  res.add_layer("abft.linear_overhead", plain > 0.0 ? prot / plain : 0.0,
                "ratio");
}

/// sim::gemm_fp16_nt at the model's linear shapes and `rows` rows.
void replay_sim_gemm(const fx::Model& model, std::size_t rows,
                     std::uint64_t seed, Result& res) {
  const auto& cfg = model.config();
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {cfg.hidden, cfg.hidden},
      {cfg.hidden, cfg.ffn_inner},
      {cfg.ffn_inner, cfg.hidden}};
  double flops = 0.0, secs = 0.0;
  for (const auto& [in, out] : shapes) {
    ft::MatrixH a(rows, in), b(out, in);
    ft::fill_normal(a, seed);
    ft::fill_normal(b, seed + 1);
    ft::MatrixF c(rows, out);
    for (int rep = 0; rep < 10; ++rep) {
      Scope s("sim.gemm_fp16_nt");
      ftt::sim::gemm_fp16_nt(a, b, c);
    }
    const std::vector<double> d = tracer().durations_ms("sim.gemm_fp16_nt");
    secs += median(std::vector<double>(d.end() - 10, d.end())) * 1e-3;
    flops += 2.0 * static_cast<double>(rows * in * out);
  }
  res.add_layer("sim.gemm_fp16_nt_gflops", flops / secs * 1e-9, "GFLOP/s");
}

/// The decode GEMM microkernels at the decode shape (one query row against
/// a 64 x 64 k-major tile), swept over 512 tiles so the operand streams from
/// memory the way a long-context decode step's does.
void replay_numeric(std::uint64_t seed, Result& res) {
  constexpr std::size_t kTiles = 512, kD = 64, kN = 64;
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> bh(kTiles * kD * kN);
  std::vector<std::int8_t> b8(kTiles * kD * kN);
  for (auto& x : bh) x = Half(dist(rng));
  for (auto& x : b8) x = static_cast<std::int8_t>(rng() % 255) - 127;
  std::vector<float> a(kD), c(kN * kTiles);
  for (auto& x : a) x = Half(dist(rng)).to_float();
  const double flops = 2.0 * kD * kN * kTiles;
  for (int rep = 0; rep < 40; ++rep) {
    Scope s("numeric.gemm_f32_nnh");
    for (std::size_t t = 0; t < kTiles; ++t) {
      ftt::numeric::gemm_f32_nnh(a.data(), 1, kD, bh.data() + t * kD * kN, kN,
                                 c.data() + t * kN, kN, false);
    }
  }
  for (int rep = 0; rep < 40; ++rep) {
    Scope s("numeric.gemm_f32_nn_i8");
    for (std::size_t t = 0; t < kTiles; ++t) {
      ftt::numeric::gemm_f32_nn_i8(a.data(), 1, kD, b8.data() + t * kD * kN,
                                   kN, 0.0625f, c.data() + t * kN, kN, false);
    }
  }
  res.add_layer("numeric.gemm_f32_nnh_gflops",
                flops / (span_p50("numeric.gemm_f32_nnh") * 1e-3) * 1e-9,
                "GFLOP/s");
  res.add_layer("numeric.gemm_i8_gflops",
                flops / (span_p50("numeric.gemm_f32_nn_i8") * 1e-3) * 1e-9,
                "GFLOP/s");
}

/// core::efta_decode_batch over a KV fleet at the workload's contexts.
void replay_core(const fx::Model& model, const std::vector<std::size_t>& ctx,
                 std::uint64_t seed, Result& res) {
  const auto& cfg = model.config();
  const FleetData data(cfg.heads, cfg.head_dim(), ctx, seed);
  Fleet f16(data, fc::TileFmt::kF16), i8(data, fc::TileFmt::kI8);
  auto items16 = f16.items(1), items8 = i8.items(1), chunk = f16.items(64);
  for (int rep = 0; rep < 40; ++rep) {
    {
      Scope s("core.efta_decode_batch");
      fc::efta_decode_batch(items16);
    }
    {
      Scope s("core.efta_decode_batch_int8");
      fc::efta_decode_batch(items8);
    }
  }
  for (int rep = 0; rep < 10; ++rep) {
    Scope s("core.efta_decode_batch_prefill");
    fc::efta_decode_batch(chunk);
  }
  res.add_layer("core.decode_batch_ms", span_p50("core.efta_decode_batch"),
                "ms");
  res.add_layer("core.decode_batch_int8_ms",
                span_p50("core.efta_decode_batch_int8"), "ms");
  res.add_layer("core.prefill_chunk_ms",
                span_p50("core.efta_decode_batch_prefill"), "ms");
  // Computed from tile sizes: every layer streams every sealed tile of the
  // context once per decoded token.
  double tiles = 0.0;
  for (const std::size_t n : ctx) {
    tiles += static_cast<double>((n + 63) / 64);
  }
  res.add_layer("core.kv_bytes_per_decode_token",
                tiles / static_cast<double>(ctx.size()) *
                    static_cast<double>(f16.pool().tile_bytes(fc::TileFmt::kF16)) *
                    static_cast<double>(cfg.layers),
                "bytes");
}

ft::MatrixF random_rows(std::size_t rows, std::size_t hidden,
                        std::uint64_t seed) {
  ft::MatrixF m(rows, hidden);
  ft::fill_normal(m, seed);
  return m;
}

}  // namespace

// --------------------------------------------------------------- decode-long

void run_decode_long(const RunConfig& cfg, Result& res) {
  constexpr std::size_t kRequests = 8, kBudget = 256;
  fx::ModelConfig mc = fx::ModelConfig::tiny();
  mc.causal = true;

  std::unique_ptr<fx::Model> model;
  std::vector<Request> f16, i8;
  fs::EngineOptions opt;
  const double setup = median_setup([&] {
    model = std::make_unique<fx::Model>(mc, 0x5eed ^ cfg.seed);
    std::mt19937_64 shape(kShapeSeed);
    const std::vector<std::size_t> lens = strata(kRequests, 1700, 2001, shape);
    f16.clear();
    i8.clear();
    for (std::size_t r = 0; r < kRequests; ++r) {
      Request q;
      q.prompt = random_rows(lens[r], mc.hidden, cfg.seed * 1000 + r);
      q.budget = kBudget;
      f16.push_back(q);
      q.fmt = fc::TileFmt::kI8;
      i8.push_back(std::move(q));
    }
    opt = fs::EngineOptions{};
    opt.kv_quant = false;  // formats are explicit per request
    opt.scheduler.max_batch_size = kRequests;
    fs::DecodeEngine warm(*model, opt);  // engine construction is set-up
  });
  res.add_e2e("setup_s", setup, "s");

  std::vector<Pass> passes;  // fp16, int8, fp16, int8, ...
  double trace_overhead = 0.0;
  const std::size_t rounds = run_rounds(
      cfg,
      [&] {
        passes.push_back(run_pass(*model, opt, f16, kRequests));
        passes.push_back(run_pass(*model, opt, i8, kRequests));
      },
      &trace_overhead);
  res.attempted = 2 * kRequests * rounds;
  res.add_rss_peak();

  // ------------------------------------------------------------- checks --
  check_all_complete(passes, res, "decode-long");
  check_rounds_agree(passes, 2, res, "decode-long");
  for (const Pass& p : passes) {
    for (const Outcome& o : p.out) res.failed += o.completed ? 0 : 1;
  }
  double drift = 0.0, final_drift = 0.0;
  for (std::size_t r = 0; r < kRequests; ++r) {
    drift = std::max(drift, max_abs_diff(passes[1].out[r].early,
                                         passes[0].out[r].early));
    final_drift = std::max(final_drift, max_abs_diff(passes[1].out[r].hidden,
                                                     passes[0].out[r].hidden));
  }
  res.note("int8_drift", std::to_string(drift) + " after " +
                             std::to_string(kDriftTokens) + " tokens, " +
                             std::to_string(final_drift) + " at the end");
  res.check(drift <= kInt8DriftBound,
            "decode-long: int8 drift from the fp16 pass " +
                std::to_string(drift) + " exceeds the documented bound");
  std::mt19937_64 pick(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  const std::size_t s16 = pick() % kRequests, s8 = pick() % kRequests;
  check_sampled(*model, opt, f16[s16], passes[0].out[s16], "decode-long fp16",
                res);
  check_sampled(*model, opt, i8[s8], passes[1].out[s8], "decode-long int8",
                res);

  // ------------------------------------------------------------ metrics --
  double span = 0;
  std::size_t tokens = 0, rows = 0, kv = 0, kv8 = 0;
  std::vector<double> pre, dec, dec8, ttft, itl;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    if (i % 2 == 0) {
      pre.insert(pre.end(), p.prefill_rate.begin(), p.prefill_rate.end());
      dec.insert(dec.end(), p.decode_rate.begin(), p.decode_rate.end());
      span += p.makespan;
      tokens += p.tokens_completed;
      rows += p.lifetime.active;
      kv = std::max(kv, p.kv_peak_bytes);
      latency_samples(p, ttft, itl);
    } else {
      dec8.insert(dec8.end(), p.decode_rate.begin(), p.decode_rate.end());
      kv8 = std::max(kv8, p.kv_peak_bytes);
    }
  }
  std::string per_round;
  for (std::size_t i = 0; i + 1 < passes.size(); i += 2) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%.0f/%.0f/%.0f", i ? " " : "",
                  passes[i].prefill_rows / passes[i].prefill_s,
                  passes[i].decode_all_tokens / passes[i].decode_all_s,
                  passes[i + 1].decode_all_tokens / passes[i + 1].decode_all_s);
    per_round += buf;
  }
  res.note("per_round", per_round + " (prefill/decode/int8 tokens/s)");
  res.add_e2e("prefill_tokens_per_s", median(pre), "tokens/s");
  res.add_e2e("decode_tokens_per_s", median(dec), "tokens/s");
  res.add_e2e("decode_int8_tokens_per_s", median(dec8), "tokens/s");
  res.add_e2e("kv_peak_bytes", static_cast<double>(kv), "bytes");
  res.add_e2e("kv_int8_peak_bytes", static_cast<double>(kv8), "bytes");
  res.add_e2e("serve_tokens_per_s", tokens / span, "tokens/s");
  res.add_e2e("ttft_p50_ms", quantile(ttft, 0.5), "ms");
  res.add_e2e("ttft_p90_ms", quantile(ttft, 0.9), "ms");
  res.add_e2e("itl_p50_ms", quantile(itl, 0.5), "ms");
  res.add_e2e("itl_p90_ms", quantile(itl, 0.9), "ms");
  res.add_e2e("attn_tokens_per_s", rows / span, "tokens/s");
  res.note("rounds", std::to_string(rounds));
  res.note("samples", "ttft " + std::to_string(ttft.size()) + ", itl " +
                          std::to_string(itl.size()));

  if (cfg.trace) {
    const Pass& last = passes[passes.size() - 2];  // traced round, fp16
    serve_layer_metrics(last, res);
    res.add_layer("abft.clean_detections",
                  static_cast<double>(clean_detections(passes[0], res) +
                                      clean_detections(passes[1], res)),
                  "count");
    res.add_layer("trace.overhead_pct", trace_overhead, "%");
    const std::size_t mean_rows = std::max<std::size_t>(
        1, last.lifetime.active / std::max<std::size_t>(last.ticks, 1));
    replay_linears(*model, mean_rows, cfg.seed, res);
    std::vector<std::size_t> ctx;
    for (const Request& q : f16) ctx.push_back(q.prompt.rows());
    replay_core(*model, ctx, cfg.seed, res);
    replay_numeric(cfg.seed, res);
  }
}

// --------------------------------------------------------------- serve-mixed

void run_serve_mixed(const RunConfig& cfg, Result& res) {
  constexpr std::size_t kClients = 12, kPerClient = 2, kBatch = 8;
  constexpr std::size_t kRequests = kClients * kPerClient;
  constexpr std::size_t kSystemRows = 192;  // three shared tiles
  constexpr std::size_t kPoolTiles = 24;
  fx::ModelConfig mc{"Serve", 4, 256, 4, 1024};
  mc.causal = true;

  std::unique_ptr<fx::Model> model;
  std::vector<Request> reqs;
  fs::EngineOptions opt;
  const double setup = median_setup([&] {
    model = std::make_unique<fx::Model>(mc, 0x5eed ^ cfg.seed);
    const ft::MatrixF system = random_rows(kSystemRows, mc.hidden, cfg.seed);
    // Request i: shared system prompt when i % 8 < 4, int8 KV when
    // i % 4 == 3 (so int8 requests are shared and unshared alike).
    std::mt19937_64 shape(kShapeSeed);
    const auto suffix = strata(kRequests / 2, 8, 97, shape);
    const auto own = strata(kRequests / 2, 32, 225, shape);
    const auto budget = strata(kRequests, 8, 49, shape);
    reqs.clear();
    std::size_t n_shared = 0, n_own = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      Request q;
      q.shared = i % 8 < 4;
      q.fmt = i % 4 == 3 ? fc::TileFmt::kI8 : fc::TileFmt::kF16;
      q.budget = budget[i];
      const std::size_t rows = q.shared ? suffix[n_shared++] : own[n_own++];
      const ft::MatrixF tail =
          random_rows(rows, mc.hidden, cfg.seed * 1000 + 17 + i);
      q.prompt = ft::MatrixF((q.shared ? kSystemRows : 0) + rows, mc.hidden);
      std::size_t r = 0;
      if (q.shared) {
        for (; r < kSystemRows; ++r) {
          std::copy(system.row(r).begin(), system.row(r).end(),
                    q.prompt.row(r).begin());
        }
      }
      for (std::size_t t = 0; t < rows; ++t, ++r) {
        std::copy(tail.row(t).begin(), tail.row(t).end(),
                  q.prompt.row(r).begin());
      }
      reqs.push_back(std::move(q));
    }
    opt = fs::EngineOptions{};
    opt.kv_quant = false;  // formats are explicit per request
    opt.scheduler.max_batch_size = kBatch;
    opt.scheduler.max_kv_tiles = kPoolTiles;
    fs::DecodeEngine warm(*model, opt);
  });
  res.add_e2e("setup_s", setup, "s");

  std::vector<Pass> passes;
  double trace_overhead = 0.0;
  const std::size_t rounds = run_rounds(
      cfg, [&] { passes.push_back(run_pass(*model, opt, reqs, kClients)); },
      &trace_overhead);
  res.attempted = reqs.size() * rounds;
  res.add_rss_peak();

  // ------------------------------------------------------------- checks --
  check_all_complete(passes, res, "serve-mixed");
  check_rounds_agree(passes, 1, res, "serve-mixed");
  for (const Pass& p : passes) {
    for (const Outcome& o : p.out) res.failed += o.completed ? 0 : 1;
  }
  // Sample one shared-prefix fp16 request, one unshared fp16 request and
  // one int8 request.
  std::mt19937_64 pick(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  auto sample = [&](auto pred) {
    std::vector<std::size_t> c;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (pred(reqs[i])) c.push_back(i);
    }
    if (c.empty()) throw std::runtime_error("serve-mixed: empty sample class");
    return c[pick() % c.size()];
  };
  const std::size_t sh = sample([](const Request& q) {
    return q.shared && q.fmt == fc::TileFmt::kF16;
  });
  const std::size_t un = sample([](const Request& q) {
    return !q.shared && q.fmt == fc::TileFmt::kF16;
  });
  const std::size_t q8 =
      sample([](const Request& q) { return q.fmt == fc::TileFmt::kI8; });
  check_sampled(*model, opt, reqs[sh], passes[0].out[sh],
                "serve-mixed shared fp16", res);
  check_sampled(*model, opt, reqs[un], passes[0].out[un],
                "serve-mixed unshared fp16", res);
  check_sampled(*model, opt, reqs[q8], passes[0].out[q8], "serve-mixed int8",
                res);
  {
    const Solo twin = run_solo(*model, opt, reqs[q8], fc::TileFmt::kF16);
    const double drift = max_abs_diff(passes[0].out[q8].early, twin.early);
    res.note("int8_drift", std::to_string(drift));
    res.check(drift <= kInt8DriftBound,
              "serve-mixed: int8 drift from the fp16 twin " +
                  std::to_string(drift) + " exceeds the documented bound");
  }

  // ------------------------------------------------------------ metrics --
  double span = 0, pre_s = 0;
  std::size_t pre_rows = 0, tokens = 0, rows = 0, g16 = 0, g8 = 0;
  std::size_t kv = 0, kv8 = 0;
  std::vector<double> ttft, itl;
  for (const Pass& p : passes) {
    span += p.makespan;
    pre_s += p.prefill_s;
    pre_rows += p.prefill_rows;
    tokens += p.tokens_completed;
    rows += p.lifetime.active;
    g16 += p.generated_f16;
    g8 += p.generated_i8;
    kv = std::max(kv, p.kv_peak_bytes);
    kv8 = std::max(kv8, p.kv_i8_peak_bytes);
    latency_samples(p, ttft, itl);
  }
  res.add_e2e("prefill_tokens_per_s", pre_rows / pre_s, "tokens/s");
  res.add_e2e("decode_tokens_per_s", g16 / span, "tokens/s");
  res.add_e2e("decode_int8_tokens_per_s", g8 / span, "tokens/s");
  res.add_e2e("kv_peak_bytes", static_cast<double>(kv), "bytes");
  res.add_e2e("kv_int8_peak_bytes", static_cast<double>(kv8), "bytes");
  res.add_e2e("serve_tokens_per_s", tokens / span, "tokens/s");
  res.add_e2e("ttft_p50_ms", quantile(ttft, 0.5), "ms");
  res.add_e2e("ttft_p90_ms", quantile(ttft, 0.9), "ms");
  res.add_e2e("itl_p50_ms", quantile(itl, 0.5), "ms");
  res.add_e2e("itl_p90_ms", quantile(itl, 0.9), "ms");
  res.add_e2e("attn_tokens_per_s", rows / span, "tokens/s");
  res.note("rounds", std::to_string(rounds));
  res.note("samples", "ttft " + std::to_string(ttft.size()) + ", itl " +
                          std::to_string(itl.size()));

  if (cfg.trace) {
    serve_layer_metrics(passes.back(), res);  // the traced round
    res.add_layer("abft.clean_detections",
                  static_cast<double>(clean_detections(passes[0], res)),
                  "count");
    res.add_layer("trace.overhead_pct", trace_overhead, "%");
    const std::size_t mean_rows = std::max<std::size_t>(
        1, passes.back().lifetime.active /
               std::max<std::size_t>(passes.back().ticks, 1));
    replay_linears(*model, mean_rows, cfg.seed, res);
    replay_sim_gemm(*model, mean_rows, cfg.seed, res);
  }
}

}  // namespace perfbench
