// End-to-end benchmark of the fault-tolerant serving stack and the EFTA
// kernel.  One process runs one workload:
//
//   perfbench --workload <decode-long|serve-mixed|efta-attention>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// It prints a run record (machine, SIMD tiers, build type, seed, operation
// counts, every metric) and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones derived from
// spans.  The run record (and, when traced, every span) is also saved under
// --out-dir.  Exit code 1 means an output check failed; 2 a usage or
// runtime error.

#include <unistd.h>

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "numeric/fp16.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb = perfbench;

namespace {

struct Decl {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every workload (README.md gives each
// workload's reading of each one).
constexpr Decl kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_peak_mib", "MiB"},
    {"prefill_tokens_per_s", "tokens/s"},
    {"decode_tokens_per_s", "tokens/s"},
    {"decode_int8_tokens_per_s", "tokens/s"},
    {"kv_peak_bytes", "bytes"},
    {"kv_int8_peak_bytes", "bytes"},
    {"serve_tokens_per_s", "tokens/s"},
    {"ttft_p50_ms", "ms"},
    {"ttft_p90_ms", "ms"},
    {"itl_p50_ms", "ms"},
    {"itl_p90_ms", "ms"},
    {"attn_tokens_per_s", "tokens/s"},
};

// Every per-layer metric.  A workload reports the ones whose layer it
// exercises; the rest read 0 (that layer does no work in that workload).
constexpr Decl kPerLayer[] = {
    {"serve.tick_ms_p50", "ms"},
    {"serve.prefill_tick_ms_p50", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.rows_per_tick_mean", "rows"},
    {"serve.prefill_rows", "rows"},
    {"serve.shared_tiles", "count"},
    {"serve.evicted", "count"},
    {"serve.preempted", "count"},
    {"serve.kv_tiles_peak", "tiles"},
    {"transformer.linears_ms_per_tick", "ms"},
    {"transformer.linears_unprotected_ms_per_tick", "ms"},
    {"abft.linear_overhead", "ratio"},
    {"core.decode_batch_ms", "ms"},
    {"core.decode_batch_int8_ms", "ms"},
    {"core.prefill_chunk_ms", "ms"},
    {"core.kv_bytes_per_decode_token", "bytes"},
    {"core.efta_attention_ms", "ms"},
    {"core.efta_unprotected_ms", "ms"},
    {"core.protection_overhead", "ratio"},
    {"core.efta_per_iteration_ms", "ms"},
    {"core.modeled_overhead", "ratio"},
    {"attention.flash_ms", "ms"},
    {"attention.decoupled_ft_ms", "ms"},
    {"attention.decoupled_speedup", "ratio"},
    {"attention.modeled_decoupled_speedup", "ratio"},
    {"abft.element_gemm_ms", "ms"},
    {"softmax.dmr_ms", "ms"},
    {"numeric.gemm_f32_nnh_gflops", "GFLOP/s"},
    {"numeric.gemm_i8_gflops", "GFLOP/s"},
    {"sim.gemm_fp16_nt_gflops", "GFLOP/s"},
    {"fault.injected", "count"},
    {"fault.detected", "count"},
    {"fault.corrected", "count"},
    {"abft.clean_detections", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<decode-long|serve-mixed|efta-attention> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

std::string metrics_json(const std::vector<pb::Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Order `got` as `decl`; missing end-to-end metrics are an error, missing
/// per-layer ones read 0.
bool complete(std::vector<pb::Metric>& got, const Decl* decl, std::size_t n,
              bool fill_zero) {
  std::vector<pb::Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (const pb::Metric& m : got) {
      if (m.name == decl[i].name) {
        out.push_back({m.name, m.value, decl[i].unit});
        found = true;
        break;
      }
    }
    if (!found) {
      if (!fill_zero) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     decl[i].name);
        return false;
      }
      out.push_back({decl[i].name, 0.0, decl[i].unit});
    }
  }
  got = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  cfg.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        cfg.out_dir = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }

  pb::Result res;
  pb::tracer().enable(cfg.trace);
  (void)pb::now_s();  // start the run clock
  try {
    if (cfg.workload == "decode-long") {
      pb::run_decode_long(cfg, res);
    } else if (cfg.workload == "serve-mixed") {
      pb::run_serve_mixed(cfg, res);
    } else if (cfg.workload == "efta-attention") {
      pb::run_efta_attention(cfg, res);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }

  std::vector<pb::Metric>& printed = cfg.trace ? res.layer : res.e2e;
  if (cfg.trace) {
    complete(res.layer, kPerLayer, std::size(kPerLayer), true);
  } else if (!complete(res.e2e, kEndToEnd, std::size(kEndToEnd), false)) {
    return 2;
  }

  // ---------------------------------------------------------- run record --
  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                          "-trace" + (cfg.trace ? "1" : "0");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  char simd[256];
  std::snprintf(simd, sizeof simd,
                "fp16=%d gemm=%d gemm_avx512=%d gemm_f16c=%d int8=%d",
                ftt::numeric::simd_fp16_active(),
                ftt::numeric::simd_gemm_active(),
                ftt::numeric::simd_gemm_avx512_active(),
                ftt::numeric::simd_gemm_f16c_active(),
                ftt::numeric::simd_int8_active());
  std::printf("# workload   %s\n# seed       %llu\n# seconds    %g\n"
              "# trace      %d\n# cpu        %s\n# nproc      %ld\n"
              "# omp        %d threads\n# simd       %s\n# build      %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cpu_model().c_str(), nproc,
              omp_get_max_threads(), simd, PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : res.notes) {
    std::printf("# %-10s %s\n", k.c_str(), v.c_str());
  }
  std::printf("# ops        attempted %zu, failed %zu\n", res.attempted,
              res.failed);
  for (const pb::Metric& m : res.e2e) {
    std::printf("# e2e        %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const pb::Metric& m : res.layer) {
    std::printf("# layer      %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const auto totals = pb::tracer().totals();
  for (const auto& t : totals) {
    std::printf("# span       %-40s %6zu calls %12.3f ms total %12.3f ms self\n",
                t.name.c_str(), t.count, t.total_ms, t.self_ms);
  }
  for (const std::string& v : res.violations) {
    std::printf("# CHECK FAILED: %s\n", v.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  std::string record = "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
                       std::to_string(cfg.seed) +
                       ", \"trace\": " + (cfg.trace ? "1" : "0") +
                       ", \"cpu\": \"" + json_escape(cpu_model()) +
                       "\", \"nproc\": " + std::to_string(nproc) +
                       ", \"omp_threads\": " +
                       std::to_string(omp_get_max_threads()) +
                       ", \"simd\": \"" + simd + "\", \"build\": \"" +
                       PERFBENCH_BUILD_TYPE + "\", \"attempted\": " +
                       std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) +
                       ", \"e2e\": " + metrics_json(res.e2e) +
                       ", \"per_layer\": " + metrics_json(res.layer) +
                       ", \"notes\": {";
  for (std::size_t i = 0; i < res.notes.size(); ++i) {
    record += (i ? ", \"" : "\"") + json_escape(res.notes[i].first) +
              "\": \"" + json_escape(res.notes[i].second) + "\"";
  }
  record += "}, \"violations\": [";
  for (std::size_t i = 0; i < res.violations.size(); ++i) {
    record += (i ? ", \"" : "\"") + json_escape(res.violations[i]) + "\"";
  }
  record += "], \"span_totals\": [";
  for (std::size_t i = 0; i < totals.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"count\": %zu, \"total_ms\": %.4f, "
                  "\"self_ms\": %.4f}",
                  i ? ", " : "", totals[i].name.c_str(), totals[i].count,
                  totals[i].total_ms, totals[i].self_ms);
    record += buf;
  }
  record += "]}\n";
  {
    std::ofstream out(cfg.out_dir + "/" + tag + ".json");
    out << record;
  }
  if (cfg.trace) pb::tracer().write(cfg.out_dir + "/" + tag + "-spans.json");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              res.correct() ? "true" : "false", res.attempted, res.failed,
              metrics_json(printed).c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
