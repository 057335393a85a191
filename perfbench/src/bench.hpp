#pragma once
// Shared pieces of the end-to-end benchmark: the run configuration, the
// result a workload fills (metrics, operation counts, check outcomes), the
// in-memory span tracer and a few order statistics.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the library (serve, transformer, core, attention, abft, softmax,
// numeric, sim, fault).  The tracer is off in untraced runs: begin() then
// returns -1 after one branch and nothing is stored.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (steady clock).
double now_s();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the run record and the span file go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> e2e;    ///< end-to-end metrics (untraced run)
  std::vector<Metric> layer;  ///< per-layer metrics (traced run)
  std::vector<std::string> violations;  ///< failed output checks
  std::vector<std::pair<std::string, std::string>> notes;  ///< record extras

  /// Record an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value,
                 const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  /// Record rss_peak_mib: the process's peak resident set so far.  Called
  /// right after the measured rounds, before the output checks, whose
  /// reference computations would otherwise set the peak.
  void add_rss_peak();
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  [[nodiscard]] bool correct() const noexcept { return violations.empty(); }
};

// ----------------------------------------------------------------- tracing --

class Tracer {
 public:
  struct Span {
    std::uint32_t name;   ///< index into the interned names
    std::int32_t parent;  ///< span index, -1 for a root
    double start;         ///< seconds (now_s clock)
    double end;
  };

  void enable(bool on) noexcept { enabled_ = on; }

  /// Open a span under the innermost open span; -1 when tracing is off.
  int begin(const char* name);
  /// Close span `idx` (no-op for -1).  `rename` relabels the span, for calls
  /// whose kind is known only afterwards (a tick that carried prefill).
  void end(int idx, const char* rename = nullptr);
  /// Record a finished interval under the innermost open span (queue waits,
  /// whose start predates the span that observes their end).
  void add(const char* name, double start, double end);

  /// Durations (ms) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Total and self time (ms) per span name: self = duration minus the part
  /// covered by child spans (children of one span never overlap: the
  /// benchmark calls every layer from one thread).
  struct Totals {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::vector<Totals> totals() const;
  /// Write every span as JSON (name, start, end, parent) to `path`.
  bool write(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<int> open_;
};

Tracer& tracer();

/// RAII span around one layer call.
class Scope {
 public:
  explicit Scope(const char* name) : idx_(tracer().begin(name)) {}
  ~Scope() { tracer().end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_;
};

// ------------------------------------------------------------------- stats --

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Seed of every workload's shape (prompt lengths, budgets, request order,
/// fleet contexts).  It is fixed so that --seed changes the data a run
/// serves, not its load: a seeded shape changes the queueing order, and
/// with it every latency percentile, far beyond run-to-run noise.
constexpr std::uint64_t kShapeSeed = 0x5ca1ab1eull;

/// `n` sizes spread over [lo, hi): one per equal-width stratum, jittered
/// inside it and shuffled by `rng`.
std::vector<std::size_t> strata(std::size_t n, std::size_t lo, std::size_t hi,
                                std::mt19937_64& rng);

/// setup_s: run a workload's whole set-up at least five times and until a
/// second has passed (the last one's objects are kept), and return the
/// median time.  The serving workloads set up in a tenth to a fifth of a
/// second, so they time ten or more set-ups, not one noisy reading.
template <typename F>
double median_setup(F&& setup) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 5 || now_s() - start < 1.0) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

/// Rounds of a traced run after its warm-up: untraced and traced, in turn.
constexpr std::size_t kTracePairs = 3;

/// Run rounds until `seconds` have elapsed (at least one).  A traced run
/// instead runs an untimed warm-up round (the process's first round pays
/// for cold caches and first-touch page faults), then kTracePairs untraced
/// and kTracePairs traced rounds in turn, and sets `trace_overhead_pct` to
/// the median traced round time over the median untraced one, minus one.
template <typename Round>
std::size_t run_rounds(const RunConfig& cfg, Round&& round,
                       double* trace_overhead_pct) {
  const double t0 = now_s();
  std::vector<double> untraced, traced;
  std::size_t n = 0;
  for (;; ++n) {
    const bool on = cfg.trace && n > 0 && n % 2 == 0;
    tracer().enable(on);
    const double r0 = now_s();
    {
      Scope s("round");
      round();
    }
    if (n > 0) (on ? traced : untraced).push_back(now_s() - r0);
    if (cfg.trace ? n == 2 * kTracePairs : now_s() - t0 >= cfg.seconds) break;
  }
  tracer().enable(cfg.trace);
  if (cfg.trace) {
    *trace_overhead_pct = (median(traced) / median(untraced) - 1.0) * 100.0;
  }
  return n + 1;
}

// --------------------------------------------------------------- workloads --

void run_decode_long(const RunConfig& cfg, Result& res);
void run_serve_mixed(const RunConfig& cfg, Result& res);
void run_efta_attention(const RunConfig& cfg, Result& res);

}  // namespace perfbench
