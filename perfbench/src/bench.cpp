#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) violations.push_back(what);
}

void Result::add_rss_peak() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  add_e2e("rss_peak_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({intern(name), parent, now_s(), 0.0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int idx, const char* rename) {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = now_s();
  if (rename != nullptr) s.name = intern(rename);
  // Spans close in LIFO order; tolerate a caller closing an outer span
  // first by dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == idx) break;
  }
}

void Tracer::add(const char* name, double start, double end) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({intern(name), parent, start, end});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

std::vector<Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += (s.end - s.start) * 1e3;
    }
  }
  std::vector<Totals> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = (spans_[i].end - spans_[i].start) * 1e3;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += d;
    t.self_ms += std::max(0.0, d - child_ms[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}%s\n",
                 i, names_[s.name].c_str(), s.start, s.end, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::size_t> strata(std::size_t n, std::size_t lo, std::size_t hi,
                                std::mt19937_64& rng) {
  std::vector<std::size_t> out;
  const double width = static_cast<double>(hi - lo) / static_cast<double>(n);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(lo + static_cast<std::size_t>(
                           width * (static_cast<double>(k) + u(rng))));
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

}  // namespace perfbench
