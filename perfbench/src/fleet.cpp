#include "fleet.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace perfbench {

using ftt::numeric::Half;
namespace fc = ftt::core;
namespace fs = ftt::serve;

std::vector<double> widen(const Half* src, std::size_t rows, std::size_t d,
                          std::size_t ld) {
  std::vector<double> out(rows * d);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      out[r * d + c] = src[r * ld + c].to_float();
    }
  }
  return out;
}

void reference_row(const double* q, const double* k, const double* v,
                   std::size_t n, std::size_t d, double* out) {
  std::vector<double> s(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  double m = -INFINITY;
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) acc += q[c] * k[j * d + c];
    s[j] = acc * scale;
    m = std::max(m, s[j]);
  }
  double l = 0.0;
  std::fill(out, out + d, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double p = std::exp(s[j] - m);
    l += p;
    for (std::size_t c = 0; c < d; ++c) out[c] += p * v[j * d + c];
  }
  for (std::size_t c = 0; c < d; ++c) out[c] /= l;
}

FleetData::FleetData(std::size_t heads, std::size_t dim,
                     const std::vector<std::size_t>& contexts,
                     std::uint64_t seed)
    : heads(heads), dim(dim), ctx(contexts) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  const std::size_t hd = heads * dim;
  for (const std::size_t n : ctx) {
    k.emplace_back(n * hd);
    v.emplace_back(n * hd);
    q.emplace_back(fc::KvSlice::kTileRows * hd);
    for (auto& x : k.back()) x = Half(dist(rng));
    for (auto& x : v.back()) x = Half(dist(rng));
    for (auto& x : q.back()) x = Half(dist(rng));
  }
}

Fleet::Fleet(const FleetData& data, fc::TileFmt fmt)
    : data_(&data),
      pool_(fs::TilePoolOptions{1, data.heads, data.dim, 0,
                                ftt::abft::StridedAbft::kDefaultStride,
                                fc::ImagePolicy::kF16T}) {
  const std::size_t hd = data.heads * data.dim;
  for (std::size_t r = 0; r < data.ctx.size(); ++r) {
    const std::size_t n = data.ctx[r];
    out_.emplace_back(fc::KvSlice::kTileRows * hd, 0.0f);
    auto cache = std::make_unique<fs::PagedKvCache>(pool_, fmt);
    if (!cache->ensure_capacity(n)) throw std::runtime_error("fleet: pool full");
    for (std::size_t r0 = 0; r0 < n; r0 += fc::KvSlice::kTileRows) {
      const std::size_t rows = std::min(fc::KvSlice::kTileRows, n - r0);
      cache->append_chunk(
          0, std::span<const Half>(data.k[r].data() + r0 * hd, rows * hd),
          std::span<const Half>(data.v[r].data() + r0 * hd, rows * hd), rows);
    }
    caches_.push_back(std::move(cache));
  }
}

std::vector<fc::DecodeWorkItem> Fleet::items(std::size_t q_len) {
  const FleetData& d = *data_;
  const std::size_t hd = d.heads * d.dim;
  std::vector<fc::DecodeWorkItem> out;
  for (std::size_t r = 0; r < d.ctx.size(); ++r) {
    for (std::size_t h = 0; h < d.heads; ++h) {
      fc::DecodeWorkItem it;
      it.kv = caches_[r]->slice(0, h);
      it.q = d.q[r].data() + h * d.dim;
      it.out = out_[r].data() + h * d.dim;
      it.q_len = q_len;
      it.q_stride = hd;
      it.out_stride = hd;
      out.push_back(it);
    }
  }
  return out;
}

double Fleet::max_error(std::size_t q_len) const {
  const FleetData& d = *data_;
  const std::size_t hd = d.heads * d.dim;
  // Every row of a decode step; four spread rows of a prefill chunk (the
  // fp64 reference is O(context) per row).
  std::vector<std::size_t> rows;
  if (q_len <= 8) {
    for (std::size_t i = 0; i < q_len; ++i) rows.push_back(i);
  } else {
    rows = {0, q_len / 3, (2 * q_len) / 3, q_len - 1};
  }
  double worst = 0.0;
  std::vector<double> ref(d.dim);
  for (std::size_t r = 0; r < d.ctx.size(); ++r) {
    for (std::size_t h = 0; h < d.heads; ++h) {
      const std::size_t n = d.ctx[r];
      const auto q = widen(d.q[r].data() + h * d.dim, q_len, d.dim, hd);
      const auto k = widen(d.k[r].data() + h * d.dim, n, d.dim, hd);
      const auto v = widen(d.v[r].data() + h * d.dim, n, d.dim, hd);
      for (const std::size_t i : rows) {
        reference_row(q.data() + i * d.dim, k.data(), v.data(),
                      n - q_len + i + 1, d.dim, ref.data());
        for (std::size_t c = 0; c < d.dim; ++c) {
          const double e = std::fabs(
              static_cast<double>(out_[r][i * hd + h * d.dim + c]) - ref[c]);
          worst = std::isnan(e) ? INFINITY : std::max(worst, e);
        }
      }
    }
  }
  return worst;
}

}  // namespace perfbench
