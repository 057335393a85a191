#pragma once
// A KV fleet built by the benchmark: one request per context length, each a
// paged KV cache over one production serve::TilePool (one layer, sealed
// encodings, fp16 tiles with pre-transposed images or int8 tiles), filled
// with seeded fp16 keys and values in 64-row chunks.  The decode kernel
// replays and the efta-attention workload's decode readings run
// core::efta_decode_batch over it; the fp16 keys, values and queries are
// kept so outputs can be checked against an fp64 reference.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/decode.hpp"
#include "serve/tile_pool.hpp"

namespace perfbench {

/// Seeded fp16 keys, values and queries of every fleet request, head-major
/// within a row: per request context x (heads * dim) keys and values and
/// 64 x (heads * dim) queries.
struct FleetData {
  FleetData(std::size_t heads, std::size_t dim,
            const std::vector<std::size_t>& contexts, std::uint64_t seed);

  std::size_t heads, dim;
  std::vector<std::size_t> ctx;
  std::vector<std::vector<ftt::numeric::Half>> k, v, q;
};

class Fleet {
 public:
  /// `data` must outlive the fleet.
  Fleet(const FleetData& data, ftt::core::TileFmt fmt);

  /// One work item per (request, head): the last `q_len` context rows as a
  /// causal query block (q_len = 1 is a decode step, 64 a prefill chunk).
  [[nodiscard]] std::vector<ftt::core::DecodeWorkItem> items(std::size_t q_len);

  /// Max |out - fp64 reference| over every item of the last call made with
  /// items(q_len).
  [[nodiscard]] double max_error(std::size_t q_len) const;

  [[nodiscard]] std::size_t bytes() const noexcept {
    return pool_.bytes_in_use();
  }
  [[nodiscard]] const ftt::serve::TilePool& pool() const noexcept {
    return pool_;
  }

 private:
  const FleetData* data_;
  ftt::serve::TilePool pool_;
  std::vector<std::unique_ptr<ftt::serve::PagedKvCache>> caches_;
  std::vector<std::vector<float>> out_;  ///< per request, like the queries
};

/// `rows` rows of `d` fp16 values read with row stride `ld` (in elements),
/// widened to a dense rows x d fp64 array.
std::vector<double> widen(const ftt::numeric::Half* src, std::size_t rows,
                          std::size_t d, std::size_t ld);

/// fp64 softmax(q K^T / sqrt(d)) V for one query row over the first `n` rows
/// of dense n x d keys and values.
void reference_row(const double* q, const double* k, const double* v,
                   std::size_t n, std::size_t d, double* out);

}  // namespace perfbench
