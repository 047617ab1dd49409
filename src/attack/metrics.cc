#include "attack/metrics.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

namespace tsc::attack {

double MatrixRanking::mean_true_rank() const {
  double acc = 0;
  for (const ByteRanking& b : bytes) acc += b.true_rank;
  return acc / 16.0;
}

int MatrixRanking::best_true_rank() const {
  int best = 255;
  for (const ByteRanking& b : bytes) best = std::min(best, b.true_rank);
  return best;
}

int MatrixRanking::line_resolved_bytes() const {
  int n = 0;
  for (const ByteRanking& b : bytes) {
    if (b.true_rank < 8) ++n;
  }
  return n;
}

ByteRanking rank_scores(const std::array<double, 256>& score,
                        std::uint8_t truth) {
  ByteRanking out;
  out.score = score;
  std::iota(out.ranking.begin(), out.ranking.end(), 0);
  std::stable_sort(out.ranking.begin(), out.ranking.end(),
                   [&](std::uint8_t a, std::uint8_t b) {
                     return out.score[a] > out.score[b];
                   });
  const auto it = std::find(out.ranking.begin(), out.ranking.end(), truth);
  out.true_rank = static_cast<int>(it - out.ranking.begin());
  return out;
}

namespace {

/// The shared predicted-set contrast: for every position and guess, the
/// weighted mean excess of `profile.cell_mean(pos, v, s)` over
/// `profile.set_mean(pos, s)` at the predicted set s of value v ^ g, with
/// trial-count weights from the (pos, value, set) accessor `weight`.
template <typename Profile, typename Weight>
MatrixRanking score_contrast(const Profile& profile, const cache::Geometry& l1,
                             Addr tables_base, const crypto::Key& victim_key,
                             const Weight& weight) {
  MatrixRanking out;
  out.victim_key = victim_key;

  const std::uint32_t entries_per_line = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  const Addr tables_line = tables_base >> l1.offset_bits();
  const std::uint32_t sets_mask = l1.sets() - 1;
  assert(profile.sets() == l1.sets());
  std::vector<double> set_mean(profile.sets());

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table = static_cast<std::uint32_t>(pos) % 4;
    const Addr table_line = tables_line + table * lines_per_table;

    // Predicted modulo set of value x's round-1 lookup (independent of the
    // guess: guess g shifts which VALUE maps where, not the set list).
    std::array<std::uint32_t, 256> set_of_value{};
    for (int x = 0; x < 256; ++x) {
      set_of_value[static_cast<std::size_t>(x)] = static_cast<std::uint32_t>(
          (table_line + static_cast<std::uint32_t>(x) / entries_per_line) &
          sets_mask);
    }
    // Each set's marginal depends on (pos, set) only: sum it once here,
    // not once per (guess, value).
    for (std::uint32_t s = 0; s < profile.sets(); ++s) {
      set_mean[s] = profile.set_mean(pos, s);
    }

    std::array<double, 256> score{};
    for (int g = 0; g < 256; ++g) {
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t s = set_of_value[static_cast<std::size_t>(v ^ g)];
        const std::uint64_t n = weight(pos, v, s);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (profile.cell_mean(pos, v, s) - set_mean[s]);
        total += n;
      }
      score[static_cast<std::size_t>(g)] =
          total == 0 ? 0.0 : excess / static_cast<double>(total);
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

}  // namespace

MatrixRanking score_prime_probe(const PrimeProbeProfile& profile,
                                const cache::Geometry& l1, Addr tables_base,
                                const crypto::Key& victim_key) {
  // Every trial observes every set, so the weight of a (pos, value) cell is
  // its trial count regardless of the set consulted.
  return score_contrast(profile, l1, tables_base, victim_key,
                        [&](int pos, int v, std::uint32_t) {
                          return profile.cell_count(pos, v);
                        });
}

MatrixRanking score_flush(const FlushProfile& profile,
                          const cache::Geometry& l1,
                          const crypto::Key& victim_key) {
  MatrixRanking out;
  out.victim_key = victim_key;

  const std::uint32_t entries_per_line = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  assert(profile.lines() == 4 * lines_per_table);
  std::vector<double> line_mean(profile.lines());

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table_base =
        (static_cast<std::uint32_t>(pos) % 4) * lines_per_table;
    for (std::uint32_t m = 0; m < profile.lines(); ++m) {
      line_mean[m] = profile.line_mean(pos, m);
    }

    std::array<double, 256> score{};
    for (int g = 0; g < 256; ++g) {
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        // The predicted monitored line is addressed directly - the flush
        // channel has no placement frame to get wrong.
        const std::uint32_t m =
            table_base + static_cast<std::uint32_t>(v ^ g) / entries_per_line;
        const std::uint64_t n = profile.cell_count(pos, v);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (profile.cell_mean(pos, v, m) - line_mean[m]);
        total += n;
      }
      score[static_cast<std::size_t>(g)] =
          total == 0 ? 0.0 : excess / static_cast<double>(total);
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

MatrixRanking score_evict_time(const EvictTimeProfile& profile,
                               const cache::Geometry& l1, Addr tables_base,
                               const crypto::Key& victim_key) {
  // Each trial evicts exactly one set, so only the trials whose sweep index
  // matched the prediction carry weight.
  return score_contrast(profile, l1, tables_base, victim_key,
                        [&](int pos, int v, std::uint32_t s) {
                          return profile.cell_count(pos, v, s);
                        });
}

}  // namespace tsc::attack
