// Exactness of the attack scorers against a reference oracle.
//
// The scorers in src/attack/metrics.cc compute each position's set (or
// monitored-line) marginal once and reuse it across all 256 x 256
// guess/value pairs.  The reference below is the earlier formulation that
// re-summed the marginal through the profile accessor on every use, kept
// verbatim.  Both must produce the same doubles bit for bit - the goldens
// depend on it - so scores are compared as bytes, never within a tolerance.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/metrics.h"
#include "attack/primeprobe.h"
#include "cache/geometry.h"
#include "crypto/sim_aes.h"
#include "rng/rng.h"

namespace tsc::attack {
namespace {

// --- reference oracle: one O(256) marginal re-sum per (pos, guess, value) ---
namespace reference {

template <typename CellMean, typename SetMean, typename Weight>
MatrixRanking score_contrast(const cache::Geometry& l1, Addr tables_base,
                             const crypto::Key& victim_key,
                             const CellMean& cell_mean,
                             const SetMean& set_mean, const Weight& weight) {
  MatrixRanking out;
  out.victim_key = victim_key;

  const std::uint32_t entries_per_line = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  const Addr tables_line = tables_base >> l1.offset_bits();
  const std::uint32_t sets_mask = l1.sets() - 1;

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table = static_cast<std::uint32_t>(pos) % 4;
    const Addr table_line = tables_line + table * lines_per_table;

    std::array<std::uint32_t, 256> set_of_value{};
    for (int x = 0; x < 256; ++x) {
      set_of_value[static_cast<std::size_t>(x)] = static_cast<std::uint32_t>(
          (table_line + static_cast<std::uint32_t>(x) / entries_per_line) &
          sets_mask);
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
                  (cell_mean(pos, v, s) - set_mean(pos, s));
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

MatrixRanking score_prime_probe(const PrimeProbeProfile& profile,
                                const cache::Geometry& l1, Addr tables_base,
                                const crypto::Key& victim_key) {
  return score_contrast(
      l1, tables_base, victim_key,
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, std::uint32_t s) { return profile.set_mean(pos, s); },
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

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table_base =
        (static_cast<std::uint32_t>(pos) % 4) * lines_per_table;

    std::array<double, 256> score{};
    for (int g = 0; g < 256; ++g) {
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t m =
            table_base + static_cast<std::uint32_t>(v ^ g) / entries_per_line;
        const std::uint64_t n = profile.cell_count(pos, v);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (profile.cell_mean(pos, v, m) - profile.line_mean(pos, m));
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
  return score_contrast(
      l1, tables_base, victim_key,
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, std::uint32_t s) { return profile.set_mean(pos, s); },
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_count(pos, v, s);
      });
}

}  // namespace reference

// --- fixtures ---------------------------------------------------------------

/// An L1 geometry plus the table base the attacker models it with.
struct ScoringFrame {
  const char* name;
  cache::Geometry l1;
  Addr tables_base;
};

// 32 B and 64 B lines, and set counts both above and below the number of
// table lines (the latter aliases several table lines onto one set).
const ScoringFrame kFrames[] = {
    {"32B_256sets", cache::Geometry(32 * 1024, 4, 32),
     crypto::SimAesLayout{}.tables},
    {"64B_64sets", cache::Geometry(16 * 1024, 4, 64),
     crypto::SimAesLayout{}.tables + 3 * 64},
    {"32B_16sets", cache::Geometry(1024, 2, 32), 0x0004'1020},
};

crypto::Key random_key(rng::XorShift64Star& g) {
  crypto::Key key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(g.next_below(256));
  return key;
}

crypto::Block random_block(rng::XorShift64Star& g) {
  crypto::Block pt{};
  for (auto& b : pt) b = static_cast<std::uint8_t>(g.next_below(256));
  return pt;
}

/// Modulo set of byte position `pos`'s round-1 lookup of `x` under `f`.
std::uint32_t predicted_set(const ScoringFrame& f, int pos, std::uint8_t x) {
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / f.l1.line_bytes();
  const Addr line = (f.tables_base >> f.l1.offset_bits()) +
                    static_cast<Addr>(pos % 4) * lines_per_table +
                    x / (f.l1.line_bytes() / 4);
  return static_cast<std::uint32_t>(line & (f.l1.sets() - 1));
}

// Trial counts stay far below 256 per position, so most (pos, value) cells
// receive no trials; every trial plants a weak key-dependent signal on top
// of random noise so the scores are spread out rather than tied.
PrimeProbeProfile random_pp_profile(const ScoringFrame& f, int trials,
                                    const crypto::Key& key,
                                    std::uint64_t seed) {
  PrimeProbeProfile profile(f.l1.sets());
  rng::XorShift64Star g(seed);
  std::vector<std::uint32_t> misses(f.l1.sets());
  for (int t = 0; t < trials; ++t) {
    const crypto::Block pt = random_block(g);
    for (auto& m : misses) m = static_cast<std::uint32_t>(g.next_below(4));
    for (int pos = 0; pos < 16; ++pos) {
      const auto x = static_cast<std::uint8_t>(pt[pos] ^ key[pos]);
      misses[predicted_set(f, pos, x)] +=
          static_cast<std::uint32_t>(g.next_below(3));
    }
    profile.add(pt, misses);
  }
  return profile;
}

EvictTimeProfile random_et_profile(const ScoringFrame& f, int trials,
                                   const crypto::Key& key,
                                   std::uint64_t seed) {
  EvictTimeProfile profile(f.l1.sets());
  rng::XorShift64Star g(seed);
  for (int t = 0; t < trials; ++t) {
    const crypto::Block pt = random_block(g);
    const auto evicted = static_cast<std::uint32_t>(t) % f.l1.sets();
    Cycles duration = 2000 + g.next_below(300);
    for (int pos = 0; pos < 16; ++pos) {
      const auto x = static_cast<std::uint8_t>(pt[pos] ^ key[pos]);
      if (predicted_set(f, pos, x) == evicted) duration += 40;
    }
    profile.add(pt, evicted, duration);
  }
  return profile;
}

FlushProfile random_flush_profile(const ScoringFrame& f, int trials,
                                  const crypto::Key& key,
                                  std::uint64_t seed) {
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / f.l1.line_bytes();
  FlushProfile profile(4 * lines_per_table);
  rng::XorShift64Star g(seed);
  std::vector<std::uint8_t> touched(profile.lines());
  for (int t = 0; t < trials; ++t) {
    const crypto::Block pt = random_block(g);
    for (auto& m : touched) m = static_cast<std::uint8_t>(g.next_below(5) == 0);
    for (int pos = 0; pos < 16; ++pos) {
      const auto x = static_cast<std::uint8_t>(pt[pos] ^ key[pos]);
      if (g.next_below(2) == 0) {
        touched[static_cast<std::uint32_t>(pos % 4) * lines_per_table +
                x / (f.l1.line_bytes() / 4)] = 1;
      }
    }
    profile.add(pt, touched);
  }
  return profile;
}

void expect_identical(const MatrixRanking& got, const MatrixRanking& want,
                      const std::string& what) {
  EXPECT_EQ(got.victim_key, want.victim_key) << what;
  for (std::size_t pos = 0; pos < 16; ++pos) {
    const ByteRanking& a = got.bytes[pos];
    const ByteRanking& b = want.bytes[pos];
    EXPECT_EQ(std::memcmp(a.score.data(), b.score.data(),
                          sizeof(double) * a.score.size()),
              0)
        << what << ": scores of position " << pos << " differ in bits";
    EXPECT_EQ(a.ranking, b.ranking) << what << ": ranking of position " << pos;
    EXPECT_EQ(a.true_rank, b.true_rank) << what << ": position " << pos;
  }
}

// --- tests ------------------------------------------------------------------

TEST(ScorerExactnessTest, PrimeProbeMatchesReferenceBitForBit) {
  rng::XorShift64Star g(11);
  for (const ScoringFrame& f : kFrames) {
    const crypto::Key key = random_key(g);
    const PrimeProbeProfile profile = random_pp_profile(f, 300, key, 101);
    expect_identical(score_prime_probe(profile, f.l1, f.tables_base, key),
                     reference::score_prime_probe(profile, f.l1,
                                                  f.tables_base, key),
                     f.name);
  }
}

TEST(ScorerExactnessTest, EvictTimeMatchesReferenceBitForBit) {
  rng::XorShift64Star g(12);
  for (const ScoringFrame& f : kFrames) {
    const crypto::Key key = random_key(g);
    const EvictTimeProfile profile = random_et_profile(f, 1500, key, 202);
    expect_identical(score_evict_time(profile, f.l1, f.tables_base, key),
                     reference::score_evict_time(profile, f.l1,
                                                 f.tables_base, key),
                     f.name);
  }
}

TEST(ScorerExactnessTest, FlushMatchesReferenceBitForBit) {
  rng::XorShift64Star g(13);
  for (const ScoringFrame& f : kFrames) {
    const crypto::Key key = random_key(g);
    const FlushProfile profile = random_flush_profile(f, 300, key, 303);
    expect_identical(score_flush(profile, f.l1, key),
                     reference::score_flush(profile, f.l1, key), f.name);
  }
}

TEST(ScorerExactnessTest, ProfilesWithoutTrialsMatchReference) {
  rng::XorShift64Star g(14);
  for (const ScoringFrame& f : kFrames) {
    const crypto::Key key = random_key(g);
    const PrimeProbeProfile pp(f.l1.sets());
    const EvictTimeProfile et(f.l1.sets());
    const FlushProfile fl(4 * crypto::SimAesLayout::kTableBytes /
                          f.l1.line_bytes());
    const MatrixRanking pp_rank =
        score_prime_probe(pp, f.l1, f.tables_base, key);
    expect_identical(pp_rank,
                     reference::score_prime_probe(pp, f.l1, f.tables_base,
                                                  key),
                     f.name);
    expect_identical(score_evict_time(et, f.l1, f.tables_base, key),
                     reference::score_evict_time(et, f.l1, f.tables_base,
                                                 key),
                     f.name);
    expect_identical(score_flush(fl, f.l1, key),
                     reference::score_flush(fl, f.l1, key), f.name);
    // No evidence at all: every guess scores exactly 0 and the stable
    // ranking keeps value order, so the true rank is the key byte itself.
    for (std::size_t pos = 0; pos < 16; ++pos) {
      for (const double s : pp_rank.bytes[pos].score) EXPECT_EQ(s, 0.0);
      EXPECT_EQ(pp_rank.bytes[pos].true_rank, key[pos]);
    }
  }
}

TEST(ScorerExactnessTest, PlantedSignalIsRankedAboveChance) {
  // Guards the fixtures: a profile without score spread would make the
  // ranking comparison above vacuous.
  const ScoringFrame& f = kFrames[0];
  rng::XorShift64Star g(15);
  const crypto::Key key = random_key(g);
  const MatrixRanking rank = score_prime_probe(
      random_pp_profile(f, 300, key, 101), f.l1, f.tables_base, key);
  EXPECT_LT(rank.mean_true_rank(), 64.0);
}

}  // namespace
}  // namespace tsc::attack
