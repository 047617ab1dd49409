// Tests for the set-associative cache model (cache/cache.h, cache/builder.h).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cache/builder.h"
#include "cache/cache.h"

namespace tsc::cache {
namespace {

constexpr ProcId kP1{1};
constexpr ProcId kP2{2};

std::shared_ptr<rng::Rng> test_rng(std::uint64_t seed = 77) {
  return std::make_shared<rng::XorShift64Star>(seed);
}

// A tiny 4-set 2-way cache with 16B lines and modulo placement: conflicts
// are easy to construct by hand.
CacheSpec tiny_spec() {
  CacheSpec spec;
  spec.config.geometry = Geometry(128, 2, 16);  // 4 sets
  spec.mapper = MapperKind::kModulo;
  spec.replacement = ReplacementKind::kLru;
  return spec;
}

// Address with the given modulo set index and tag for the tiny geometry.
Addr tiny_addr(std::uint32_t set, std::uint64_t tag) {
  return (tag * 4 + set) * 16;
}

TEST(CacheModel, ColdMissThenHit) {
  auto c = build_cache(tiny_spec());
  EXPECT_FALSE(c->access(kP1, 0x100, false).hit);
  EXPECT_TRUE(c->access(kP1, 0x100, false).hit);
  EXPECT_TRUE(c->access(kP1, 0x10F, false).hit) << "same line, other byte";
  EXPECT_FALSE(c->access(kP1, 0x110, false).hit) << "next line";
  EXPECT_EQ(c->stats().accesses, 4u);
  EXPECT_EQ(c->stats().hits, 2u);
  EXPECT_EQ(c->stats().misses, 2u);
}

TEST(CacheModel, ConflictEvictionWithLru) {
  auto c = build_cache(tiny_spec());
  const Addr a = tiny_addr(2, 0);
  const Addr b = tiny_addr(2, 1);
  const Addr d = tiny_addr(2, 2);
  EXPECT_FALSE(c->access(kP1, a, false).hit);
  EXPECT_FALSE(c->access(kP1, b, false).hit);
  // Set 2 is full (2 ways).  Touch `a` so `b` is LRU, then load `d`.
  EXPECT_TRUE(c->access(kP1, a, false).hit);
  const AccessResult r = c->access(kP1, d, false);
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, c->geometry().line_addr(b));
  EXPECT_TRUE(c->access(kP1, a, false).hit) << "a must have survived";
  EXPECT_FALSE(c->access(kP1, b, false).hit) << "b was evicted";
}

TEST(CacheModel, NoConflictAcrossSets) {
  auto c = build_cache(tiny_spec());
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(c->access(kP1, tiny_addr(s, 0), false).hit);
    EXPECT_FALSE(c->access(kP1, tiny_addr(s, 1), false).hit);
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(c->access(kP1, tiny_addr(s, 0), false).hit);
    EXPECT_TRUE(c->access(kP1, tiny_addr(s, 1), false).hit);
  }
  EXPECT_EQ(c->stats().evictions, 0u);
}

TEST(CacheModel, WriteBackMarksDirtyAndWritesBackOnEviction) {
  auto c = build_cache(tiny_spec());
  const Addr a = tiny_addr(1, 0);
  c->access(kP1, a, true);  // write-allocate, dirty
  c->access(kP1, tiny_addr(1, 1), false);
  const AccessResult r = c->access(kP1, tiny_addr(1, 2), false);  // evicts a
  EXPECT_TRUE(r.writeback) << "dirty line must be written back";
  EXPECT_EQ(c->stats().writebacks, 1u);
}

TEST(CacheModel, CleanEvictionHasNoWriteback) {
  auto c = build_cache(tiny_spec());
  c->access(kP1, tiny_addr(1, 0), false);
  c->access(kP1, tiny_addr(1, 1), false);
  const AccessResult r = c->access(kP1, tiny_addr(1, 2), false);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(c->stats().writebacks, 0u);
}

TEST(CacheModel, WriteThroughNeverDirties) {
  CacheSpec spec = tiny_spec();
  spec.config.write_back = false;
  auto c = build_cache(spec);
  c->access(kP1, tiny_addr(0, 0), true);
  c->access(kP1, tiny_addr(0, 1), true);
  const AccessResult r = c->access(kP1, tiny_addr(0, 2), true);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(c->stats().writebacks, 0u);
}

TEST(CacheModel, WriteNoAllocateBypasses) {
  CacheSpec spec = tiny_spec();
  spec.config.write_allocate = false;
  auto c = build_cache(spec);
  const AccessResult r = c->access(kP1, tiny_addr(0, 0), true);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.allocated);
  EXPECT_FALSE(c->access(kP1, tiny_addr(0, 0), false).hit)
      << "write miss must not have installed the line";
}

TEST(CacheModel, FlushInvalidatesEverythingAndCounts) {
  auto c = build_cache(tiny_spec());
  c->access(kP1, tiny_addr(0, 0), true);   // dirty
  c->access(kP1, tiny_addr(1, 0), false);  // clean
  EXPECT_EQ(c->valid_lines(), 2u);
  const std::uint64_t flushed = c->flush();
  EXPECT_EQ(flushed, 2u);
  EXPECT_EQ(c->valid_lines(), 0u);
  EXPECT_EQ(c->stats().flushes, 1u);
  EXPECT_EQ(c->stats().flushed_lines, 2u);
  EXPECT_EQ(c->stats().writebacks, 1u) << "the dirty line needs a writeback";
  EXPECT_FALSE(c->access(kP1, tiny_addr(0, 0), false).hit);
}

TEST(CacheModel, ContainsDoesNotDisturbState) {
  auto c = build_cache(tiny_spec());
  c->access(kP1, tiny_addr(3, 0), false);
  const CacheStats before = c->stats();
  EXPECT_TRUE(c->contains(kP1, tiny_addr(3, 0)));
  EXPECT_FALSE(c->contains(kP1, tiny_addr(3, 1)));
  EXPECT_EQ(c->stats().accesses, before.accesses);
  EXPECT_EQ(c->stats().hits, before.hits);
}

TEST(CacheModel, SeedChangeRelocatesLinesForRandomPlacement) {
  CacheSpec spec = tiny_spec();
  spec.config.geometry = Geometry(4096, 2, 16);  // 128 sets
  spec.mapper = MapperKind::kHashRp;
  auto c = build_cache(spec, test_rng());
  c->set_seed(kP1, Seed{111});
  // Fill some lines under seed 111.
  for (Addr a = 0; a < 64 * 16; a += 16) c->access(kP1, a, false);
  const auto hits_before = c->stats().hits;
  // Under a new seed the same lines map elsewhere: lookups miss.
  c->set_seed(kP1, Seed{999});
  std::uint64_t rehits = 0;
  for (Addr a = 0; a < 64 * 16; a += 16) {
    if (c->access(kP1, a, false).hit) ++rehits;
  }
  EXPECT_EQ(hits_before, 0u);
  EXPECT_LT(rehits, 8u) << "most lines must be unreachable after a reseed "
                           "(the paper mandates flush-on-reseed for exactly "
                           "this consistency reason)";
}

TEST(CacheModel, PerProcessSeedsIsolatePlacement) {
  CacheSpec spec;
  spec.config.geometry = Geometry(4096, 2, 16);
  spec.mapper = MapperKind::kRandomModulo;
  auto c = build_cache(spec, test_rng());
  c->set_seed(kP1, Seed{0xAAAA});
  c->set_seed(kP2, Seed{0xBBBB});
  // The same physical line is mapped independently per process seed.
  const Addr a = 0x540;
  const std::uint32_t set1 = c->access(kP1, a, false).set;
  const std::uint32_t set2 = c->access(kP2, a, false).set;
  // (Not guaranteed different for every address; check over a few.)
  bool any_different = set1 != set2;
  for (Addr x = 0x1000; x < 0x1100 && !any_different; x += 16) {
    any_different =
        c->access(kP1, x, false).set != c->access(kP2, x, false).set;
  }
  EXPECT_TRUE(any_different);
}

// --- RPCache secure contention rule ------------------------------------------

TEST(RpCacheModel, ExternalContentionDoesNotAllocate) {
  CacheSpec spec;
  spec.config.geometry = Geometry(64, 1, 16);  // 4 sets, direct-mapped
  spec.mapper = MapperKind::kRpCache;
  spec.replacement = ReplacementKind::kLru;
  auto c = build_cache(spec, test_rng(3));
  // Both processes use the default seed -> identical permutation tables, so
  // same-index addresses of P1 and P2 contend on the same set.
  const Addr a = 0x40;        // index 0 (line 4 % 4)... set via table
  const Addr b = 0x80;        // different line
  // Find two addresses with equal modulo index: 0x40 -> line 4, idx 0;
  // 0x140 -> line 20, idx 0.
  const Addr x = 0x40;
  const Addr y = 0x140;
  c->access(kP1, x, false);
  ASSERT_TRUE(c->contains(kP1, x));
  const AccessResult r = c->access(kP2, y, false);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.allocated) << "secure rule: do not cache on contention";
  EXPECT_EQ(c->stats().contention_evictions, 1u);
  EXPECT_FALSE(c->contains(kP2, y));
  (void)a;
  (void)b;
}

TEST(RpCacheModel, SelfContentionBehavesNormally) {
  CacheSpec spec;
  spec.config.geometry = Geometry(64, 1, 16);  // 4 sets, direct-mapped
  spec.mapper = MapperKind::kRpCache;
  auto c = build_cache(spec, test_rng(4));
  const Addr x = 0x40;
  const Addr y = 0x140;  // same modulo index as x
  c->access(kP1, x, false);
  const AccessResult r = c->access(kP1, y, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.allocated) << "self-conflicts replace normally";
  EXPECT_TRUE(c->contains(kP1, y));
  EXPECT_FALSE(c->contains(kP1, x));
  EXPECT_EQ(c->stats().contention_evictions, 0u);
}

TEST(RpCacheModel, PermutationTablesDifferAcrossSeeds) {
  CacheSpec spec;
  spec.config.geometry = Geometry(16 * 1024, 4, 32);
  spec.mapper = MapperKind::kRpCache;
  auto c = build_cache(spec, test_rng(5));
  c->set_seed(kP1, Seed{1});
  std::set<std::uint32_t> sets_across_seeds;
  for (std::uint64_t s = 0; s < 32; ++s) {
    c->set_seed(kP1, Seed{s});
    sets_across_seeds.insert(c->access(kP1, 0x12340, false).set);
  }
  EXPECT_GT(sets_across_seeds.size(), 16u);
}

TEST(CacheBuilder, DescribeMentionsDesign) {
  CacheSpec spec = tiny_spec();
  const std::string d = spec.describe();
  EXPECT_NE(d.find("modulo"), std::string::npos);
  EXPECT_NE(d.find("lru"), std::string::npos);
}

TEST(CacheBuilder, MissingRngThrows) {
  CacheSpec spec = tiny_spec();
  spec.replacement = ReplacementKind::kRandom;
  EXPECT_THROW((void)build_cache(spec, nullptr), std::invalid_argument);
}

TEST(CacheModel, StatsResetKeepsContents) {
  auto c = build_cache(tiny_spec());
  c->access(kP1, 0x100, false);
  c->reset_stats();
  EXPECT_EQ(c->stats().accesses, 0u);
  EXPECT_TRUE(c->access(kP1, 0x100, false).hit) << "contents survived";
}

TEST(CacheModel, RepeatHitsMatchProbedHitsWhileANeighbourExpires) {
  // ClepsydraCache TTLs of 4-8 accesses.  The streak line shares set 1
  // with a dirty neighbour whose TTL runs out mid-streak: repeat_hits(20)
  // must reclaim and write it back exactly like 20 probed hits, and keep
  // the streak line itself alive although 20 exceeds its own TTL.
  CacheSpec spec = tiny_spec();
  spec.config.ttl_min = 4;
  spec.config.ttl_max = 8;
  auto batched = build_cache(spec, test_rng(5));
  auto probed = build_cache(spec, test_rng(5));
  ASSERT_TRUE(batched->repeat_hits_exact());
  const Addr streak = tiny_addr(1, 0);
  const Addr neighbour = tiny_addr(1, 1);
  for (Cache* c : {batched.get(), probed.get()}) {
    EXPECT_FALSE(c->access(kP1, neighbour, /*write=*/true).hit);
    EXPECT_FALSE(c->access(kP1, streak, false).hit);
  }
  batched->repeat_hits(20);
  for (Addr i = 0; i < 20; ++i) {
    EXPECT_TRUE(probed->access(kP1, streak + i % 16, false).hit);
  }
  EXPECT_TRUE(batched->stats() == probed->stats());
  EXPECT_EQ(batched->stats().ttl_expirations, 1u);
  EXPECT_EQ(batched->stats().writebacks, 1u);
  for (Cache* c : {batched.get(), probed.get()}) {
    EXPECT_TRUE(c->contains(kP1, streak));
    EXPECT_FALSE(c->contains(kP1, neighbour));
  }
  // The two caches carry on identically: the refreshed streak line hits,
  // the neighbour refills, and another streak follows the refilled line.
  for (Cache* c : {batched.get(), probed.get()}) {
    EXPECT_TRUE(c->access(kP1, streak, false).hit);
    EXPECT_FALSE(c->access(kP1, neighbour, false).hit);
  }
  batched->repeat_hits(3);
  for (int i = 0; i < 3; ++i) (void)probed->access(kP1, neighbour, false);
  EXPECT_TRUE(batched->stats() == probed->stats());
  EXPECT_EQ(batched->valid_lines(), probed->valid_lines());

  // A 1-access TTL kills a line at the next probe: no repeats.
  spec.config.ttl_min = 1;
  EXPECT_FALSE(build_cache(spec, test_rng())->repeat_hits_exact());
  EXPECT_TRUE(build_cache(tiny_spec())->repeat_hits_exact());
}

}  // namespace
}  // namespace tsc::cache
