// Pooling and batching guarantees of the execution engine.
//
//  * Machine::reset(seed) + re-configuration must reproduce a freshly
//    constructed machine bit-exactly (cycles, stats, rng draw order) - the
//    MachinePool contract the MBPTA fresh-layout protocols rely on.
//  * MachinePool reuse-vs-fresh equality on seeded layouts, for policy
//    machines (all policies x partitioning, interpreted) and Setups
//    (timed by playing tapes, as the MBPTA experiments do).
//  * Machine::instr_block's same-line batching must yield exactly the
//    cycles and stats of per-instruction calls, on hit-friendly,
//    allocation-refusing (random-fill), quantized (TimeCache) and TTL
//    configurations alike; fetch_repeat() and load_repeat() charge
//    exactly probed hits (TTL expiries and writebacks included), and
//    fetch() reports a line resident only when it is.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/setup.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "rng/rng.h"
#include "runner/machine_pool.h"
#include "sim/machine.h"
#include "sim/tape.h"

namespace tsc::runner {
namespace {

/// Time, every MachineStats field and every CacheStats field of every
/// level (TTL expirations and flush counters included).
void expect_same_machine_state(sim::Machine& a, sim::Machine& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_TRUE(a.stats() == b.stats()) << "MachineStats differ";
  EXPECT_TRUE(a.hierarchy().l1i().stats() == b.hierarchy().l1i().stats())
      << "L1I stats differ";
  EXPECT_TRUE(a.hierarchy().l1d().stats() == b.hierarchy().l1d().stats())
      << "L1D stats differ";
  EXPECT_TRUE(a.hierarchy().l2().stats() == b.hierarchy().l2().stats())
      << "L2 stats differ";
}

/// A deterministic mixed workload exercising fetch, data, branch, reseed
/// and flush paths.
void drive(sim::Machine& m) {
  m.set_process(core::kMatrixVictim);
  for (int i = 0; i < 2000; ++i) {
    m.instr(0x1000 + 4 * (i % 128));
    m.load(0x2000, 0x80000 + 96 * i);
    if (i % 3 == 0) m.store(0x2004, 0x90000 + 32 * i);
    m.branch(0x2008, i % 5 == 0);
  }
  m.set_process(core::kMatrixAttacker);
  for (int i = 0; i < 500; ++i) m.load(0x3000, 0x80000 + 96 * i);
  m.set_seed(core::kMatrixVictim, Seed{0xABCD});
  m.set_process(core::kMatrixVictim);
  for (int i = 0; i < 500; ++i) m.load(0x3000, 0x80000 + 96 * i);
  m.flush_caches();
  for (int i = 0; i < 200; ++i) m.instr(0x1000 + 4 * i);
}

TEST(MachineReset, ReplaysFreshConstructionBitExactly) {
  for (const core::PlacementPolicy policy : core::all_policies()) {
    // A machine that already simulated a full (different-seed) deployment...
    auto reused = core::build_policy_machine(policy, 111, /*partitioned=*/false);
    drive(*reused);
    // ...reset + reconfigured must match a genuinely fresh twin exactly.
    reused->reset(core::policy_machine_rng_seed(222));
    core::configure_policy_machine(*reused, 222, /*partitioned=*/false);
    auto fresh = core::build_policy_machine(policy, 222, /*partitioned=*/false);
    drive(*reused);
    drive(*fresh);
    expect_same_machine_state(*reused, *fresh);
  }
}

TEST(MachinePoolTest, PolicyMachineReuseMatchesFreshOnSeededLayouts) {
  const isa::Program program =
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000);
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      MachinePool pool;
      // Dirty the slot with a full run under another deployment seed.
      {
        const PooledMachine lease = pool.policy_machine(policy, 7, partitioned);
        lease.machine.set_process(core::kMatrixVictim);
        lease.interpreter.load_program(program);
        (void)lease.interpreter.run(0x1000);
      }
      // Reuse under the seed of record, against a fresh build.
      const PooledMachine lease = pool.policy_machine(policy, 42, partitioned);
      lease.machine.set_process(core::kMatrixVictim);
      lease.interpreter.load_program(program);
      const isa::RunResult warm_a = lease.interpreter.run(0x1000);
      const isa::RunResult timed_a = lease.interpreter.run(0x1000);

      auto fresh = core::build_policy_machine(policy, 42, partitioned);
      fresh->set_process(core::kMatrixVictim);
      isa::Interpreter interp(*fresh);
      interp.load_program(program);
      const isa::RunResult warm_b = interp.run(0x1000);
      const isa::RunResult timed_b = interp.run(0x1000);

      EXPECT_EQ(warm_a.cycles, warm_b.cycles)
          << core::to_string(policy) << " partitioned=" << partitioned;
      EXPECT_EQ(timed_a.cycles, timed_b.cycles)
          << core::to_string(policy) << " partitioned=" << partitioned;
      expect_same_machine_state(lease.machine, *fresh);
    }
  }
}

TEST(MachinePoolTest, SetupReuseMatchesFreshSetup) {
  // Timed as the MBPTA experiments time it: a recorded warm and timed
  // pass played on the lease.
  const std::unique_ptr<sim::Machine> recorder = core::build_policy_machine(
      core::PlacementPolicy::kModulo, 0, /*partitioned=*/false);
  isa::Interpreter interpreter(*recorder);
  interpreter.load_program(
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000));
  const sim::Tape warm = sim::Tape::record(interpreter, 0x1000);
  const sim::Tape timed = sim::Tape::record(interpreter, 0x1000);
  constexpr ProcId kVictim{1};
  for (const core::SetupKind kind : core::all_setups()) {
    MachinePool pool;
    {
      core::Setup& lease = pool.setup(kind, 5);
      lease.register_process(kVictim);
      lease.machine().set_process(kVictim);
      (void)warm.play(lease.machine());
    }
    core::Setup& lease = pool.setup(kind, 77);
    lease.register_process(kVictim);
    lease.machine().set_process(kVictim);
    const Cycles pooled_warm = warm.play(lease.machine());
    const Cycles pooled_timed = timed.play(lease.machine());

    core::Setup fresh(kind, 77);
    fresh.register_process(kVictim);
    fresh.machine().set_process(kVictim);
    EXPECT_EQ(pooled_warm, warm.play(fresh.machine())) << core::to_string(kind);
    EXPECT_EQ(pooled_timed, timed.play(fresh.machine()))
        << core::to_string(kind);
    expect_same_machine_state(lease.machine(), fresh.machine());
  }
}

// --- instr_block batching --------------------------------------------------

sim::HierarchyConfig small_config() {
  sim::HierarchyConfig cfg;
  cfg.l1i.config.geometry = cache::Geometry(4096, 2, 32);
  cfg.l1d.config.geometry = cache::Geometry(4096, 2, 32);
  cache::CacheSpec l2;
  l2.config.geometry = cache::Geometry(32768, 4, 32);
  cfg.l2 = l2;
  return cfg;
}

void expect_instr_block_exact(sim::HierarchyConfig cfg, std::uint64_t seed) {
  sim::Machine batched(cfg, std::make_shared<rng::XorShift64Star>(seed));
  sim::Machine serial(cfg, std::make_shared<rng::XorShift64Star>(seed));
  // Mixed block shapes: line-aligned, mid-line starts, single instructions,
  // blocks spanning several lines, interleaved with data traffic.
  const struct {
    Addr pc;
    unsigned n;
  } blocks[] = {{0x2000, 64}, {0x2104, 7}, {0x2204, 1},  {0x221C, 3},
                {0x3000, 8},  {0x3010, 29}, {0x2000, 64}, {0x5FFC, 2}};
  for (const auto& block : blocks) {
    batched.instr_block(block.pc, block.n);
    for (unsigned i = 0; i < block.n; ++i) serial.instr(block.pc + 4 * i);
    batched.load(0x100, 0x8000 + block.pc % 4096);
    serial.load(0x100, 0x8000 + block.pc % 4096);
  }
  expect_same_machine_state(batched, serial);
}

TEST(InstrBlock, BatchedAccountingMatchesPerInstructionCalls) {
  // LRU (touch must stay idempotent), random replacement, and a random-fill
  // L1I whose misses do NOT leave the line resident (the batch must detect
  // that and fall back).
  expect_instr_block_exact(small_config(), 3);

  sim::HierarchyConfig random_repl = small_config();
  random_repl.l1i.replacement = cache::ReplacementKind::kRandom;
  random_repl.l1d.replacement = cache::ReplacementKind::kRandom;
  random_repl.l1i.mapper = cache::MapperKind::kHashRp;
  expect_instr_block_exact(random_repl, 11);

  sim::HierarchyConfig random_fill = small_config();
  random_fill.l1i.config.random_fill_window = 4;
  random_fill.l1i.replacement = cache::ReplacementKind::kRandom;
  expect_instr_block_exact(random_fill, 17);
}

TEST(InstrBlock, QuantizedAndTtlPlatformsMatchPerInstructionCalls) {
  // TimeCache: a guaranteed hit costs the quantum, and the batch charges
  // exactly that.  ClepsydraCache: a batch ticks the TTL clock once per
  // fetch; the short TTLs expire lines mid-sequence.
  expect_instr_block_exact(
      core::policy_hierarchy_config(core::PlacementPolicy::kTimeCache), 5);
  expect_instr_block_exact(
      core::policy_hierarchy_config(core::PlacementPolicy::kClepsydra), 23);
  sim::HierarchyConfig short_ttl = small_config();
  short_ttl.l1i.config.ttl_min = 3;
  short_ttl.l1i.config.ttl_max = 9;
  expect_instr_block_exact(short_ttl, 29);
}

TEST(FetchRepeat, ChargesExactlyAGuaranteedHit) {
  for (const auto policy :
       {core::PlacementPolicy::kModulo, core::PlacementPolicy::kTimeCache}) {
    sim::Machine m(core::policy_hierarchy_config(policy),
                   std::make_shared<rng::XorShift64Star>(1));
    EXPECT_TRUE(m.fetch(0x7000)) << core::to_string(policy);  // cold miss
    const Cycles before = m.now();
    const cache::CacheStats stats_before = m.hierarchy().l1i().stats();
    EXPECT_TRUE(m.fetch(0x7004));  // a probed hit of the same line
    const Cycles hit_cost = m.now() - before;
    m.fetch_repeat(5);
    EXPECT_EQ(m.now() - before, 6 * hit_cost) << core::to_string(policy);
    const cache::CacheStats after = m.hierarchy().l1i().stats();
    EXPECT_EQ(after.accesses, stats_before.accesses + 6);
    EXPECT_EQ(after.hits, stats_before.hits + 6);
    EXPECT_EQ(m.stats().instructions, 7u);
  }
  // A TTL L1I offers the repeat iff its TTLs last at least 2 accesses,
  // and then fetch_repeat(n) is n probed fetches on every CacheStats
  // field: the streak outlives the TTL of the line sharing its set.
  // (small_config's L1I: 64 sets x 2 ways of 32 bytes, set stride 2KB.)
  for (const std::uint32_t ttl_min : {1u, 2u, 3u}) {
    sim::HierarchyConfig cfg = small_config();
    cfg.l1i.config.ttl_min = ttl_min;
    cfg.l1i.config.ttl_max = ttl_min + 6;
    sim::Machine batched(cfg, std::make_shared<rng::XorShift64Star>(4));
    sim::Machine probed(cfg, std::make_shared<rng::XorShift64Star>(4));
    for (sim::Machine* m : {&batched, &probed}) {
      EXPECT_EQ(m->fetch(0x7800), ttl_min >= 2) << "ttl_min " << ttl_min;
      EXPECT_EQ(m->fetch(0x7000), ttl_min >= 2) << "ttl_min " << ttl_min;
    }
    if (ttl_min < 2) continue;
    batched.fetch_repeat(12);
    for (Addr i = 0; i < 12; ++i) (void)probed.fetch(0x7004 + 4 * (i % 7));
    EXPECT_EQ(batched.now(), probed.now()) << "ttl_min " << ttl_min;
    EXPECT_TRUE(batched.stats() == probed.stats()) << "ttl_min " << ttl_min;
    const cache::CacheStats got = batched.hierarchy().l1i().stats();
    EXPECT_TRUE(got == probed.hierarchy().l1i().stats())
        << "ttl_min " << ttl_min;
    EXPECT_EQ(got.ttl_expirations, 1u) << "ttl_min " << ttl_min;
    EXPECT_TRUE(batched.hierarchy().l1i().contains(ProcId{1}, 0x7000));
  }
}

TEST(LoadRepeat, ChargesExactlyAGuaranteedHit) {
  // load_repeat(n) against n probed loads of the same line, on the plain,
  // quantized and TTL platforms.  The stores first dirty more lines than
  // the L1D holds, so the streak line's set is full of dirty lines; on
  // ClepsydraCache their TTLs (512-4096 accesses) run out during the
  // 5000-load streak and each is written back on expiry.
  for (const auto policy :
       {core::PlacementPolicy::kModulo, core::PlacementPolicy::kTimeCache,
        core::PlacementPolicy::kClepsydra}) {
    const std::string label = core::to_string(policy);
    sim::Machine batched(core::policy_hierarchy_config(policy),
                         std::make_shared<rng::XorShift64Star>(6));
    sim::Machine probed(core::policy_hierarchy_config(policy),
                        std::make_shared<rng::XorShift64Star>(6));
    for (sim::Machine* m : {&batched, &probed}) {
      for (Addr i = 0; i < 1024; ++i) {
        EXPECT_TRUE(m->store_data(0x100000 + 32 * i)) << label;
      }
      EXPECT_TRUE(m->load_data(0x7000)) << label;
    }
    const cache::CacheStats before = batched.hierarchy().l1d().stats();
    batched.load_repeat(5000);
    for (Addr i = 0; i < 5000; ++i) {
      (void)probed.load_data(0x7000 + 4 * (i % 8));
    }
    EXPECT_EQ(batched.now(), probed.now()) << label;
    EXPECT_TRUE(batched.stats() == probed.stats()) << label;
    const cache::CacheStats after = batched.hierarchy().l1d().stats();
    EXPECT_TRUE(after == probed.hierarchy().l1d().stats()) << label;
    EXPECT_EQ(after.hits - before.hits, 5000u) << label;
    if (policy == core::PlacementPolicy::kClepsydra) {
      EXPECT_GT(after.ttl_expirations, before.ttl_expirations) << label;
      EXPECT_GT(after.writebacks, before.writebacks) << label;
    }
  }
}

/// Drive `m` with fetches and check fetch()'s residency verdict: a line
/// reported resident really is, and a miss reports it only when the fill
/// installed it.  Returns how many misses declined (reported false).
std::uint64_t declined_fetch_misses(sim::Machine& m, ProcId a, ProcId b) {
  std::uint64_t declined = 0;
  for (unsigned i = 0; i < 2000; ++i) {
    const ProcId proc = (i / 3) % 2 == 0 ? a : b;
    const Addr pc = 0x7000 + 32 * static_cast<Addr>((i * 37) % 300);
    m.set_process(proc);
    const cache::CacheStats before = m.hierarchy().l1i().stats();
    const bool resident = m.fetch(pc);
    const bool hit = m.hierarchy().l1i().stats().hits > before.hits;
    const bool contains = m.hierarchy().l1i().contains(proc, pc);
    if (resident) {
      EXPECT_TRUE(contains) << "fetch " << i;
    }
    if (hit) {
      EXPECT_TRUE(resident) << "fetch " << i;
    }
    if (!hit && !resident) ++declined;
  }
  return declined;
}

TEST(FetchRepeat, MissThatDeclinedToInstallIsNotResident) {
  // Random fill serves the demanded line without caching it.
  sim::HierarchyConfig random_fill = small_config();
  random_fill.l1i.config.random_fill_window = 4;
  sim::Machine rf(random_fill, std::make_shared<rng::XorShift64Star>(1));
  EXPECT_GT(declined_fetch_misses(rf, ProcId{1}, ProcId{1}), 0u);
  // RPCache secure contention declines fills that would evict another
  // process's line.
  sim::HierarchyConfig rp = small_config();
  rp.l1i.mapper = cache::MapperKind::kRpCache;
  sim::Machine rpm(rp, std::make_shared<rng::XorShift64Star>(2));
  EXPECT_GT(declined_fetch_misses(rpm, ProcId{1}, ProcId{2}), 0u);
  EXPECT_GT(rpm.hierarchy().l1i().stats().contention_evictions, 0u);
  // A conventional L1I installs every miss.
  sim::Machine plain(small_config(), std::make_shared<rng::XorShift64Star>(3));
  EXPECT_EQ(declined_fetch_misses(plain, ProcId{1}, ProcId{2}), 0u);
}

}  // namespace
}  // namespace tsc::runner
