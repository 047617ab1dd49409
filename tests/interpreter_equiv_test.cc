// Equivalence tests for the pre-decoded execution engine.
//
// Interpreter::run fetches through a PC-indexed decode cache and the flat
// word-granular memory, and charges a fetch in the line the previous fetch
// left resident, or a load in the line the previous data access left
// resident, without probing, in batches; Interpreter::run_reference
// decodes every step from memory and probes on every access.  The two
// must agree bit-exactly on every kernel and every platform of the policy
// axis (each PlacementPolicy, with and without partitioning): RunResult
// (reason, steps, cycles), machine time, every MachineStats field and
// every CacheStats field of every level.  Also covered: flushes of the
// line being executed, back-to-back run() calls, short and 1-access L1
// TTLs, data-side streaks, the decode cache under self-modifying stores
// and pokes, out-of-image PCs, and the SparseMemory byte/word paths
// (alignment, page crossing, zero page, clear).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace tsc::isa {
namespace {

/// The paper platform (MBPTA/TSCache cache design), fully seeded.
sim::Machine paper_machine(std::uint64_t seed) {
  sim::Machine machine(
      sim::arm920t_config(cache::MapperKind::kRandomModulo,
                          cache::MapperKind::kHashRp,
                          cache::ReplacementKind::kRandom),
      std::make_shared<rng::XorShift64Star>(seed));
  machine.hierarchy().set_seed(ProcId{1}, Seed{rng::derive_seed(seed, 1)});
  machine.set_process(ProcId{1});
  return machine;
}

/// Every observable of two machines: time, machine counters and the full
/// statistics of every cache level.
void expect_same_machine(sim::Machine& a, sim::Machine& b,
                         const std::string& label) {
  EXPECT_EQ(a.now(), b.now()) << label;
  EXPECT_TRUE(a.stats() == b.stats()) << label << ": MachineStats differ";
  EXPECT_TRUE(a.hierarchy().l1i().stats() == b.hierarchy().l1i().stats())
      << label << ": L1I stats differ";
  EXPECT_TRUE(a.hierarchy().l1d().stats() == b.hierarchy().l1d().stats())
      << label << ": L1D stats differ";
  if (a.hierarchy().has_l2()) {
    EXPECT_TRUE(a.hierarchy().l2().stats() == b.hierarchy().l2().stats())
        << label << ": L2 stats differ";
  }
}

/// One step of a drive script, applied to both twins between runs.
enum class Between { kNothing, kFlushCaches, kSwitchToAttacker };

/// Run `source` through the decode-cache path on one machine and the
/// reference decode loop on an identically built twin, one run() per
/// entry of `script` (cold, warm, then whatever the script does between
/// runs); every observable must match after each run.
void expect_equivalent_on(std::unique_ptr<sim::Machine> fast_machine,
                          std::unique_ptr<sim::Machine> ref_machine,
                          const std::string& source, std::uint64_t max_steps,
                          const std::vector<Between>& script,
                          const std::string& label) {
  Interpreter fast(*fast_machine);
  Interpreter ref(*ref_machine);
  const Program program = assemble(source, 0x1000);
  fast.load_program(program);
  ref.load_program(program);

  for (std::size_t pass = 0; pass < script.size(); ++pass) {
    for (sim::Machine* m : {fast_machine.get(), ref_machine.get()}) {
      switch (script[pass]) {
        case Between::kNothing: break;
        case Between::kFlushCaches: m->flush_caches(); break;
        case Between::kSwitchToAttacker:
          m->set_process(core::kMatrixAttacker);
          break;
      }
    }
    const std::string at = label + " pass " + std::to_string(pass);
    const RunResult a = fast.run(0x1000, max_steps);
    const RunResult b = ref.run_reference(0x1000, max_steps);
    EXPECT_EQ(static_cast<int>(a.reason), static_cast<int>(b.reason)) << at;
    EXPECT_EQ(a.steps, b.steps) << at;
    EXPECT_EQ(a.cycles, b.cycles) << at;
    expect_same_machine(*fast_machine, *ref_machine, at);
  }
  // Functional state too: registers.
  for (unsigned r = 0; r < 16; ++r) {
    EXPECT_EQ(fast.reg(r), ref.reg(r)) << label << " r" << r;
  }
}

/// The cold / warm / attacker-after-victim script: the attacker pass
/// fetches the victim's code lines under another process, which is where
/// RPCache's secure contention declines L1I fills.
const std::vector<Between> kColdWarmAttacker = {
    Between::kNothing, Between::kNothing, Between::kSwitchToAttacker};

/// expect_equivalent_on over all 14 platforms: every PlacementPolicy,
/// unpartitioned and partitioned, victim and attacker seeded.
void expect_paths_equivalent(const std::string& source,
                             std::uint64_t max_steps = 10'000'000,
                             const std::vector<Between>& script =
                                 kColdWarmAttacker) {
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      expect_equivalent_on(
          core::build_policy_machine(policy, 99, partitioned),
          core::build_policy_machine(policy, 99, partitioned), source,
          max_steps, script,
          core::to_string(policy) + (partitioned ? "/partitioned" : ""));
    }
  }
}

TEST(InterpreterEquivalence, EveryKernelMatchesReferenceDecode) {
  expect_paths_equivalent(vector_sum_source(0x40000, 5120));
  expect_paths_equivalent(memcpy_source(0x40000, 0x60000, 2048));
  expect_paths_equivalent(bubble_sort_source(0x40000, 256), 50'000'000);
  expect_paths_equivalent(matmul_source(0x40000, 0x50000, 0x60000, 24),
                          50'000'000);
  expect_paths_equivalent(stride_walk_source(0x40000, 8192, 64, 32768),
                          50'000'000);
}

TEST(InterpreterEquivalence, FlushKernelsMatchReferenceDecode) {
  // The flush instruction's present/absent/dirty latency split must agree
  // between the pre-decoded and reference paths - including flushes that
  // invalidate a line mid-run and reloads of freshly flushed lines.
  expect_paths_equivalent(flush_reload_source(0x40000, 64, 32), 50'000'000);
  expect_paths_equivalent(flush_storm_source(0x40000, 32, 32, 8),
                          50'000'000);
  // A flush aimed at the CODE region: the next fetch of that line must
  // re-miss identically on both paths (the decode cache is architectural
  // state, not cache state - it must NOT shield the fetch).
  expect_paths_equivalent(
      "        la   r1, 0x1000\n"
      "loop:   flush r1\n"
      "        addi r2, r2, 1\n"
      "        slti r3, r2, 50\n"
      "        bne  r3, r0, loop\n"
      "        halt\n",
      100'000);
}

TEST(InterpreterEquivalence, FlushOfTheLineBeingExecutedRefetches) {
  // The loop body sits in the first 32-byte code line (0x1000-0x101F) and
  // flushes that very line partway through it: the instructions after the
  // flush, in the same line, were fetched from a resident line a moment
  // ago and must now miss.  A second flush targets the NEXT code line
  // before execution reaches it, and a third a data line.
  //   0x1000  la   r1, 0x1000      (2 words)
  //   0x1008  la   r5, 0x1020      (2 words)
  //   0x1010  loop: addi r2, r2, 1
  //   0x1014  flush r1             ; this line
  //   0x1018  addi r3, r3, 1       ; same line, after the flush
  //   0x101C  flush r5             ; the next line
  //   0x1020  flush r6             ; a data line (r6 = 0)
  //   0x1024  slti r4, r2, 40
  //   0x1028  bne  r4, r0, loop
  //   0x102C  halt
  expect_paths_equivalent(
      "        la   r1, 0x1000\n"
      "        la   r5, 0x1020\n"
      "loop:   addi r2, r2, 1\n"
      "        flush r1\n"
      "        addi r3, r3, 1\n"
      "        flush r5\n"
      "        flush r6\n"
      "        slti r4, r2, 40\n"
      "        bne  r4, r0, loop\n"
      "        halt\n",
      100'000);
}

TEST(InterpreterEquivalence, BackToBackRunsStartWithoutARememberedLine) {
  // The halt and the entry share one code line, so a line remembered
  // across run() calls would be charged as a hit.  Between the calls the
  // script does nothing, flushes every cache (the remembered line is then
  // gone), and switches process.
  const std::vector<Between> script = {
      Between::kNothing, Between::kNothing, Between::kFlushCaches,
      Between::kNothing, Between::kSwitchToAttacker, Between::kFlushCaches};
  expect_paths_equivalent("addi r1, r1, 1\nhalt\n", 100, script);
  expect_paths_equivalent(vector_sum_source(0x40000, 64), 1'000'000, script);
}

TEST(InterpreterEquivalence, ShortcutHoldsOnLongTtlLoopsAndDeclinedFills) {
  // ClepsydraCache: an inner loop of 3 x 3000 fetches in one code line
  // outlasts every L1I TTL, so the outer loop's line expires - but only
  // if the repeats tick the TTL clock once per fetch, as a probe would.
  // Layout: the outer loop in line 0x1000, padding, the inner loop in
  // line 0x1020.
  expect_paths_equivalent(
      "outer:  addi r1, r1, 1\n"
      "        addi r2, r0, 0\n"
      "        jal  r0, inner\n"
      "        nop\n nop\n nop\n nop\n nop\n"
      "inner:  addi r2, r2, 1\n"
      "        slti r3, r2, 3000\n"
      "        bne  r3, r0, inner\n"
      "        slti r4, r1, 4\n"
      "        bne  r4, r0, outer\n"
      "        halt\n",
      1'000'000);
  // RPCache: 24KB of straight-line code overfills the 16KB L1I, so the
  // attacker pass finds full sets of victim lines and the secure
  // contention rule declines its fills - the rest of each such line must
  // still be probed (and miss) on the fast path.
  std::string straight;
  for (int i = 0; i < 6144; ++i) straight += "addi r1, r1, 1\n";
  straight += "halt\n";
  expect_paths_equivalent(straight, 100'000);
}

/// A ClepsydraCache policy machine whose L1 TTLs are [ttl_min, ttl_min +
/// span] accesses instead of hundreds: lines die within a loop iteration.
std::unique_ptr<sim::Machine> short_ttl_machine(std::uint32_t ttl_min,
                                                std::uint32_t span,
                                                std::uint64_t seed) {
  sim::HierarchyConfig config =
      core::policy_hierarchy_config(core::PlacementPolicy::kClepsydra);
  for (cache::CacheSpec* level : {&config.l1i, &config.l1d}) {
    level->config.ttl_min = ttl_min;
    level->config.ttl_max = ttl_min + span;
  }
  auto machine = std::make_unique<sim::Machine>(
      config, std::make_shared<rng::XorShift64Star>(
                  core::policy_machine_rng_seed(seed)));
  core::configure_policy_machine(*machine, seed, /*partitioned=*/false);
  return machine;
}

/// Every flush executes while fetch and load repeats are pending: first
/// a flush of the loop's own code line, then of the next code line, then
/// of data line A while a streak in data line B pends.  Then a store to A
/// while a B repeat pends, and a load repeat right after that store.
/// Data line A is 0x40000, B is 0x40040; the code lines are 0x1000,
/// 0x1020 and 0x1040.
const char* const kFlushWhileRepeatsPend =
    "        jal  r0, init\n"          // 0x1000
    "loop:   lw   r6, 0(r5)\n"         // 0x1004  line A
    "        lw   r7, 4(r5)\n"         // 0x1008  load repeat
    "        flush r1\n"               // 0x100C  own code line
    "        lw   r6, 64(r5)\n"        // 0x1010  line B
    "        lw   r7, 68(r5)\n"        // 0x1014  load repeat
    "        flush r4\n"               // 0x1018  next code line
    "        lw   r6, 64(r5)\n"        // 0x101C
    "        lw   r7, 68(r5)\n"        // 0x1020  load repeat, fetch miss
    "        flush r5\n"               // 0x1024  line A
    "        lw   r6, 64(r5)\n"        // 0x1028
    "        lw   r7, 68(r5)\n"        // 0x102C  load repeat
    "        sw   r2, 0(r5)\n"         // 0x1030  line A
    "        lw   r8, 4(r5)\n"         // 0x1034  load repeat after it
    "        addi r2, r2, 1\n"
    "        slti r3, r2, 40\n"
    "        bne  r3, r0, loop\n"
    "        halt\n"
    "init:   la   r1, 0x1000\n"
    "        la   r4, 0x1020\n"
    "        la   r5, 0x40000\n"
    "        jal  r0, loop\n";

TEST(InterpreterEquivalence, ShortTtlRepeatsAreChargedBeforeEachFlush) {
  // A flush ticks every level's TTL clock, so the repeats pending when it
  // executes must be charged before it, not at the next probe: with L1
  // TTLs of a few accesses the two orders expire different lines.
  for (const std::uint32_t ttl_min : {2u, 3u, 4u, 5u}) {
    for (const std::uint32_t span : {0u, 3u, 6u}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        expect_equivalent_on(short_ttl_machine(ttl_min, span, seed),
                             short_ttl_machine(ttl_min, span, seed),
                             kFlushWhileRepeatsPend, 100'000,
                             kColdWarmAttacker,
                             "ttl [" + std::to_string(ttl_min) + "+" +
                                 std::to_string(span) + "] seed " +
                                 std::to_string(seed));
      }
    }
  }
}

TEST(InterpreterEquivalence, OneAccessTtlDeclinesTheShortcut) {
  // A line with a 1-access TTL expires at the very next probe of its set,
  // so a same-line fetch or load may miss: neither port offers repeats.
  for (const std::uint32_t span : {0u, 3u, 6u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::string label = "ttl [1+" + std::to_string(span) +
                                "] seed " + std::to_string(seed);
      const auto m = short_ttl_machine(1, span, seed);
      EXPECT_FALSE(m->fetch(0x1000)) << label;
      EXPECT_FALSE(m->load_data(0x40000)) << label;
      EXPECT_FALSE(m->store_data(0x40000)) << label;
      expect_equivalent_on(short_ttl_machine(1, span, seed),
                           short_ttl_machine(1, span, seed),
                           kFlushWhileRepeatsPend, 100'000,
                           kColdWarmAttacker, label);
      expect_equivalent_on(short_ttl_machine(1, span, seed),
                           short_ttl_machine(1, span, seed),
                           vector_sum_source(0x40000, 256), 1'000'000,
                           kColdWarmAttacker, label + " vecsum");
    }
  }
}

TEST(InterpreterEquivalence, DataSideRepeatsMatchReference) {
  // Byte loads walking one line, a load right after a store to its line,
  // a store right after a load of its line, and a partial-line stride
  // that alternates between streaks and line changes.
  expect_paths_equivalent(
      "        la   r1, 0x40000\n"
      "loop:   addi r2, r2, 1\n"
      "        lbu  r3, 0(r1)\n"
      "        lbu  r4, 1(r1)\n"
      "        lb   r5, 31(r1)\n"
      "        sb   r2, 2(r1)\n"
      "        lw   r6, 0(r1)\n"
      "        sw   r6, 4(r1)\n"
      "        lw   r7, 4(r1)\n"
      "        lbu  r8, 3(r1)\n"
      "        addi r1, r1, 12\n"
      "        slti r9, r2, 300\n"
      "        bne  r9, r0, loop\n"
      "        halt\n",
      1'000'000);
  // Bubble sort over descending non-zero data: every comparison swaps, so
  // each iteration loads a pair and stores it back.
  constexpr unsigned kItems = 96;
  const std::string sort = "        la   r1, 0x40000\n"
                           "        li   r2, " + std::to_string(kItems) +
                           "\n"
                           "fill:   sw   r2, 0(r1)\n"
                           "        addi r1, r1, 4\n"
                           "        addi r2, r2, -1\n"
                           "        bne  r2, r0, fill\n" +
                           bubble_sort_source(0x40000, kItems);
  expect_paths_equivalent(sort, 10'000'000);
  // The program really sorts, through a store per swap.
  sim::Machine m = paper_machine(14);
  Interpreter interp(m);
  interp.load_program(assemble(sort, 0x1000));
  EXPECT_EQ(interp.run(0x1000).reason, StopReason::kHalt);
  for (Addr i = 0; i < kItems; ++i) {
    EXPECT_EQ(interp.peek32(0x40000 + 4 * i), i + 1) << "item " << i;
  }
  EXPECT_GE(m.stats().stores, kItems + kItems * (kItems - 1));
}

TEST(InterpreterEquivalence, BadInstructionAndStepLimitMatch) {
  // An undecodable word inside the pre-decoded image (the cached !ok path
  // vs the reference decode failure).
  expect_paths_equivalent("addi r1, r0, 1\n.word 0xFFFFFFFF\n", 100);
  // Runaway loop cut by the step limit.
  expect_paths_equivalent("loop: addi r1, r1, 1\njal r0, loop\n", 1000);
}

TEST(InterpreterEquivalence, SelfModifyingStorePatchesTheDecodeCache) {
  // The program overwrites its own `target` instruction (a nop heading an
  // infinite loop) with the HALT word stored in its data tail.  A stale
  // decode cache would spin to the step limit; a coherent one halts -
  // exactly like the reference path.
  //
  // Image layout (base 0x1000, one word per line except la = 2):
  //   0x1000  la  r1, 0x1000        (words 0-1)
  //   0x1008  lw  r2, 24(r1)        ; the .word below
  //   0x100C  sw  r2, 16(r1)        ; patches `target`
  //   0x1010  target: nop
  //   0x1014  jal r0, target
  //   0x1018  .word <halt encoding>
  const std::uint32_t halt_word = encode(Instr{Op::kHalt, 0, 0, 0, 0});
  const std::string source =
      "        la   r1, 0x1000\n"
      "        lw   r2, 24(r1)\n"
      "        sw   r2, 16(r1)\n"
      "target: nop\n"
      "        jal  r0, target\n"
      "        .word " + std::to_string(halt_word) + "\n";
  {
    sim::Machine m = paper_machine(7);
    Interpreter interp(m);
    interp.load_program(assemble(source, 0x1000));
    const RunResult r = interp.run(0x1000, 100);
    EXPECT_EQ(r.reason, StopReason::kHalt)
        << "decode cache missed the self-modifying store";
    EXPECT_EQ(r.steps, 5u);  // la(2) + lw + sw + patched halt
  }
  expect_paths_equivalent(source, 100);
}

TEST(InterpreterEquivalence, PokeIntoTheImageRefreshesTheDecodeCache) {
  sim::Machine m = paper_machine(8);
  Interpreter interp(m);
  interp.load_program(assemble("nop\nnop\nhalt\n", 0x1000));
  // Overwrite the second nop with an addi via poke32.
  interp.poke32(0x1004, encode(Instr{Op::kAddi, 3, 0, 0, 42}));
  (void)interp.run(0x1000, 10);
  EXPECT_EQ(interp.reg(3), 42u);
  // And back to a halt via poke_bytes.
  const std::uint32_t halt_word = encode(Instr{Op::kHalt, 0, 0, 0, 0});
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(halt_word >> (8 * i));
  }
  interp.poke_bytes(0x1004, bytes, 4);
  const RunResult r = interp.run(0x1000, 10);
  EXPECT_EQ(r.reason, StopReason::kHalt);
  EXPECT_EQ(r.steps, 2u);
}

TEST(InterpreterEquivalence, OutOfImagePcsDecodeFromMemory) {
  sim::Machine m = paper_machine(9);
  Interpreter interp(m);
  // A halt poked far outside any loaded image runs via the memory-decode
  // fallback...
  interp.poke32(0x5000, encode(Instr{Op::kHalt, 0, 0, 0, 0}));
  EXPECT_EQ(interp.run(0x5000, 10).reason, StopReason::kHalt);
  // ...including when a pre-decoded program jumps into it.
  interp.load_program(assemble("la r1, 0x5000\njalr r0, r1\n", 0x1000));
  const RunResult r = interp.run(0x1000, 10);
  EXPECT_EQ(r.reason, StopReason::kHalt);
  EXPECT_EQ(r.steps, 4u);  // la (2) + jalr + halt
}

// --- SparseMemory ----------------------------------------------------------

TEST(SparseMemoryTest, AlignedWordRoundTripAndByteView) {
  SparseMemory mem;
  mem.store32(0x2000, 0x11223344u);
  EXPECT_EQ(mem.load32(0x2000), 0x11223344u);
  // Little-endian byte view of the word path.
  EXPECT_EQ(mem.load8(0x2000), 0x44u);
  EXPECT_EQ(mem.load8(0x2001), 0x33u);
  EXPECT_EQ(mem.load8(0x2002), 0x22u);
  EXPECT_EQ(mem.load8(0x2003), 0x11u);
  // Byte stores read back through the word path.
  mem.store8(0x2001, 0xAB);
  EXPECT_EQ(mem.load32(0x2000), 0x1122AB44u);
}

TEST(SparseMemoryTest, UnalignedAndPageCrossingAccesses) {
  SparseMemory mem;
  // Straddles the 4KB page boundary at 0x1000.
  mem.store32(0xFFE, 0xDEADBEEFu);
  EXPECT_EQ(mem.load32(0xFFE), 0xDEADBEEFu);
  EXPECT_EQ(mem.load8(0xFFE), 0xEFu);
  EXPECT_EQ(mem.load8(0xFFF), 0xBEu);
  EXPECT_EQ(mem.load8(0x1000), 0xADu);
  EXPECT_EQ(mem.load8(0x1001), 0xDEu);
  // The aligned words containing the halves agree with the byte writes.
  EXPECT_EQ(mem.load32(0xFFC), 0xBEEF0000u);
  EXPECT_EQ(mem.load32(0x1000), 0x0000DEADu);
  // Unaligned load within one page.
  mem.store32(0x3000, 0x04030201u);
  mem.store32(0x3004, 0x08070605u);
  EXPECT_EQ(mem.load32(0x3001), 0x05040302u);
}

TEST(SparseMemoryTest, UntouchedMemoryReadsZeroAndClearRestoresIt) {
  SparseMemory mem;
  EXPECT_EQ(mem.load32(0x1234 * 4096), 0u);
  EXPECT_EQ(mem.load8(77), 0u);
  mem.store32(0x4000, 1);
  mem.store32(0x400000, 2);  // distinct page, distinct slot
  mem.store8(0x4000F, 3);
  mem.clear();
  EXPECT_EQ(mem.load32(0x4000), 0u);
  EXPECT_EQ(mem.load32(0x400000), 0u);
  EXPECT_EQ(mem.load8(0x4000F), 0u);
  // Still writable after clear.
  mem.store32(0x4000, 5);
  EXPECT_EQ(mem.load32(0x4000), 5u);
}

TEST(SparseMemoryTest, UnmappedPageReadsZeroUntilAStoreAllocatesIt) {
  // Reads of a page never written alias the shared read-only zero page;
  // the first store must allocate a real page instead of writing through
  // it, or every other memory would see the write.
  const Addr a = 0x7A000;
  {
    sim::Machine m = paper_machine(12);
    Interpreter interp(m);
    SparseMemory& mem = interp.memory();
    EXPECT_EQ(mem.load32(a), 0u);       // installs the zero-page slot
    EXPECT_EQ(mem.load8(a + 5), 0u);
    mem.store32(a, 0xCAFEF00Du);        // must allocate, not write through
    EXPECT_EQ(mem.load32(a), 0xCAFEF00Du);
    EXPECT_EQ(mem.load32(a + 4), 0u);
    mem.store8(a + 9, 0x5A);
    EXPECT_EQ(mem.load32(a + 8), 0x5A00u);
    // A byte store into another unmapped page takes the same path.
    EXPECT_EQ(mem.load8(a + 0x1003), 0u);
    mem.store8(a + 0x1003, 0x77);
    EXPECT_EQ(mem.load32(a + 0x1000), 0x77000000u);
    mem.clear();
    EXPECT_EQ(mem.load32(a), 0u);
    EXPECT_EQ(mem.load32(a + 0x1000), 0u);
  }
  sim::Machine m = paper_machine(13);
  Interpreter second(m);
  EXPECT_EQ(second.peek32(a), 0u);
  EXPECT_EQ(second.peek32(a + 8), 0u);
  EXPECT_EQ(second.peek32(a + 0x1000), 0u);
  // Any other page reads zero too: the zero page itself stayed zero.
  EXPECT_EQ(second.peek32(0x1234000), 0u);
}

TEST(SparseMemoryTest, SlotConflictsResolveThroughTheMap) {
  // Pages 1MB apart collide in the 256-slot direct-mapped table (page
  // numbers differ by exactly kSlots); alternating accesses must still
  // read their own data.
  SparseMemory mem;
  const Addr a = 0x10000;            // page 0x10
  const Addr b = a + 256 * 4096;     // page 0x110 -> same slot
  mem.store32(a, 0xAAAAAAAAu);
  mem.store32(b, 0xBBBBBBBBu);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mem.load32(a), 0xAAAAAAAAu);
    EXPECT_EQ(mem.load32(b), 0xBBBBBBBBu);
  }
}

TEST(InterpreterEquivalence, ResetRestoresFreshSemantics) {
  sim::Machine m1 = paper_machine(11);
  sim::Machine m2 = paper_machine(11);
  Interpreter reused(m1);
  Interpreter fresh(m2);
  // Dirty the reused interpreter with a different program + data.
  reused.load_program(assemble(memcpy_source(0x40000, 0x60000, 64), 0x1000));
  (void)reused.run(0x1000);
  reused.reset();
  m1.reset(123);
  m2.reset(123);
  const Program program = assemble(vector_sum_source(0x40000, 256), 0x1000);
  reused.load_program(program);
  fresh.load_program(program);
  const RunResult a = reused.run(0x1000);
  const RunResult b = fresh.run(0x1000);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(reused.reg(3), fresh.reg(3));
  EXPECT_EQ(m1.now(), m2.now());
}

}  // namespace
}  // namespace tsc::isa
