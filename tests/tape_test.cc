// Access tapes (sim/tape.h): a run recorded once through the reference
// interpreter and replayed with Tape::play must be indistinguishable from
// interpreting it - Interpreter::run and run_reference alike - on every
// platform of the policy axis: the cycles of each pass, machine time,
// every MachineStats field and every CacheStats field of every level.
// As in the campaigns, the tapes are recorded once on one platform (modulo,
// seed 0) and played on the others, and on MachinePool leases of every
// core::Setup kind.  Covered: the pWCET kernel suite (warm and timed
// pass), the flush
// kernels, ClepsydraCache with L1 TTLs of a few accesses (and the 1-access
// TTL that declines repeats), Random-and-Safe's declined fills, runs cut
// by the step limit mid-line and by a bad instruction, and an L1I with
// other line sizes.  tape_pool_test covers one const tape played
// concurrently by pool workers (a small binary, so the ThreadSanitizer job
// runs it in seconds).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
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

namespace tsc::sim {
namespace {

using MachineFactory = std::function<std::unique_ptr<Machine>()>;

void expect_same_machine(Machine& a, Machine& b, const std::string& label) {
  EXPECT_EQ(a.now(), b.now()) << label;
  EXPECT_TRUE(a.stats() == b.stats()) << label << ": MachineStats differ";
  EXPECT_TRUE(a.hierarchy().l1i().stats() == b.hierarchy().l1i().stats())
      << label << ": L1I stats differ";
  EXPECT_TRUE(a.hierarchy().l1d().stats() == b.hierarchy().l1d().stats())
      << label << ": L1D stats differ";
  ASSERT_EQ(a.hierarchy().has_l2(), b.hierarchy().has_l2()) << label;
  if (a.hierarchy().has_l2()) {
    EXPECT_TRUE(a.hierarchy().l2().stats() == b.hierarchy().l2().stats())
        << label << ": L2 stats differ";
  }
}

/// The campaign's recording machine: the modulo platform, seed 0.  Every
/// check below plays tapes recorded here on other platforms and seeds.
std::unique_ptr<Machine> recording_machine() {
  return core::build_policy_machine(core::PlacementPolicy::kModulo, 0,
                                    /*partitioned=*/false);
}

/// Record `passes` consecutive runs of `source` (one interpreter, as the
/// warm and timed passes of the pWCET protocol) on a machine from `make`.
std::vector<Tape> record_passes(const MachineFactory& make,
                                const std::string& source,
                                std::uint64_t max_steps, int passes) {
  const std::unique_ptr<Machine> machine = make();
  isa::Interpreter interpreter(*machine);
  interpreter.load_program(isa::assemble(source, 0x1000));
  std::vector<Tape> tapes;
  for (int pass = 0; pass < passes; ++pass) {
    tapes.push_back(Tape::record(interpreter, 0x1000, max_steps));
  }
  return tapes;
}

/// Play the passes recorded on `record_on` on one machine and interpret
/// them with run() and run_reference() on two twins (all three from
/// `make`, victim process); every observable must agree after each pass.
void expect_tape_matches(const MachineFactory& make, const std::string& source,
                         std::uint64_t max_steps, const std::string& label,
                         const MachineFactory& record_on = recording_machine) {
  constexpr int passes = 2;
  const std::vector<Tape> tapes =
      record_passes(record_on, source, max_steps, passes);
  const std::unique_ptr<Machine> played = make();
  const std::unique_ptr<Machine> fast = make();
  const std::unique_ptr<Machine> ref = make();
  for (Machine* m : {played.get(), fast.get(), ref.get()}) {
    m->set_process(core::kMatrixVictim);
  }
  const isa::Program program = isa::assemble(source, 0x1000);
  isa::Interpreter fast_interp(*fast);
  isa::Interpreter ref_interp(*ref);
  fast_interp.load_program(program);
  ref_interp.load_program(program);
  for (int pass = 0; pass < passes; ++pass) {
    const std::string at = label + " pass " + std::to_string(pass);
    const Tape& tape = tapes[static_cast<std::size_t>(pass)];
    const Cycles cycles = tape.play(*played);
    const isa::RunResult a = fast_interp.run(0x1000, max_steps);
    const isa::RunResult b = ref_interp.run_reference(0x1000, max_steps);
    EXPECT_EQ(cycles, a.cycles) << at;
    EXPECT_EQ(cycles, b.cycles) << at;
    EXPECT_EQ(tape.steps(), a.steps) << at;
    EXPECT_EQ(tape.stop(), a.reason) << at;
    std::uint64_t grouped = 0;
    for (const Tape::Record& r : tape.records()) grouped += r.n;
    EXPECT_EQ(grouped, tape.steps()) << at;
    expect_same_machine(*played, *fast, at + " (vs run)");
    expect_same_machine(*played, *ref, at + " (vs run_reference)");
  }
}

/// expect_tape_matches over all 14 platforms: every PlacementPolicy,
/// unpartitioned and partitioned.
void expect_tape_matches_everywhere(const std::string& source,
                                    std::uint64_t max_steps = 10'000'000,
                                    std::uint64_t seed = 99) {
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      expect_tape_matches(
          [=] { return core::build_policy_machine(policy, seed, partitioned); },
          source, max_steps,
          core::to_string(policy) + (partitioned ? "/partitioned" : "") +
              " seed " + std::to_string(seed));
    }
  }
}

/// The pWCET matrix's kernel suite.
const std::vector<std::string>& pwcet_kernels() {
  static const std::vector<std::string> kernels = {
      isa::vector_sum_source(0x40000, 5120),
      isa::memcpy_source(0x40000, 0x60000, 2048),
      isa::bubble_sort_source(0x40000, 256),
      isa::matmul_source(0x40000, 0x50000, 0x60000, 24),
      isa::stride_walk_source(0x40000, 8192, 64, 32768),
  };
  return kernels;
}

TEST(TapeReplay, PwcetKernelSuiteMatchesOnEveryPlatform) {
  for (const std::string& kernel : pwcet_kernels()) {
    expect_tape_matches_everywhere(kernel);
  }
}

TEST(TapeReplay, VectorSumMatchesOnEverySetupLease) {
  // fig1 and sec622 record the vector sum's warm and timed pass once and
  // play them on MachinePool Setup leases.  Each must equal interpreting
  // the kernel on a fresh Setup of that kind - which also makes a setup
  // whose L1I line size differs from the recording machine's fail here,
  // not in a golden fixture.
  const std::vector<Tape> tapes =
      record_passes(recording_machine, pwcet_kernels()[0], 10'000'000, 2);
  const isa::Program program = isa::assemble(pwcet_kernels()[0], 0x1000);
  constexpr ProcId kVictim{1};
  runner::MachinePool pool;
  for (const core::SetupKind kind : core::all_setups()) {
    for (const std::uint64_t seed : {5u, 77u}) {
      core::Setup& lease = pool.setup(kind, seed);
      lease.register_process(kVictim);
      lease.machine().set_process(kVictim);
      core::Setup fresh(kind, seed);
      fresh.register_process(kVictim);
      fresh.machine().set_process(kVictim);
      isa::Interpreter interpreter(fresh.machine());
      interpreter.load_program(program);
      for (std::size_t pass = 0; pass < tapes.size(); ++pass) {
        const std::string at = core::to_string(kind) + " seed " +
                               std::to_string(seed) + " pass " +
                               std::to_string(pass);
        EXPECT_EQ(tapes[pass].play(lease.machine()),
                  interpreter.run(0x1000).cycles)
            << at;
        expect_same_machine(lease.machine(), fresh.machine(), at);
      }
    }
  }
}

TEST(TapeReplay, TheTapeIsSeedIndependent) {
  // Tapes recorded on the modulo platform at seed 0 match interpretation
  // on every platform at other deployment seeds too.
  for (const std::uint64_t seed : {1u, 2u}) {
    expect_tape_matches_everywhere(pwcet_kernels()[0], 10'000'000, seed);
  }
}

TEST(TapeReplay, FlushKernelsMatchOnEveryPlatform) {
  expect_tape_matches_everywhere(isa::flush_reload_source(0x40000, 64, 32),
                                 50'000'000);
  expect_tape_matches_everywhere(isa::flush_storm_source(0x40000, 32, 32, 8),
                                 50'000'000);
}

/// A ClepsydraCache machine whose L1 TTLs are [ttl_min, ttl_min + span]
/// accesses: lines die within a loop iteration.
MachineFactory short_ttl_machine(std::uint32_t ttl_min, std::uint32_t span,
                                 std::uint64_t seed) {
  return [=] {
    HierarchyConfig config =
        core::policy_hierarchy_config(core::PlacementPolicy::kClepsydra);
    for (cache::CacheSpec* level : {&config.l1i, &config.l1d}) {
      level->config.ttl_min = ttl_min;
      level->config.ttl_max = ttl_min + span;
    }
    auto machine = std::make_unique<Machine>(
        config, std::make_shared<rng::XorShift64Star>(
                    core::policy_machine_rng_seed(seed)));
    core::configure_policy_machine(*machine, seed, /*partitioned=*/false);
    return machine;
  };
}

/// Flushes of the loop's own code line, of the next code line and of a
/// data line while fetch and load repeats pend; a store while a load
/// repeat pends and a load repeat right after it.  Data lines 0x40000 and
/// 0x40040; code lines 0x1000, 0x1020 and 0x1040.
const char* const kFlushWhileRepeatsPend =
    "        jal  r0, init\n"
    "loop:   lw   r6, 0(r5)\n"
    "        lw   r7, 4(r5)\n"
    "        flush r1\n"
    "        lw   r6, 64(r5)\n"
    "        lw   r7, 68(r5)\n"
    "        flush r4\n"
    "        lw   r6, 64(r5)\n"
    "        lw   r7, 68(r5)\n"
    "        flush r5\n"
    "        lw   r6, 64(r5)\n"
    "        lw   r7, 68(r5)\n"
    "        sw   r2, 0(r5)\n"
    "        lw   r8, 4(r5)\n"
    "        addi r2, r2, 1\n"
    "        slti r3, r2, 40\n"
    "        bne  r3, r0, loop\n"
    "        halt\n"
    "init:   la   r1, 0x1000\n"
    "        la   r4, 0x1020\n"
    "        la   r5, 0x40000\n"
    "        jal  r0, loop\n";

TEST(TapeReplay, ShortClepsydraTtlsMatch) {
  // A flush ticks every level's TTL clock, so the player must charge
  // pending repeats before it exactly as run() does; with TTLs of 2-5
  // accesses any other order expires different lines.
  for (const std::uint32_t ttl_min : {2u, 3u, 4u, 5u}) {
    for (const std::uint32_t span : {0u, 3u, 6u}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string label = "ttl [" + std::to_string(ttl_min) + "+" +
                                  std::to_string(span) + "] seed " +
                                  std::to_string(seed);
        expect_tape_matches(short_ttl_machine(ttl_min, span, seed),
                            kFlushWhileRepeatsPend, 100'000, label);
      }
    }
  }
}

TEST(TapeReplay, OneAccessTtlMatchesWithoutRepeats) {
  // A 1-access TTL declines every repeat: the player probes each access.
  for (const std::uint32_t span : {0u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string label = "ttl [1+" + std::to_string(span) +
                                "] seed " + std::to_string(seed);
      expect_tape_matches(short_ttl_machine(1, span, seed),
                          kFlushWhileRepeatsPend, 100'000, label);
      expect_tape_matches(short_ttl_machine(1, span, seed),
                          isa::vector_sum_source(0x40000, 256), 1'000'000,
                          label + " vecsum");
    }
  }
}

TEST(TapeReplay, RandomAndSafeDeclinedFillsMatch) {
  // Random-and-Safe caches a random neighbour instead of the missed line,
  // so a load after a miss may miss again: its residency must come from
  // the machine, never from the tape.  Stores, byte loads and a store
  // followed by a load of its line exercise both L1D transitions.
  const std::string data_walk =
      "        la   r1, 0x40000\n"
      "loop:   addi r2, r2, 1\n"
      "        lw   r3, 0(r1)\n"
      "        lbu  r4, 5(r1)\n"
      "        sw   r2, 8(r1)\n"
      "        lw   r5, 8(r1)\n"
      "        addi r1, r1, 40\n"
      "        slti r9, r2, 400\n"
      "        bne  r9, r0, loop\n"
      "        halt\n";
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool partitioned : {false, true}) {
      const MachineFactory make = [=] {
        return core::build_policy_machine(core::PlacementPolicy::kRandomAndSafe,
                                          seed, partitioned);
      };
      const std::string label = "seed " + std::to_string(seed) +
                                (partitioned ? " partitioned" : "");
      expect_tape_matches(make, data_walk, 1'000'000, label);
      expect_tape_matches(make, pwcet_kernels()[1], 10'000'000,
                          label + " memcpy");
    }
  }
}

TEST(TapeReplay, StepLimitMidLineAndBadInstructionMatch) {
  std::string straight;
  for (int i = 0; i < 20; ++i) straight += "addi r1, r1, 1\n";
  straight += "halt\n";
  // Cut after 5 of the 8 instructions of the first code line, after 11
  // (3 into the second line), and a runaway loop cut by the limit.
  expect_tape_matches_everywhere(straight, 5);
  expect_tape_matches_everywhere(straight, 11);
  expect_tape_matches_everywhere("loop: addi r1, r1, 1\njal r0, loop\n", 1001);
  // An undecodable word: the run stops before fetching it.
  expect_tape_matches_everywhere("addi r1, r0, 1\n.word 0xFFFFFFFF\n", 100);

  const Tape cut = record_passes(recording_machine, straight, 5, 1)[0];
  EXPECT_EQ(cut.stop(), isa::StopReason::kStepLimit);
  ASSERT_EQ(cut.records().size(), 1u);
  EXPECT_EQ(cut.records()[0].n, 5u);
  const Tape bad = record_passes(
      recording_machine, "addi r1, r0, 1\n.word 0xFFFFFFFF\n", 100, 1)[0];
  EXPECT_EQ(bad.stop(), isa::StopReason::kBadInstruction);
  EXPECT_EQ(bad.steps(), 1u);
}

/// The modulo platform with every L1I line `line_bytes` long.
MachineFactory l1i_line_machine(std::uint32_t line_bytes) {
  return [=] {
    HierarchyConfig config =
        core::policy_hierarchy_config(core::PlacementPolicy::kModulo);
    config.l1i.config.geometry = cache::Geometry(16 * 1024, 4, line_bytes);
    auto machine = std::make_unique<Machine>(
        config, std::make_shared<rng::XorShift64Star>(5));
    core::configure_policy_machine(*machine, 5, /*partitioned=*/false);
    return machine;
  };
}

TEST(TapeReplay, RecordsGroupByTheRecordingL1iLineAndPlayOnlyThere) {
  // Other line sizes group differently and replay exactly on their own
  // geometry.
  for (const std::uint32_t line : {16u, 64u}) {
    expect_tape_matches(l1i_line_machine(line), pwcet_kernels()[2],
                        10'000'000, "line " + std::to_string(line),
                        l1i_line_machine(line));
  }
  const Tape tape =
      record_passes(l1i_line_machine(64), pwcet_kernels()[0], 10'000'000,
                    1)[0];
  EXPECT_EQ(tape.line_bytes(), 64u);
  const std::unique_ptr<Machine> paper = core::build_policy_machine(
      core::PlacementPolicy::kModulo, 5, /*partitioned=*/false);
  EXPECT_THROW((void)tape.play(*paper), std::invalid_argument);
  EXPECT_EQ(paper->now(), 0u) << "a refused tape must not touch the machine";
}

/// A sink that only has to exist: the recorder must hand it back.
class NullSink final : public isa::TraceSink {
 public:
  void step(Addr, const isa::Instr&, Addr) override {}
};

TEST(TapeRecord, PcBeyond32BitsIsRejectedNotTruncated) {
  // A nop in the last word of the 32-bit space falls through to pc 2^32,
  // where a valid halt waits: a record would have to truncate it.
  const std::unique_ptr<Machine> machine = core::build_policy_machine(
      core::PlacementPolicy::kModulo, 3, /*partitioned=*/false);
  isa::Interpreter interpreter(*machine);
  isa::Program program;
  program.base = 0xFFFF'FFFC;
  program.words = {isa::encode(isa::Instr{isa::Op::kNop})};
  interpreter.load_program(program);
  interpreter.poke32(Addr{1} << 32, isa::encode(isa::Instr{isa::Op::kHalt}));
  NullSink sink;
  interpreter.set_trace_sink(&sink);
  EXPECT_THROW((void)Tape::record(interpreter, 0xFFFF'FFFC),
               std::out_of_range);
  EXPECT_EQ(interpreter.trace_sink(), &sink)
      << "recording must restore the previous sink";
}

}  // namespace
}  // namespace tsc::sim
