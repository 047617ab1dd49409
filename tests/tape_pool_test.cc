// One const access tape shared by ThreadPool workers, the MBPTA campaigns'
// sharing pattern: every worker plays the same recorded warm and timed
// passes into its own MachinePool lease - policy machines as in the pWCET
// experiments, Setups as in fig1 and sec622 - concurrently, and the times
// must equal a serial run's.  Kept apart from tape_test so the
// ThreadSanitizer job can run it without the platform-wide equivalence
// sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policy.h"
#include "core/setup.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "runner/machine_pool.h"
#include "runner/thread_pool.h"
#include "sim/machine.h"
#include "sim/tape.h"

namespace tsc::runner {
namespace {

TEST(TapePool, WorkersPlayOneConstTapeIntoTheirOwnLeases) {
  const std::unique_ptr<sim::Machine> recorder = core::build_policy_machine(
      core::PlacementPolicy::kModulo, 0, /*partitioned=*/false);
  isa::Interpreter interpreter(*recorder);
  interpreter.load_program(
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000));
  const sim::Tape warm = sim::Tape::record(interpreter, 0x1000);
  const sim::Tape timed = sim::Tape::record(interpreter, 0x1000);

  constexpr std::size_t kRuns = 28;
  const auto time_run = [&](std::size_t run) {
    const std::vector<core::PlacementPolicy>& policies = core::all_policies();
    const PooledMachine lease = MachinePool::local().policy_machine(
        policies[run % policies.size()], 1000 + run, run % 2 == 1);
    lease.machine.set_process(core::kMatrixVictim);
    (void)warm.play(lease.machine);
    return timed.play(lease.machine);
  };
  std::vector<Cycles> serial;
  for (std::size_t run = 0; run < kRuns; ++run) serial.push_back(time_run(run));
  ThreadPool pool(4);
  EXPECT_EQ(parallel_map(pool, kRuns, time_run), serial);
}

TEST(TapePool, WorkersPlayOneConstTapeIntoTheirOwnSetupLeases) {
  // fig1's and sec622's sharing: every worker plays the vector sum's const
  // tapes into MachinePool Setup leases.
  const std::unique_ptr<sim::Machine> recorder = core::build_policy_machine(
      core::PlacementPolicy::kModulo, 0, /*partitioned=*/false);
  isa::Interpreter interpreter(*recorder);
  interpreter.load_program(
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000));
  const sim::Tape warm = sim::Tape::record(interpreter, 0x1000);
  const sim::Tape timed = sim::Tape::record(interpreter, 0x1000);

  constexpr std::size_t kRuns = 24;
  constexpr ProcId kVictim{1};
  const auto time_run = [&](std::size_t run) {
    const std::vector<core::SetupKind>& kinds = core::all_setups();
    core::Setup& lease =
        MachinePool::local().setup(kinds[run % kinds.size()], 1000 + run);
    lease.register_process(kVictim);
    lease.machine().set_process(kVictim);
    (void)warm.play(lease.machine());
    return timed.play(lease.machine());
  };
  std::vector<Cycles> serial;
  for (std::size_t run = 0; run < kRuns; ++run) serial.push_back(time_run(run));
  ThreadPool pool(4);
  EXPECT_EQ(parallel_map(pool, kRuns, time_run), serial);
}

}  // namespace
}  // namespace tsc::runner
