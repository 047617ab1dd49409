// Pooled per-run machines for the MBPTA fresh-layout protocols.
//
// The paper's MBPTA collection protocol (section 2.1) demands a FRESH
// machine per run: a new random layout, empty caches, time zero.  Naively
// that means constructing a Machine (three caches, line arrays, RPCache
// permutation tables) for every one of the campaign's tens of thousands of
// runs - allocation work that rivals the simulation itself, which plays a
// recorded access tape into each machine (sim/tape.h).
//
// MachinePool keeps one machine per platform configuration PER WORKER
// THREAD (a policy machine also carries an interpreter) and re-deploys it
// with reset(seed) instead of reconstruction.  The contract is
// bit-exactness, not approximation: Machine::reset + rng reseed + the same
// configure/seed calls reproduce a freshly constructed machine's behavior
// exactly (the golden campaign fixtures pin this end to end;
// tests/machine_pool_test.cc pins it per-slot).  Workers never share a pool - local() hands each thread its
// own - so no synchronization exists anywhere on the run path.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/policy.h"
#include "core/setup.h"
#include "isa/interpreter.h"

namespace tsc::runner {

/// A leased policy machine: reset to the fresh-deployment state of
/// core::build_policy_machine(policy, seed, partitioned), with a pooled
/// interpreter (zeroed registers/memory) bound to it.  Valid until the
/// same pool leases the same (policy, partitioned) slot again.
struct PooledMachine {
  sim::Machine& machine;
  isa::Interpreter& interpreter;
};

class MachinePool {
 public:
  /// Lease the (policy, partitioned) machine, re-deployed for
  /// `deployment_seed` - bit-exact with a freshly built policy machine.
  PooledMachine policy_machine(core::PlacementPolicy policy,
                               std::uint64_t deployment_seed,
                               bool partitioned);

  /// Lease the Setup of `kind`, re-deployed for the given seeds - bit-exact
  /// with core::Setup(kind, master_seed, shared_layout_seed).  The caller
  /// re-registers processes, exactly as with a fresh Setup.  Valid until
  /// the same pool leases the same kind again.
  core::Setup& setup(core::SetupKind kind, std::uint64_t master_seed,
                     std::uint64_t shared_layout_seed = 0);

  /// The calling thread's pool.  Campaign tasks run on ThreadPool workers,
  /// so each worker reuses its own machines across the tasks it executes
  /// and the pool dies with the thread.
  static MachinePool& local();

 private:
  struct PolicySlot {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<isa::Interpreter> interpreter;
  };

  std::array<PolicySlot, 2 * core::kPolicyCount>
      policy_;                        ///< [policy * 2 + partitioned]
  std::array<std::unique_ptr<core::Setup>, 4> setups_;  ///< [SetupKind]
};

}  // namespace tsc::runner
