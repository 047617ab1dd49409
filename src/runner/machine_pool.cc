#include "runner/machine_pool.h"

namespace tsc::runner {

PooledMachine MachinePool::policy_machine(core::PlacementPolicy policy,
                                          std::uint64_t deployment_seed,
                                          bool partitioned) {
  const std::size_t index =
      static_cast<std::size_t>(policy) * 2 + (partitioned ? 1 : 0);
  PolicySlot& slot = policy_.at(index);
  if (slot.machine == nullptr) {
    slot.machine = core::build_policy_machine(policy, deployment_seed,
                                              partitioned);
    slot.interpreter = std::make_unique<isa::Interpreter>(*slot.machine);
  } else {
    slot.machine->reset(core::policy_machine_rng_seed(deployment_seed));
    core::configure_policy_machine(*slot.machine, deployment_seed,
                                   partitioned);
    slot.interpreter->reset();
  }
  return {*slot.machine, *slot.interpreter};
}

core::Setup& MachinePool::setup(core::SetupKind kind,
                                std::uint64_t master_seed,
                                std::uint64_t shared_layout_seed) {
  std::unique_ptr<core::Setup>& slot =
      setups_.at(static_cast<std::size_t>(kind));
  if (slot == nullptr) {
    slot = std::make_unique<core::Setup>(kind, master_seed,
                                         shared_layout_seed);
  } else {
    slot->reset(master_seed, shared_layout_seed);
  }
  return *slot;
}

MachinePool& MachinePool::local() {
  thread_local MachinePool pool;
  return pool;
}

}  // namespace tsc::runner
