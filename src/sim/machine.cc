#include "sim/machine.h"

#include <utility>

namespace tsc::sim {

Machine::Machine(HierarchyConfig config, std::shared_ptr<rng::Rng> rng)
    : hierarchy_(std::move(config), rng),
      rng_(std::move(rng)),
      repeat_stall_(latency().quantize(latency().l1_hit) - latency().l1_hit),
      repeat_fetch_ok_(hierarchy_.l1i().repeat_hits_exact()),
      repeat_load_ok_(hierarchy_.l1d().repeat_hits_exact()) {}

void Machine::reset(std::uint64_t rng_seed) {
  if (rng_ != nullptr) rng_->reseed(rng_seed);
  hierarchy_.reset();
  proc_ = ProcId{1};
  now_ = 0;
  stats_ = MachineStats{};
}

void Machine::drain() {
  ++stats_.drains;
  now_ += latency().drain_cost();
}

void Machine::set_seed(ProcId proc, Seed master) {
  ++stats_.seed_changes;
  drain();
  hierarchy_.set_seed(proc, master);
  // One register write per cache level.
  const Cycles levels = hierarchy_.has_l2() ? 3 : 2;
  now_ += levels * latency().seed_update;
}

void Machine::flush_caches() {
  ++stats_.flushes;
  const std::uint64_t lines = hierarchy_.flush_all();
  // flush_base is paid unconditionally: issuing the flush costs the
  // pipeline slot and a tag sweep even when every line is already invalid.
  // (Charging only per invalidated line made an empty-hierarchy flush free,
  // which is both an unrealistic timing model and a degenerate observable
  // for flush-timing channels.)
  now_ += latency().flush_base + lines * latency().flush_per_line;
}

void Machine::reset_stats() {
  stats_ = MachineStats{};
  hierarchy_.reset_stats();
}

HierarchyConfig arm920t_config(cache::MapperKind l1_mapper,
                               cache::MapperKind l2_mapper,
                               cache::ReplacementKind repl) {
  HierarchyConfig config;
  config.l1i.config.geometry = cache::l1_geometry_arm920t();
  config.l1i.mapper = l1_mapper;
  config.l1i.replacement = repl;
  config.l1d = config.l1i;
  cache::CacheSpec l2;
  l2.config.geometry = cache::l2_geometry_arm920t();
  l2.mapper = l2_mapper;
  l2.replacement = repl;
  config.l2 = l2;
  return config;
}

}  // namespace tsc::sim
