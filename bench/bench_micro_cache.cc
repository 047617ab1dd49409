// Micro-benchmarks (google-benchmark): throughput of the primitives the
// simulator's inner loops live on - placement functions, cache accesses,
// Benes permutation construction, PRNG steps.
//
// These are engineering benchmarks for the library itself (the paper's
// hardware latencies are modeled, not measured); they guard against
// regressions that would make the 1e5..1e7-sample experiments impractical.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/benes.h"
#include "cache/builder.h"
#include "cache/placement.h"
#include "core/policy.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "rng/rng.h"
#include "sim/machine.h"
#include "sim/tape.h"

namespace {

using namespace tsc;

void BM_Placement(benchmark::State& state, cache::PlacementKind kind) {
  const cache::Geometry geo = cache::l1_geometry_arm920t();
  const auto placement = cache::make_placement(kind, geo);
  Addr line = 0x12345;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement->set_index(line, Seed{seed}));
    line += 37;
    seed += (line & 0xFF) == 0 ? 1 : 0;  // occasional seed change
  }
}
BENCHMARK_CAPTURE(BM_Placement, modulo, cache::PlacementKind::kModulo);
BENCHMARK_CAPTURE(BM_Placement, xor_index, cache::PlacementKind::kXorIndex);
BENCHMARK_CAPTURE(BM_Placement, hashrp, cache::PlacementKind::kHashRp);
BENCHMARK_CAPTURE(BM_Placement, random_modulo,
                  cache::PlacementKind::kRandomModulo);

void BM_CacheAccess(benchmark::State& state, cache::MapperKind mapper) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::l1_geometry_arm920t();
  spec.mapper = mapper;
  spec.replacement = mapper == cache::MapperKind::kModulo
                         ? cache::ReplacementKind::kLru
                         : cache::ReplacementKind::kRandom;
  auto rng = std::make_shared<rng::XorShift64Star>(1);
  auto cache_model = cache::build_cache(spec, rng);
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache_model->access(ProcId{1}, addr, false));
    addr = (addr + 4096 + 32) & 0xFFFFF;  // mixes hits and misses
  }
}
BENCHMARK_CAPTURE(BM_CacheAccess, modulo_lru, cache::MapperKind::kModulo);
BENCHMARK_CAPTURE(BM_CacheAccess, rm_random, cache::MapperKind::kRandomModulo);
BENCHMARK_CAPTURE(BM_CacheAccess, hashrp_random, cache::MapperKind::kHashRp);
BENCHMARK_CAPTURE(BM_CacheAccess, rpcache, cache::MapperKind::kRpCache);

// Hit-dominated variant: a working set the cache holds (the regime real
// campaigns run in - AES tables and stacks stay resident between misses).
void BM_CacheAccessHit(benchmark::State& state, cache::MapperKind mapper) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::l1_geometry_arm920t();
  spec.mapper = mapper;
  spec.replacement = mapper == cache::MapperKind::kModulo
                         ? cache::ReplacementKind::kLru
                         : cache::ReplacementKind::kRandom;
  auto rng = std::make_shared<rng::XorShift64Star>(1);
  auto cache_model = cache::build_cache(spec, rng);
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache_model->access(ProcId{1}, addr, false));
    addr = (addr + 32) & 0x1FFF;  // 8KB walk inside a 16KB cache
  }
}
BENCHMARK_CAPTURE(BM_CacheAccessHit, modulo_lru, cache::MapperKind::kModulo);
BENCHMARK_CAPTURE(BM_CacheAccessHit, rm_random,
                  cache::MapperKind::kRandomModulo);
BENCHMARK_CAPTURE(BM_CacheAccessHit, hashrp_random, cache::MapperKind::kHashRp);
BENCHMARK_CAPTURE(BM_CacheAccessHit, rpcache, cache::MapperKind::kRpCache);

// 1,024 loads through the full machine (paper platform, TSCache design),
// issued one Machine::load call each - the shape of the fig5 campaign's
// per-job OS tick and noise loops.  (The name dates from a batched replay
// entry point, since removed; the loads and their order are unchanged.)
void BM_MachineRunBatch(benchmark::State& state) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  struct Load {
    Addr pc;
    Addr ea;
  };
  std::vector<Load> loads;
  rng::SplitMix64 r(5);
  for (int i = 0; i < 1024; ++i) {
    const Addr ea = 0x80000 + (r.next_u64() & 0xFFF0);
    loads.push_back({0x1000 + (r.next_u64() & 0xFF0), ea});
  }
  for (auto _ : state) {
    for (const Load& load : loads) machine.load(load.pc, load.ea);
    benchmark::DoNotOptimize(machine.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(loads.size()));
}
BENCHMARK(BM_MachineRunBatch);

// Whole-kernel interpretation on the paper platform (MBPTA/TSCache cache
// design): fetch, decode and execute every instruction with instruction and
// data traffic simulated through the hierarchy.  This is the per-run cost
// of the MBPTA protocols (fig1 / sec622 / pwcet_matrix), so its throughput
// bounds how many runs a campaign can collect.
void run_interpreter(benchmark::State& state, sim::Machine& machine,
                     const std::string& source) {
  isa::Interpreter interp(machine);
  interp.load_program(isa::assemble(source, 0x1000));
  std::int64_t steps = 0;
  for (auto _ : state) {
    const isa::RunResult r = interp.run(0x1000);
    steps += static_cast<std::int64_t>(r.steps);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(steps);
}

void BM_Interpreter(benchmark::State& state, const std::string& source) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  run_interpreter(state, machine, source);
}
BENCHMARK_CAPTURE(BM_Interpreter, vecsum,
                  tsc::isa::vector_sum_source(0x40000, 5120));
BENCHMARK_CAPTURE(BM_Interpreter, matmul,
                  tsc::isa::matmul_source(0x40000, 0x50000, 0x60000, 24));
// The campaigns' sort-1KB kernel: two loads per comparison from one data
// line, the load-repeat path.
BENCHMARK_CAPTURE(BM_Interpreter, sort,
                  tsc::isa::bubble_sort_source(0x40000, 256));

// The same kernels on the two platforms where the interpreter's same-line
// repeats behave differently: ClepsydraCache (TTL L1s, so each batch of
// repeats ticks the expiry clock and reclaims the set's dead lines) and
// TimeCache (quantized hits, so each repeat charges the quantum).
void BM_Interpreter(benchmark::State& state, const std::string& source,
                    core::PlacementPolicy policy) {
  const auto machine = core::build_policy_machine(policy, 7, false);
  machine->set_process(core::kMatrixVictim);
  run_interpreter(state, *machine, source);
}
BENCHMARK_CAPTURE(BM_Interpreter, vecsum_clepsydra,
                  tsc::isa::vector_sum_source(0x40000, 5120),
                  core::PlacementPolicy::kClepsydra);
BENCHMARK_CAPTURE(BM_Interpreter, vecsum_timecache,
                  tsc::isa::vector_sum_source(0x40000, 5120),
                  core::PlacementPolicy::kTimeCache);
BENCHMARK_CAPTURE(BM_Interpreter, sort_clepsydra,
                  tsc::isa::bubble_sort_source(0x40000, 256),
                  core::PlacementPolicy::kClepsydra);

// The same runs replayed from an access tape (sim/tape.h), as the pWCET
// campaigns time their kernels: the kernel is recorded once (warm pass,
// then the steady-state pass BM_Interpreter repeats) and only the timed
// pass is played per iteration.  Items are instructions, so the rate
// compares directly with BM_Interpreter/sort and /sort_clepsydra.
void play_tape(benchmark::State& state, sim::Machine& machine,
               const std::string& source) {
  auto recorder = core::build_policy_machine(core::PlacementPolicy::kModulo,
                                             0, false);
  isa::Interpreter interp(*recorder);
  interp.load_program(isa::assemble(source, 0x1000));
  (void)sim::Tape::record(interp, 0x1000);
  const sim::Tape tape = sim::Tape::record(interp, 0x1000);
  std::int64_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.play(machine));
    steps += static_cast<std::int64_t>(tape.steps());
  }
  state.SetItemsProcessed(steps);
}

void BM_TapePlay(benchmark::State& state, const std::string& source) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  play_tape(state, machine, source);
}
BENCHMARK_CAPTURE(BM_TapePlay, sort,
                  tsc::isa::bubble_sort_source(0x40000, 256));

void BM_TapePlay(benchmark::State& state, const std::string& source,
                 core::PlacementPolicy policy) {
  const auto machine = core::build_policy_machine(policy, 7, false);
  machine->set_process(core::kMatrixVictim);
  play_tape(state, *machine, source);
}
BENCHMARK_CAPTURE(BM_TapePlay, sort_clepsydra,
                  tsc::isa::bubble_sort_source(0x40000, 256),
                  core::PlacementPolicy::kClepsydra);

// What one MBPTA run pays before any instruction executes.  Fresh: build a
// policy machine from scratch (the pre-pool protocol).  Reset: re-deploy a
// pooled machine with Machine::reset + configure (bit-exact, allocation
// free) - the MachinePool fast path.
void BM_MachineFresh(benchmark::State& state, core::PlacementPolicy policy) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto machine = core::build_policy_machine(policy, seed++, false);
    benchmark::DoNotOptimize(machine->now());
  }
}
BENCHMARK_CAPTURE(BM_MachineFresh, rm, core::PlacementPolicy::kRandomModulo);
BENCHMARK_CAPTURE(BM_MachineFresh, rpcache, core::PlacementPolicy::kRpCache);

void BM_MachineReset(benchmark::State& state, core::PlacementPolicy policy) {
  auto machine = core::build_policy_machine(policy, 0, false);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    machine->reset(core::policy_machine_rng_seed(seed));
    core::configure_policy_machine(*machine, seed++, false);
    benchmark::DoNotOptimize(machine->now());
  }
}
BENCHMARK_CAPTURE(BM_MachineReset, rm, core::PlacementPolicy::kRandomModulo);
BENCHMARK_CAPTURE(BM_MachineReset, rpcache, core::PlacementPolicy::kRpCache);

void BM_BenesPermutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t driver = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::benes_permutation(n, driver++));
  }
}
BENCHMARK(BM_BenesPermutation)->Arg(7)->Arg(11)->Arg(16);

void BM_Rng(benchmark::State& state, rng::Kind kind) {
  auto g = rng::make_rng(kind, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->next_u64());
  }
}
BENCHMARK_CAPTURE(BM_Rng, xorshift, rng::Kind::kXorShift64Star);
BENCHMARK_CAPTURE(BM_Rng, pcg32, rng::Kind::kPcg32);
BENCHMARK_CAPTURE(BM_Rng, lfsr16, rng::Kind::kLfsr16);

}  // namespace

BENCHMARK_MAIN();
