// perfbench_trace: the traced replay behind perfbench/run.py.
//
// Replays each benchmark workload's campaign pipeline - attack_matrix,
// flush_matrix, pwcet_matrix - through the library's public calls, with a
// span around every call into a layer (runner, core, attack, isa, stats,
// mbpta) and counters at the same boundaries.  The replay emits the same
// result document `tsc_run --json` prints, so perfbench/run.py can require
// it to be byte-identical to the benchmarked run: that is what proves the
// traced work is the benchmarked work.
//
//   perfbench_trace --replay WORKLOAD --seed S --workers N --out DIR
//       writes DIR/<experiment>.json, DIR/spans.tsv, DIR/counters.json
//   perfbench_trace --setup-probe WORKLOAD --seed S --workers N
//       prints the CPU seconds one cold set-up takes: thread pool, kernel
//       assembly and every cell's pooled machine on every worker
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/metrics.h"
#include "attack/primeprobe.h"
#include "cache/placement.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"
#include "runner/experiment.h"
#include "runner/json.h"
#include "runner/machine_pool.h"
#include "runner/thread_pool.h"
#include "stats/descriptive.h"
#include "stats/evt.h"
#include "stats/gof.h"
#include "stats/tests.h"
#include "trace.h"

namespace perfbench {
namespace {

using tsc::runner::ByteReader;
using tsc::runner::ByteWriter;
using tsc::runner::Json;
using tsc::runner::MachinePool;
using tsc::runner::PooledMachine;
using tsc::runner::ThreadPool;
namespace attack = tsc::attack;
namespace cache = tsc::cache;
namespace core = tsc::core;
namespace crypto = tsc::crypto;
namespace isa = tsc::isa;
namespace mbpta = tsc::mbpta;
namespace rng = tsc::rng;
namespace runner = tsc::runner;
namespace sim = tsc::sim;
namespace stats = tsc::stats;

// --- campaign parameters ----------------------------------------------------
// The scale and protocol constants of the three experiments, as
// src/runner/experiments.cc defines them.  A drift between the two shows up
// as a replay that no longer matches the golden.

struct MatrixCell {
  core::PlacementPolicy policy;
  bool partitioned;
};

std::vector<MatrixCell> matrix_cells() {
  std::vector<MatrixCell> cells;
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      cells.push_back({policy, partitioned});
    }
  }
  return cells;
}

std::vector<std::size_t> matrix_shards(std::size_t samples,
                                       std::size_t shard_size) {
  shard_size = std::max<std::size_t>(1, shard_size);
  std::vector<std::size_t> out;
  for (std::size_t start = 0; start < samples; start += shard_size) {
    out.push_back(std::min(shard_size, samples - start));
  }
  if (out.empty()) out.push_back(samples);
  return out;
}

std::uint64_t attack_cell_seed(std::uint64_t master, std::size_t index) {
  return rng::derive_seed(master, 0x3A70 + index);
}
std::uint64_t flush_cell_seed(std::uint64_t master, std::size_t index) {
  return rng::derive_seed(master, 0xF1A5 + index);
}
std::uint64_t pwcet_cell_seed(std::uint64_t master, std::size_t cell) {
  return rng::derive_seed(master, 0x5CE7'0000 + cell);
}
std::uint64_t pwcet_leak_seed(std::uint64_t master, std::size_t platform) {
  return rng::derive_seed(master, 0x9A57'0000 + platform);
}

constexpr double kPwcetTargetProb = 1e-10;
constexpr double kPwcetAlpha = 0.05;
constexpr double kConvergenceTol = 0.10;
constexpr std::size_t kCheckpointEvery = 8;  // tsc_run's default cadence

struct Kernel {
  std::string name;
  std::string source;
};

std::vector<Kernel> kernel_suite() {
  return {
      {"vecsum-20KB", isa::vector_sum_source(0x40000, 5120)},
      {"memcpy-8KB", isa::memcpy_source(0x40000, 0x60000, 2048)},
      {"sort-1KB", isa::bubble_sort_source(0x40000, 256)},
      {"matmul-24x24", isa::matmul_source(0x40000, 0x50000, 0x60000, 24)},
      {"stride-64B-32KB", isa::stride_walk_source(0x40000, 8192, 64, 32768)},
  };
}

std::vector<isa::Program> assemble_suite(const std::vector<Kernel>& suite) {
  const Span span("isa.assemble");
  std::vector<isa::Program> programs;
  for (const Kernel& kernel : suite) {
    programs.push_back(isa::assemble(kernel.source, 0x1000));
  }
  return programs;
}

mbpta::AnalysisConfig pwcet_analysis_config() {
  mbpta::AnalysisConfig cfg;
  cfg.min_runs = 100;
  cfg.alpha = kPwcetAlpha;
  cfg.block = 10;
  return cfg;
}

// --- traced boundaries ------------------------------------------------------

std::unique_ptr<ThreadPool> make_pool(unsigned workers) {
  const Span span("runner.pool");
  return std::make_unique<ThreadPool>(workers);
}

PooledMachine lease(const MatrixCell& cell, std::uint64_t seed) {
  const Span span("core.lease");
  return MachinePool::local().policy_machine(cell.policy, seed,
                                             cell.partitioned);
}

/// Accesses and misses over every level of the machine's hierarchy.
struct CacheCount {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
};

CacheCount cache_count(sim::Machine& machine) {
  sim::Hierarchy& h = machine.hierarchy();
  CacheCount c;
  for (cache::Cache* level :
       {&h.l1i(), &h.l1d(), h.has_l2() ? &h.l2() : nullptr}) {
    if (level == nullptr) continue;
    const cache::CacheStats s = level->stats();
    c.accesses += s.accesses;
    c.misses += s.misses;
  }
  return c;
}

/// Counts the cache work a task does on its leased machine.
class CacheWork {
 public:
  explicit CacheWork(sim::Machine& machine)
      : machine_(machine), before_(cache_count(machine)) {}
  ~CacheWork() {
    const CacheCount after = cache_count(machine_);
    count("cache.accesses", after.accesses - before_.accesses);
    count("cache.misses", after.misses - before_.misses);
  }
  CacheWork(const CacheWork&) = delete;
  CacheWork& operator=(const CacheWork&) = delete;

 private:
  sim::Machine& machine_;
  CacheCount before_;
};

/// parallel_map with a stage span and one task span per index, parented to
/// the stage across the pool's threads.
template <typename Fn>
auto traced_map(ThreadPool& pool, std::size_t tasks, Fn&& fn) {
  const Span stage("runner.stage");
  const std::uint64_t stage_id = stage.id();
  return runner::parallel_map(pool, tasks, [&fn, stage_id](std::size_t i) {
    const Span task("runner.task", stage_id);
    return fn(i);
  });
}

/// The durable path of one stage: every task's result is encoded on its
/// worker, streamed in index order into a checkpoint re-saved every
/// kCheckpointEvery completions (and once at the end), then decoded - the
/// in-process equivalent of what `--checkpoint` adds to a campaign.
template <typename R, typename Fn>
std::vector<R> durable_map(ThreadPool& pool, std::size_t tasks, Fn&& fn,
                           const runner::TaskCodec<R>& codec,
                           runner::Checkpoint& checkpoint,
                           const std::string& stage_name,
                           const std::string& path) {
  const Span stage("runner.stage");
  const std::uint64_t stage_id = stage.id();
  std::vector<std::future<std::vector<std::uint8_t>>> futures;
  futures.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    futures.push_back(pool.submit([&fn, &codec, stage_id, i] {
      const Span task("runner.task", stage_id);
      R result = fn(i);
      const Span span("runner.encode");
      ByteWriter writer;
      codec.encode(result, writer);
      count("runner.payload_bytes", writer.bytes().size());
      return std::move(writer).take();
    }));
  }
  std::vector<std::vector<std::uint8_t>> payloads(tasks);
  std::size_t unflushed = 0;
  const auto flush = [&] {
    const Span span("runner.checkpoint");
    checkpoint.save(path);
    count("runner.checkpoint_flushes", 1);
    count("runner.checkpoint_bytes", std::filesystem::file_size(path));
    unflushed = 0;
  };
  try {
    for (std::size_t i = 0; i < tasks; ++i) {
      payloads[i] = futures[i].get();
      checkpoint.put(stage_name, tasks, i, payloads[i]);
      if (++unflushed >= kCheckpointEvery) flush();
    }
    if (unflushed > 0) flush();
  } catch (...) {
    // Queued tasks reference `fn` and `codec`: let them finish first.
    for (auto& future : futures) {
      if (future.valid()) future.wait();
    }
    throw;
  }
  std::vector<R> results;
  results.reserve(tasks);
  for (const std::vector<std::uint8_t>& payload : payloads) {
    const Span span("runner.decode");
    ByteReader reader(payload);
    results.push_back(codec.decode(reader));
  }
  return results;
}

template <typename Outcome>
void merge_into(std::optional<Outcome>& into, const Outcome& part) {
  const Span span("attack.merge");
  if (into) {
    into->merge(part);
  } else {
    into.emplace(part);
  }
}

template <typename Fn>
attack::MatrixRanking score(Fn&& fn) {
  const Span span("attack.score");
  count("attack.score_calls", 1);
  return fn();
}

Json ranking_json(const attack::MatrixRanking& ranking,
                  const stats::JointHistogram& channel) {
  Json ranks = Json::array();
  for (int pos = 0; pos < 16; ++pos) {
    ranks.push(ranking.bytes[static_cast<std::size_t>(pos)].true_rank);
  }
  Json j = Json::object();
  j.set("mean_true_rank", ranking.mean_true_rank())
      .set("best_true_rank", ranking.best_true_rank())
      .set("line_resolved_bytes", ranking.line_resolved_bytes())
      .set("byte_true_ranks", std::move(ranks))
      .set("channel_mi_bits", channel.mi_bits())
      .set("channel_mi_bits_corrected", channel.mi_bits_corrected())
      .set("secret_entropy_bits", channel.x_entropy_bits());
  return j;
}

/// The tsc_run result envelope, dumped and written the way `--output` does.
void emit(const std::string& experiment, std::uint64_t seed, Json results,
          const std::string& path) {
  const Span span("runner.emit");
  Json doc = Json::object();
  doc.set("experiment", experiment)
      .set("description", runner::find_experiment(experiment)->description)
      .set("seed", seed)
      .set("results", std::move(results));
  runner::atomic_write_file(path, doc.dump(-1) + '\n');
}

struct Campaign {
  std::size_t samples;
  std::size_t shard_size;
  std::uint64_t seed;
  unsigned workers;
  std::string out_dir;
  std::string checkpoint;  ///< empty: in-process; else the durable path
};

// --- attack_matrix ----------------------------------------------------------

void replay_attack_matrix(const Campaign& c) {
  const std::unique_ptr<ThreadPool> pool = make_pool(c.workers);
  const std::vector<MatrixCell> cells = matrix_cells();
  const std::vector<std::size_t> shards =
      matrix_shards(c.samples, c.shard_size);
  const std::size_t n_shards = shards.size();
  const crypto::Key victim_key = core::campaign_victim_key(c.seed);
  const crypto::SimAesLayout layout{};
  const cache::Geometry l1 = cache::l1_geometry_arm920t();

  struct TaskResult {
    std::optional<attack::PrimeProbeOutcome> pp;
    std::optional<attack::EvictTimeOutcome> et;
  };
  const auto run_task = [&](std::size_t task) {
    const bool prime_probe = task % 2 == 0;
    const std::size_t cell_index = (task / 2) / n_shards;
    const std::size_t shard = (task / 2) % n_shards;
    const MatrixCell& cell = cells[cell_index];
    const std::uint64_t cell_seed = attack_cell_seed(c.seed, cell_index);
    sim::Machine& machine = lease(cell, cell_seed).machine;
    crypto::SimAes aes(machine, layout, victim_key);
    TaskResult result;
    const CacheWork work(machine);
    const Span span("attack.simulate");
    count("attack.trials", shards[shard]);
    if (prime_probe) {
      rng::XorShift64Star pt_rng(rng::derive_seed(cell_seed, 0x9700 + shard));
      result.pp = attack::run_aes_prime_probe(
          machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
          shards[shard], pt_rng, attack::PrimeProbeConfig{});
    } else {
      rng::XorShift64Star pt_rng(rng::derive_seed(cell_seed, 0xE7000 + shard));
      result.et = attack::run_aes_evict_time(
          machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
          shards[shard], shard * c.shard_size, pt_rng,
          attack::EvictTimeConfig{});
    }
    return result;
  };

  const std::size_t tasks = 2 * cells.size() * n_shards;
  std::vector<TaskResult> parts;
  if (c.checkpoint.empty()) {
    parts = traced_map(*pool, tasks, run_task);
  } else {
    const runner::TaskCodec<TaskResult> codec{
        [](const TaskResult& t, ByteWriter& w) {
          w.put_u8(t.pp ? 1 : 2);
          if (t.pp) {
            runner::put_pp_outcome(w, *t.pp);
          } else {
            runner::put_et_outcome(w, *t.et);
          }
        },
        [](ByteReader& r) {
          TaskResult t;
          if (r.u8() == 1) {
            t.pp = runner::get_pp_outcome(r);
          } else {
            t.et = runner::get_et_outcome(r);
          }
          return t;
        }};
    runner::Checkpoint checkpoint(
        "attack_matrix", "samples=" + std::to_string(c.samples) +
                             ",seed=" + std::to_string(c.seed) +
                             ",shard-size=" + std::to_string(c.shard_size) +
                             ",fast=0");
    parts = durable_map(*pool, tasks, run_task, codec, checkpoint,
                        "attack_matrix", c.checkpoint);
  }

  const Span tail("runner.serial_tail");
  Json rows = Json::array();
  std::vector<double> pp_unpartitioned_rank;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    std::optional<attack::PrimeProbeOutcome> pp;
    std::optional<attack::EvictTimeOutcome> et;
    for (std::size_t s = 0; s < n_shards; ++s) {
      merge_into(pp, *parts[2 * (cell * n_shards + s)].pp);
      merge_into(et, *parts[2 * (cell * n_shards + s) + 1].et);
    }
    const attack::MatrixRanking pp_rank = score([&] {
      return attack::score_prime_probe(pp->profile, l1, layout.tables,
                                       victim_key);
    });
    const attack::MatrixRanking et_rank = score([&] {
      return attack::score_evict_time(et->profile, l1, layout.tables,
                                      victim_key);
    });
    if (!cells[cell].partitioned) {
      pp_unpartitioned_rank.push_back(pp_rank.mean_true_rank());
    }
    Json row = Json::object();
    row.set("policy", core::to_string(cells[cell].policy))
        .set("partitioned", cells[cell].partitioned)
        .set("samples", pp->profile.samples())
        .set("prime_probe", ranking_json(pp_rank, pp->channel))
        .set("evict_time", ranking_json(et_rank, et->channel));
    rows.push(std::move(row));
  }

  Json ordering = Json::object();
  bool modulo_strictly_best = true;
  for (std::size_t p = 0; p < core::all_policies().size(); ++p) {
    ordering.set(core::to_string(core::all_policies()[p]),
                 pp_unpartitioned_rank[p]);
    if (p > 0 && pp_unpartitioned_rank[p] <= pp_unpartitioned_rank[0]) {
      modulo_strictly_best = false;
    }
  }
  Json j = Json::object();
  j.set("samples_per_cell", c.samples)
      .set("shards_per_cell", n_shards)
      .set("chance_mean_rank", 127.5)
      .set("prime_probe_mean_rank_by_policy", std::move(ordering))
      .set("modulo_strictly_most_leaky", modulo_strictly_best)
      .set("cells", std::move(rows));
  emit("attack_matrix", c.seed, std::move(j),
       c.out_dir + "/attack_matrix.json");
}

// --- flush_matrix -----------------------------------------------------------

void replay_flush_matrix(const Campaign& c) {
  const std::unique_ptr<ThreadPool> pool = make_pool(c.workers);
  const std::vector<MatrixCell> cells = matrix_cells();
  const std::vector<std::size_t> shards =
      matrix_shards(c.samples, c.shard_size);
  const std::size_t n_shards = shards.size();
  const crypto::Key victim_key = core::campaign_victim_key(c.seed);
  const crypto::SimAesLayout layout{};
  const cache::Geometry l1 = cache::l1_geometry_arm920t();

  const auto run_task = [&](std::size_t task) {
    const bool reload = task % 2 == 0;
    const std::size_t cell_index = (task / 2) / n_shards;
    const std::size_t shard = (task / 2) % n_shards;
    const MatrixCell& cell = cells[cell_index];
    const std::uint64_t cell_seed = flush_cell_seed(c.seed, cell_index);
    sim::Machine& machine = lease(cell, cell_seed).machine;
    crypto::SimAes aes(machine, layout, victim_key);
    const CacheWork work(machine);
    const Span span("attack.simulate");
    count("attack.trials", shards[shard]);
    rng::XorShift64Star pt_rng(
        rng::derive_seed(cell_seed, (reload ? 0xF4000 : 0xFF000) + shard));
    return reload ? attack::run_aes_flush_reload(
                        machine, core::kMatrixVictim, aes, shards[shard],
                        pt_rng, attack::FlushConfig{})
                  : attack::run_aes_flush_flush(
                        machine, core::kMatrixVictim, aes, shards[shard],
                        pt_rng, attack::FlushConfig{});
  };
  const std::vector<attack::FlushOutcome> parts =
      traced_map(*pool, 2 * cells.size() * n_shards, run_task);

  const Span tail("runner.serial_tail");
  Json rows = Json::array();
  std::vector<double> fr_rank(cells.size(), 127.5);
  std::vector<double> ff_rank(cells.size(), 127.5);
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    std::optional<attack::FlushOutcome> fr;
    std::optional<attack::FlushOutcome> ff;
    for (std::size_t s = 0; s < n_shards; ++s) {
      merge_into(fr, parts[2 * (cell * n_shards + s)]);
      merge_into(ff, parts[2 * (cell * n_shards + s) + 1]);
    }
    const attack::MatrixRanking fr_r =
        score([&] { return attack::score_flush(fr->profile, l1, victim_key); });
    const attack::MatrixRanking ff_r =
        score([&] { return attack::score_flush(ff->profile, l1, victim_key); });
    fr_rank[cell] = fr_r.mean_true_rank();
    ff_rank[cell] = ff_r.mean_true_rank();
    Json row = Json::object();
    row.set("policy", core::to_string(cells[cell].policy))
        .set("partitioned", cells[cell].partitioned)
        .set("samples", fr->profile.samples())
        .set("flush_reload", ranking_json(fr_r, fr->channel))
        .set("flush_flush", ranking_json(ff_r, ff->channel));
    rows.push(std::move(row));
  }

  const auto rank_of = [&](core::PlacementPolicy policy, bool partitioned,
                           const std::vector<double>& ranks) {
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
      if (cells[cell].policy == policy &&
          cells[cell].partitioned == partitioned) {
        return ranks[cell];
      }
    }
    return 127.5;
  };
  Json fr_ordering = Json::object();
  Json ff_ordering = Json::object();
  for (const core::PlacementPolicy policy : core::all_policies()) {
    fr_ordering.set(core::to_string(policy), rank_of(policy, false, fr_rank));
    ff_ordering.set(core::to_string(policy), rank_of(policy, false, ff_rank));
  }
  using core::PlacementPolicy;
  constexpr double kLineResolved = 8.0;
  const double placement_worst_fr =
      std::max({rank_of(PlacementPolicy::kModulo, false, fr_rank),
                rank_of(PlacementPolicy::kHashRp, false, fr_rank),
                rank_of(PlacementPolicy::kRpCache, false, fr_rank),
                rank_of(PlacementPolicy::kRandomModulo, false, fr_rank)});
  Json claims = Json::object();
  claims
      .set("flush_reload_defeats_placement_randomization",
           placement_worst_fr < kLineResolved)
      .set("partitioning_does_not_stop_flush_reload",
           rank_of(PlacementPolicy::kModulo, true, fr_rank) < kLineResolved)
      .set("flush_flush_line_resolves_modulo",
           rank_of(PlacementPolicy::kModulo, false, ff_rank) < kLineResolved)
      .set("clepsydra_ttls_outlive_flush_window",
           rank_of(PlacementPolicy::kClepsydra, false, fr_rank) <
               kLineResolved)
      .set("random_fill_blinds_flush_reload",
           rank_of(PlacementPolicy::kRandomAndSafe, false, fr_rank) >=
               4 * kLineResolved)
      .set("quantization_blinds_flush_channel",
           rank_of(PlacementPolicy::kTimeCache, false, fr_rank) >=
                   4 * kLineResolved &&
               rank_of(PlacementPolicy::kTimeCache, false, ff_rank) >=
                   4 * kLineResolved);

  Json j = Json::object();
  j.set("samples_per_cell", c.samples)
      .set("shards_per_cell", n_shards)
      .set("chance_mean_rank", 127.5)
      .set("flush_reload_mean_rank_by_policy", std::move(fr_ordering))
      .set("flush_flush_mean_rank_by_policy", std::move(ff_ordering))
      .set("claims", std::move(claims))
      .set("cells", std::move(rows));
  emit("flush_matrix", c.seed, std::move(j), c.out_dir + "/flush_matrix.json");
}

// --- pwcet_matrix -----------------------------------------------------------

Json iid_json(const stats::IidVerdict& v, double alpha) {
  Json j = Json::object();
  j.set("ljung_box_q", v.independence.statistic)
      .set("ljung_box_p", v.independence.p_value)
      .set("ks_d", v.identical.statistic)
      .set("ks_p", v.identical.p_value)
      .set("ks_distinct_values",
           static_cast<std::uint64_t>(v.identical.distinct_values))
      .set("ks_ties_suspect", v.identical.ties_suspect)
      .set("passed", v.passed(alpha));
  return j;
}

Json gof_json(const stats::GofResult& g) {
  Json j = Json::object();
  j.set("defined", g.defined).set("n", static_cast<std::uint64_t>(g.n));
  if (g.defined) {
    j.set("cvm_w2", g.cvm_statistic)
        .set("cvm_p", g.cvm_p_value)
        .set("qq_r2", g.qq_r2)
        .set("qq_tail_rel_err", g.qq_tail_rel_err)
        .set("acceptable", g.acceptable(kPwcetAlpha));
  }
  return j;
}

Json convergence_json(const mbpta::ConvergenceCurve& curve) {
  Json points = Json::array();
  for (const mbpta::ConvergencePoint& pt : curve.points) {
    points.push(Json::object()
                    .set("runs", static_cast<std::uint64_t>(pt.runs))
                    .set("bound", pt.bound));
  }
  Json j = Json::object();
  j.set("tolerance", curve.tolerance)
      .set("points", std::move(points))
      .set("converged", curve.converged);
  return j;
}

/// One MBPTA run: fresh-semantics lease, warm pass, timed pass.
double kernel_time(const MatrixCell& cell, const isa::Program& program,
                   std::uint64_t cell_seed, std::size_t run) {
  const PooledMachine leased = lease(cell, rng::derive_seed(cell_seed, run));
  leased.machine.set_process(core::kMatrixVictim);
  {
    const Span span("isa.load");
    leased.interpreter.load_program(program);
  }
  const CacheWork work(leased.machine);
  isa::RunResult warm;
  isa::RunResult timed;
  {
    const Span span("isa.run");
    warm = leased.interpreter.run(0x1000);
  }
  {
    const Span span("isa.run");
    timed = leased.interpreter.run(0x1000);
  }
  count("isa.instructions", warm.steps + timed.steps);
  return static_cast<double>(timed.cycles);
}

void replay_pwcet_matrix(const Campaign& c) {
  const std::size_t runs = std::max<std::size_t>(120, c.samples);
  const std::size_t pp_samples = runs * 2;
  const std::vector<Kernel> kernels = kernel_suite();
  const std::vector<isa::Program> programs = assemble_suite(kernels);
  const std::vector<MatrixCell> platforms = matrix_cells();
  const std::size_t n_kernels = kernels.size();
  const mbpta::AnalysisConfig cfg = pwcet_analysis_config();
  const crypto::Key victim_key = core::campaign_victim_key(c.seed);
  const crypto::SimAesLayout layout{};
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const std::vector<std::size_t> time_shards =
      matrix_shards(runs, c.shard_size);
  const std::vector<std::size_t> pp_shards =
      matrix_shards(pp_samples, c.shard_size);
  const std::size_t timing_tasks =
      platforms.size() * n_kernels * time_shards.size();
  const std::size_t total_tasks =
      timing_tasks + platforms.size() * pp_shards.size();

  struct PwcetTask {
    std::vector<double> times;
    std::optional<attack::PrimeProbeOutcome> pp;
  };
  const std::unique_ptr<ThreadPool> pool = make_pool(c.workers);
  const auto run_task = [&](std::size_t task) {
    PwcetTask out;
    if (task < timing_tasks) {
      const std::size_t shard = task % time_shards.size();
      const std::size_t cell = task / time_shards.size();
      const MatrixCell& platform = platforms[cell / n_kernels];
      const isa::Program& program = programs[cell % n_kernels];
      const std::uint64_t cell_seed = pwcet_cell_seed(c.seed, cell);
      const std::size_t begin = shard * c.shard_size;
      for (std::size_t i = 0; i < time_shards[shard]; ++i) {
        out.times.push_back(
            kernel_time(platform, program, cell_seed, begin + i));
      }
    } else {
      const std::size_t t = task - timing_tasks;
      const std::size_t platform_index = t / pp_shards.size();
      const std::size_t shard = t % pp_shards.size();
      const MatrixCell& platform = platforms[platform_index];
      const std::uint64_t seed = pwcet_leak_seed(c.seed, platform_index);
      sim::Machine& machine = lease(platform, seed).machine;
      crypto::SimAes aes(machine, layout, victim_key);
      rng::XorShift64Star pt_rng(rng::derive_seed(seed, 0x9700 + shard));
      const CacheWork work(machine);
      const Span span("attack.simulate");
      count("attack.trials", pp_shards[shard]);
      out.pp = attack::run_aes_prime_probe(
          machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
          pp_shards[shard], pt_rng, attack::PrimeProbeConfig{});
    }
    return out;
  };
  const std::vector<PwcetTask> parts = traced_map(*pool, total_tasks, run_task);

  const Span tail("runner.serial_tail");
  std::vector<std::vector<std::vector<double>>> cell_times(
      platforms.size(), std::vector<std::vector<double>>(n_kernels));
  for (std::size_t cell = 0; cell < platforms.size() * n_kernels; ++cell) {
    std::vector<double>& merged =
        cell_times[cell / n_kernels][cell % n_kernels];
    for (std::size_t s = 0; s < time_shards.size(); ++s) {
      const std::vector<double>& part =
          parts[cell * time_shards.size() + s].times;
      merged.insert(merged.end(), part.begin(), part.end());
    }
  }
  std::vector<double> baseline_mean(n_kernels, 0);
  for (std::size_t k = 0; k < n_kernels; ++k) {
    baseline_mean[k] = stats::summarize(cell_times[0][k]).mean;
  }
  std::size_t variable_cells = 0;
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    for (std::size_t k = 0; k < n_kernels; ++k) {
      if (stats::summarize(cell_times[p][k]).stddev > 0) ++variable_cells;
    }
  }
  const double gate_alpha =
      cfg.alpha / static_cast<double>(std::max<std::size_t>(1, variable_cells));

  struct PlatformAgg {
    int applicable = 0;
    int degenerate = 0;
    int iid_fail = 0;
    int converged = 0;
    double overhead_sum = 0;
    double vecsum_pwcet = 0;
    bool all_ok = true;
  };
  std::vector<PlatformAgg> agg(platforms.size());
  Json cells = Json::array();
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    for (std::size_t k = 0; k < n_kernels; ++k) {
      const std::vector<double>& times = cell_times[p][k];
      const stats::Summary summary = stats::summarize(times);
      const double overhead =
          baseline_mean[k] > 0 ? summary.mean / baseline_mean[k] : 0.0;
      agg[p].overhead_sum += overhead;
      Json cell = Json::object();
      cell.set("kernel", kernels[k].name)
          .set("policy", core::to_string(platforms[p].policy))
          .set("partitioned", platforms[p].partitioned)
          .set("runs", static_cast<std::uint64_t>(times.size()))
          .set("mean_cycles", summary.mean)
          .set("stddev_cycles", summary.stddev)
          .set("max_cycles", summary.max)
          .set("overhead_vs_modulo", overhead);
      std::string verdict;
      bool cell_converged = false;
      if (summary.stddev == 0) {
        verdict = "degenerate";
        ++agg[p].degenerate;
      } else {
        const stats::IidVerdict v = [&] {
          const Span span("stats.iid");
          return stats::iid_check(times, cfg.lags);
        }();
        cell.set("iid", iid_json(v, gate_alpha));
        if (!v.passed(gate_alpha)) {
          verdict = "iid_fail";
          ++agg[p].iid_fail;
        } else {
          verdict = "applicable";
          ++agg[p].applicable;
          Json tails = Json::array();
          for (const stats::TailModel tail :
               {stats::TailModel::kGumbelBlockMaxima,
                stats::TailModel::kGpdPot}) {
            mbpta::AnalysisConfig tail_cfg = cfg;
            tail_cfg.tail = tail;
            std::optional<stats::PwcetModel> model;
            {
              const Span span("stats.fit");
              model.emplace(times, tail, cfg.block);
            }
            const stats::GofResult gof = [&] {
              const Span span("stats.gof");
              return stats::gof_pwcet_fit(times, *model);
            }();
            const mbpta::ConvergenceCurve conv = [&] {
              const Span span("mbpta.convergence");
              return mbpta::pwcet_convergence(times, tail_cfg,
                                              kPwcetTargetProb, 6,
                                              kConvergenceTol);
            }();
            cell_converged = cell_converged || conv.converged;
            const double bound = model->pwcet(kPwcetTargetProb);
            if (k == 0 && tail == stats::TailModel::kGpdPot) {
              agg[p].vecsum_pwcet = bound;
            }
            Json t = Json::object();
            t.set("model", tail == stats::TailModel::kGumbelBlockMaxima
                               ? "gumbel_block_maxima"
                               : "gpd_pot")
                .set("pwcet_1e-10", bound)
                .set("gof", gof_json(gof))
                .set("convergence", convergence_json(conv));
            tails.push(std::move(t));
          }
          cell.set("tails", std::move(tails));
          if (cell_converged) ++agg[p].converged;
        }
      }
      cell.set("verdict", verdict);
      agg[p].all_ok = agg[p].all_ok &&
                      (verdict == "degenerate" ||
                       (verdict == "applicable" && cell_converged));
      cells.push(std::move(cell));
    }
  }

  Json tradeoff = Json::array();
  bool modulo_never_applicable = true;
  bool randomized_ok = true;
  int randomized_applicable = 0;
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    std::optional<attack::PrimeProbeOutcome> pp;
    for (std::size_t s = 0; s < pp_shards.size(); ++s) {
      merge_into(pp, *parts[timing_tasks + p * pp_shards.size() + s].pp);
    }
    const bool is_random = core::randomized(platforms[p].policy);
    if (!is_random && agg[p].applicable > 0) modulo_never_applicable = false;
    if (is_random && !agg[p].all_ok) randomized_ok = false;
    randomized_applicable += is_random ? agg[p].applicable : 0;
    const attack::MatrixRanking rank = score([&] {
      return attack::score_prime_probe(pp->profile, l1, layout.tables,
                                       victim_key);
    });
    Json row = Json::object();
    row.set("policy", core::to_string(platforms[p].policy))
        .set("partitioned", platforms[p].partitioned)
        .set("randomized", is_random)
        .set("prime_probe_mean_true_rank", rank.mean_true_rank())
        .set("prime_probe_line_resolved_bytes", rank.line_resolved_bytes())
        .set("channel_mi_bits_corrected", pp->channel.mi_bits_corrected())
        .set("kernels_applicable", agg[p].applicable)
        .set("kernels_degenerate", agg[p].degenerate)
        .set("kernels_iid_fail", agg[p].iid_fail)
        .set("kernels_converged", agg[p].converged)
        .set("mean_overhead_vs_modulo",
             agg[p].overhead_sum / static_cast<double>(n_kernels))
        .set("vecsum_pwcet_1e-10", agg[p].vecsum_pwcet);
    tradeoff.push(std::move(row));
  }
  Json claim = Json::object();
  claim
      .set("deterministic_modulo_never_mbpta_applicable",
           modulo_never_applicable)
      .set("randomized_platforms_pass_with_converged_pwcet",
           randomized_ok && randomized_applicable > 0)
      .set("randomized_applicable_cells", randomized_applicable);

  Json j = Json::object();
  j.set("runs_per_cell", static_cast<std::uint64_t>(runs))
      .set("pp_samples_per_platform", static_cast<std::uint64_t>(pp_samples))
      .set("alpha", kPwcetAlpha)
      .set("gate_alpha", gate_alpha)
      .set("variable_cells", static_cast<std::uint64_t>(variable_cells))
      .set("target_exceedance", kPwcetTargetProb)
      .set("block", static_cast<std::uint64_t>(cfg.block))
      .set("chance_mean_rank", 127.5)
      .set("shards_per_cell", static_cast<std::uint64_t>(time_shards.size()))
      .set("cells", std::move(cells))
      .set("tradeoff", std::move(tradeoff))
      .set("claim", std::move(claim));
  emit("pwcet_matrix", c.seed, std::move(j), c.out_dir + "/pwcet_matrix.json");
}

// --- workloads --------------------------------------------------------------

void replay(const std::string& workload, std::uint64_t seed, unsigned workers,
            const std::string& out_dir) {
  const Span root("workload");
  if (workload == "leakage_golden") {
    replay_attack_matrix({1200, 400, seed, workers, out_dir, ""});
    replay_flush_matrix({600, 200, seed, workers, out_dir, ""});
  } else if (workload == "predictability_golden") {
    replay_pwcet_matrix({240, 80, seed, workers, out_dir, ""});
  } else if (workload == "leakage_durable") {
    replay_attack_matrix(
        {1200, 400, seed, workers, out_dir, out_dir + "/checkpoint.bin"});
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One set-up of `workload`'s campaigns: a fresh thread pool (fresh
/// worker-local machine pools), the kernel suite assembled, and every
/// cell's pooled machine built on every worker.  Returns the CPU seconds
/// this takes on the calling thread and on every worker.
double setup_once(const std::string& workload, std::uint64_t seed,
                  unsigned workers) {
  struct Part {
    bool kernels;
    std::function<std::uint64_t(std::size_t)> cell_seed;
  };
  std::vector<Part> parts;
  const auto attack_seed = [seed](std::size_t i) {
    return attack_cell_seed(seed, i);
  };
  const auto flush_seed = [seed](std::size_t i) {
    return flush_cell_seed(seed, i);
  };
  if (workload == "leakage_golden") {
    parts = {{false, attack_seed}, {false, flush_seed}};
  } else if (workload == "predictability_golden") {
    parts = {{true, [seed](std::size_t i) {
                return rng::derive_seed(pwcet_cell_seed(seed, i), 0);
              }}};
  } else if (workload == "leakage_durable") {
    parts = {{false, attack_seed}};
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  // CPU time, not wall time: on a shared virtual machine a worker's start
  // can wait milliseconds for its virtual CPU, which is host state, not
  // set-up work.  Page faults of the machines' memory are counted (sys).
  double cpu_s = 0;
  for (const Part& part : parts) {
    const double main0 = thread_cpu_s();
    ThreadPool pool(workers);
    if (part.kernels) (void)assemble_suite(kernel_suite());
    const std::vector<MatrixCell> cells = matrix_cells();
    cpu_s += thread_cpu_s() - main0;
    // The latch holds every task until all have started, so each lands on
    // its own worker and every worker builds its own pool.
    std::latch started(pool.size());
    for (const double worker_s :
         runner::parallel_map(pool, pool.size(), [&](std::size_t) {
           started.arrive_and_wait();
           const double t0 = thread_cpu_s();
           for (std::size_t i = 0; i < cells.size(); ++i) {
             (void)MachinePool::local().policy_machine(
                 cells[i].policy, part.cell_seed(i), cells[i].partitioned);
           }
           return thread_cpu_s() - t0;
         })) {
      cpu_s += worker_s;
    }
  }
  return cpu_s;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_trace --replay WORKLOAD --seed S --workers N "
               "--out DIR\n"
               "       perfbench_trace --setup-probe WORKLOAD --seed S "
               "--workers N\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string mode;
  std::string workload;
  std::string out_dir;
  std::uint64_t seed = 2018;
  unsigned workers = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--replay" || arg == "--setup-probe") {
      mode = arg;
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--workers") {
      workers = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 != 1 || workers == 0) return perfbench::usage();
  try {
    if (mode == "--replay" && !out_dir.empty()) {
      perfbench::replay(workload, seed, workers, out_dir);
      perfbench::write(out_dir + "/spans.tsv", out_dir + "/counters.json",
                       workload);
    } else if (mode == "--setup-probe") {
      std::printf("%.9g\n", perfbench::setup_once(workload, seed, workers));
    } else {
      return perfbench::usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
