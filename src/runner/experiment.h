// The experiment registry: every paper artifact (fig1..fig5), evaluation
// section (sec6.2.x) and ablation is a named experiment - a pure function
// from RunOptions to a JSON result document.  The tsc_run driver and the
// thin per-experiment wrappers in bench/ both dispatch through this table,
// so a scenario is defined exactly once.
//
// Output discipline: the JSON an experiment returns must be a deterministic
// function of (name, samples, master_seed, shard_size) - never of the
// worker count, wall-clock time, or host.  Throughput metadata goes to
// stderr, keeping stdout byte-stable so CI can diff runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/json.h"

namespace tsc::runner {

/// Options shared by every experiment, parsed from the CLI / environment.
struct RunOptions {
  /// Per-side sample (or run) count; 0 = the experiment's standard scale.
  std::size_t samples = 0;
  std::uint64_t master_seed = 2018;
  /// Worker threads for sharded/parallel stages; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Samples per shard (the deterministic decomposition unit).
  std::size_t shard_size = 25'000;
  /// TSC_FAST-style smoke scaling (divides standard scales by 8).
  bool fast = false;

  /// Fault-tolerance configuration (checkpoint/resume, retries, watchdog,
  /// fault injection) and the live session experiment_main opens from it.
  /// Null session (the default) keeps every experiment on the plain
  /// parallel_map path with zero added cost.  Only experiments registered
  /// with `honours_session` run through the session; experiment_main
  /// rejects the session flags for every other experiment.
  FtOptions ft{};
  FtSession* ft_session = nullptr;

  /// Resolve the effective sample count: explicit `samples` wins, then the
  /// TSC_SAMPLES environment override, then `standard` (divided by 8 under
  /// fast/TSC_FAST).
  [[nodiscard]] std::size_t resolve_samples(std::size_t standard) const;
};

struct Experiment {
  std::string name;
  std::string description;
  Json (*run)(const RunOptions&);
  /// Runs its shards through RunOptions::ft_session, so checkpointing,
  /// retries, fault injection and --dispatch reach it.
  bool honours_session = false;
};

/// All registered experiments, in presentation order.
[[nodiscard]] const std::vector<Experiment>& all_experiments();

/// Look up by name; nullptr when unknown.
[[nodiscard]] const Experiment* find_experiment(const std::string& name);

/// tsc_run's entry point: parse --experiment NAME (or --list) and the
/// other flags, run the experiment, print the result envelope to stdout.
/// Returns a process exit code.
int experiment_main(int argc, char** argv);

}  // namespace tsc::runner
