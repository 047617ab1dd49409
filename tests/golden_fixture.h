// Shared helpers of the golden byte-identity suites (golden_test,
// paper_golden_test): read a committed fixture and render an experiment
// exactly as `tsc_run --json` prints it, so every fixture can be
// regenerated with the CLI.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runner/experiment.h"

#ifndef TSC_SOURCE_DIR
#error "TSC_SOURCE_DIR must point at the repository root"
#endif

namespace tsc::runner {

inline std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(TSC_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The compact dump plus trailing newline that `tsc_run --json` writes.
inline std::string run_experiment_json(const std::string& name,
                                       const RunOptions& options) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr) << "unknown experiment " << name;
  if (experiment == nullptr) return {};
  Json doc = Json::object();
  doc.set("experiment", experiment->name)
      .set("description", experiment->description)
      .set("seed", options.master_seed)
      .set("results", experiment->run(options));
  return doc.dump(-1) + "\n";
}

inline std::string run_experiment_json(const std::string& name,
                                       std::size_t samples,
                                       std::size_t shard_size,
                                       unsigned workers) {
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  return run_experiment_json(name, options);
}

}  // namespace tsc::runner
