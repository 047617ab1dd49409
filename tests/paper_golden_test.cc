// Golden bit-identity of the paper's own experiments at --fast scale.
//
// fig1-fig4, sec621-sec623 and the three ablations are the reproduction's
// figures and section results.  Each is pinned byte for byte by
// tests/golden/<name>_fast.json, produced by
//   tsc_run --experiment <name> --fast --json > tests/golden/<name>_fast.json
// and checked at 1 and 4 workers (every experiment's JSON is a pure
// function of samples, seed and shard size, never of the worker count).
// Only the bytes are pinned here; the paper-claim booleans of these
// experiments are not asserted yet.  The heavyweight matrix goldens live in
// golden_test; this binary stays separate so that long pole does not grow.
#include <gtest/gtest.h>

#include <string>

#include "golden_fixture.h"

namespace tsc::runner {
namespace {

class PaperGolden : public testing::TestWithParam<const char*> {};

TEST_P(PaperGolden, FastScaleMatchesFixtureAtOneAndFourWorkers) {
  const std::string name = GetParam();
  const std::string expected =
      read_fixture("tests/golden/" + name + "_fast.json");
  ASSERT_FALSE(expected.empty());
  for (const unsigned workers : {1u, 4u}) {
    RunOptions options;
    options.fast = true;
    options.workers = workers;
    EXPECT_EQ(run_experiment_json(name, options), expected)
        << name << " diverged from its fixture at " << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Experiments, PaperGolden,
    testing::Values("fig1", "fig2", "fig3", "fig4", "sec621", "sec622",
                    "sec623", "ablation_samples", "ablation_seedpolicy",
                    "ablation_partitioning"),
    [](const testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace tsc::runner
