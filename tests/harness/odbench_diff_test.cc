// End-to-end tests of `odbench diff`, driving the real binary against the
// committed golden artifacts in tests/data/artifacts/.  These are the same
// goldens CI compares fresh runs against, so DiffFreshRunAgainstGolden is
// the in-tree proof that the golden workflow holds: regenerate, diff,
// exit 0 — even though the goldens were recorded at a different git
// revision (provenance is informational, never a verdict).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/artifact.h"

namespace odharness {
namespace {

const std::string kBinary = ODBENCH_BINARY;
const std::string kGoldenDir = ODBENCH_GOLDEN_DIR;
const std::string kTraceGoldenDir = ODBENCH_TRACE_GOLDEN_DIR;

struct CommandResult {
  int exit_code;
  std::string output;  // stdout + stderr.
};

CommandResult RunCommand(const std::string& args) {
  // Pid-unique so parallel ctest shards never share a capture file.
  const std::string out_path = testing::TempDir() + "/odbench_diff_out_" +
                               std::to_string(getpid()) + ".txt";
  const std::string command =
      kBinary + " " + args + " > " + out_path + " 2>&1";
  int status = std::system(command.c_str());
  CommandResult result;
  result.exit_code = WEXITSTATUS(status);
  std::ifstream in(out_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  result.output = buffer.str();
  std::remove(out_path.c_str());
  return result;
}

std::string Golden(const std::string& name) {
  return kGoldenDir + "/" + name + ".json";
}

TEST(OdbenchDiffTest, GoldenAgainstItselfExitsZero) {
  CommandResult result =
      RunCommand("diff " + Golden("fig04_power_table") + " " +
          Golden("fig04_power_table"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(OdbenchDiffTest, DiffFreshRunAgainstGolden) {
  // Regenerate each golden experiment and diff it against the committed
  // fixture: measured content must be bit-identical.
  const std::string out_dir = testing::TempDir() + "/odbench_diff_fresh";
  for (const char* name :
       {"fig02_profile", "fig04_power_table", "calibrate", "fig06_video",
        "fig08_speech", "fig10_map", "fig11_map_think", "fig13_web",
        "fig14_web_think", "fig15_concurrency", "fig16_summary",
        "fig18_zoned", "fault_sweep"}) {
    CommandResult run =
        RunCommand("run " + std::string(name) + " --out " + out_dir);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    CommandResult diff = RunCommand("diff " + Golden(name) + " " + out_dir + "/" +
                             name + ".json");
    EXPECT_EQ(diff.exit_code, 0) << name << ":\n" << diff.output;
  }
}

TEST(OdbenchDiffTest, PerturbedValueExitsTwoAndNamesTheSet) {
  auto artifact = RunArtifact::ReadFile(Golden("fig06_video"));
  ASSERT_TRUE(artifact.has_value());
  ASSERT_FALSE(artifact->sets.empty());
  ASSERT_FALSE(artifact->sets[0].set.trials.empty());
  artifact->sets[0].set.trials[0].value += 100.0;
  const std::string perturbed = testing::TempDir() + "/perturbed.json";
  ASSERT_TRUE(artifact->WriteFile(perturbed));

  CommandResult result =
      RunCommand("diff " + Golden("fig06_video") + " " + perturbed);
  EXPECT_EQ(result.exit_code, 2);
  // The report names the offending set and flags the tolerance violation.
  EXPECT_NE(result.output.find(artifact->sets[0].label), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("OUT OF TOLERANCE"), std::string::npos);
  std::remove(perturbed.c_str());
}

TEST(OdbenchDiffTest, SmallDriftWithinToleranceExitsOne) {
  auto artifact = RunArtifact::ReadFile(Golden("fig06_video"));
  ASSERT_TRUE(artifact.has_value());
  artifact->sets[0].set.trials[0].value += 1e-9;
  const std::string drifted = testing::TempDir() + "/drifted.json";
  ASSERT_TRUE(artifact->WriteFile(drifted));

  CommandResult strict =
      RunCommand("diff " + Golden("fig06_video") + " " + drifted);
  EXPECT_EQ(strict.exit_code, 2);
  CommandResult tolerant = RunCommand("diff --rtol 1e-6 " +
                               Golden("fig06_video") + " " + drifted);
  EXPECT_EQ(tolerant.exit_code, 1) << tolerant.output;
  EXPECT_NE(tolerant.output.find("within tolerance"), std::string::npos);
  std::remove(drifted.c_str());
}

TEST(OdbenchDiffTest, CompactFlagWritesSingleLineEquivalentArtifact) {
  const std::string out_dir = testing::TempDir() + "/odbench_compact";
  CommandResult run =
      RunCommand("run fig04_power_table --compact --out " + out_dir);
  ASSERT_EQ(run.exit_code, 0) << run.output;

  const std::string path = out_dir + "/fig04_power_table.json";
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str().find('\n'), std::string::npos);

  // Spelling only: the compact document diffs clean against the golden.
  CommandResult diff =
      RunCommand("diff " + Golden("fig04_power_table") + " " + path);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
}

TEST(OdbenchDiffTest, FaultSweepGoldenCarriesThePlanInProvenance) {
  auto artifact = RunArtifact::ReadFile(Golden("fault_sweep"));
  ASSERT_TRUE(artifact.has_value());
  // The disturbance schedule is part of the record of how the degradation
  // curve was produced.
  EXPECT_NE(artifact->provenance.fault_plan.find("outage@"),
            std::string::npos);
}

TEST(OdbenchDiffTest, PerturbedFaultSweepExitsTwo) {
  // The acceptance gate for the degradation curve: a calibration-sized
  // shift in any measured cell is an out-of-tolerance regression.
  auto artifact = RunArtifact::ReadFile(Golden("fault_sweep"));
  ASSERT_TRUE(artifact.has_value());
  ASSERT_FALSE(artifact->sets.empty());
  ASSERT_FALSE(artifact->sets[0].set.trials.empty());
  artifact->sets[0].set.trials[0].value *= 1.02;
  const std::string perturbed = testing::TempDir() + "/fault_perturbed.json";
  ASSERT_TRUE(artifact->WriteFile(perturbed));

  CommandResult result =
      RunCommand("diff " + Golden("fault_sweep") + " " + perturbed);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("OUT OF TOLERANCE"), std::string::npos);
  std::remove(perturbed.c_str());
}

TEST(OdbenchDiffTest, FaultPlanDifferenceIsAHintNotAVerdict) {
  // Equal measurements recorded under different provenance still diff
  // clean; the plan change is reported informationally.
  auto artifact = RunArtifact::ReadFile(Golden("fault_sweep"));
  ASSERT_TRUE(artifact.has_value());
  artifact->provenance.fault_plan = "outage@1+1";
  const std::string replanned = testing::TempDir() + "/fault_replanned.json";
  ASSERT_TRUE(artifact->WriteFile(replanned));

  CommandResult result =
      RunCommand("diff " + Golden("fault_sweep") + " " + replanned);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("fault_plan:"), std::string::npos);
  std::remove(replanned.c_str());
}

std::string TraceGolden(const std::string& name) {
  return kTraceGoldenDir + "/" + name + ".trace.json";
}

TEST(OdbenchDiffTest, TraceGoldenAgainstItselfExitsZero) {
  // Both flag spellings: the grammar binds a bare word after --traces as
  // its value, and the CLI accepts either placement.
  CommandResult leading = RunCommand("diff --traces " +
                              TraceGolden("fig13_web") + " " +
                              TraceGolden("fig13_web"));
  EXPECT_EQ(leading.exit_code, 0) << leading.output;
  CommandResult trailing = RunCommand("diff " + TraceGolden("fig13_web") +
                               " " + TraceGolden("fig13_web") + " --traces");
  EXPECT_EQ(trailing.exit_code, 0) << trailing.output;
}

TEST(OdbenchDiffTest, FreshTracedRunMatchesTraceGolden) {
  // The CI trace-regression workflow in miniature: regenerate the cheapest
  // traced experiment and diff its power profile against the committed
  // golden.  Measured content must be bit-identical (exit 0); the scalar
  // artifact from the traced run must also still match its scalar golden.
  const std::string out_dir = testing::TempDir() + "/odbench_trace_fresh";
  CommandResult run =
      RunCommand("run fig13_web --trace --compact --out " + out_dir);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  CommandResult trace_diff = RunCommand(
      "diff --traces " + TraceGolden("fig13_web") + " " + out_dir +
      "/fig13_web.trace.json --rtol 1e-9 --max-shift 0.05");
  EXPECT_EQ(trace_diff.exit_code, 0) << trace_diff.output;
  CommandResult scalar_diff = RunCommand(
      "diff " + Golden("fig13_web") + " " + out_dir + "/fig13_web.json");
  EXPECT_EQ(scalar_diff.exit_code, 0) << scalar_diff.output;
}

TEST(OdbenchDiffTest, Fig19SyncRungMatchesTraceGolden) {
  // The fig19 trace golden pins only the background_sync rung: with a
  // budget generous enough that the director never adapts, the profile is
  // a pure function of the scenario's behavior trace — unlike the 20/26-
  // minute rungs, whose profiles reshape with every controller tuning.
  const std::string out_dir = testing::TempDir() + "/odbench_trace_fig19";
  CommandResult run =
      RunCommand("run fig19_goal_timeline --trace --compact --out " + out_dir);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  CommandResult trace_diff = RunCommand(
      "diff --traces " + TraceGolden("fig19_goal_timeline") + " " + out_dir +
      "/fig19_goal_timeline.trace.json --rtol 1e-9 --max-shift 0.05");
  EXPECT_EQ(trace_diff.exit_code, 0) << trace_diff.output;

  std::ifstream in(out_dir + "/fig19_goal_timeline.trace.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string document = buffer.str();
  EXPECT_NE(document.find("\"goal_sync\""), std::string::npos);
  // The schedule-sensitive goal rungs must stay out of the hard golden.
  EXPECT_EQ(document.find("\"goal_1200\""), std::string::npos);
  EXPECT_EQ(document.find("\"goal_1560\""), std::string::npos);
}

TEST(OdbenchDiffTest, TraceDiffUsageAndUnreadableExits) {
  EXPECT_EQ(RunCommand("diff --traces only_one.trace.json").exit_code, 64);
  CommandResult missing = RunCommand("diff --traces " +
                              TraceGolden("fig13_web") +
                              " /nonexistent/missing.trace.json");
  EXPECT_EQ(missing.exit_code, 66);
  EXPECT_NE(missing.output.find("cannot read trace artifact"),
            std::string::npos);
  // A scalar artifact is not a power-trace document.
  CommandResult wrong_kind = RunCommand("diff --traces " +
                                 Golden("fig13_web") + " " +
                                 Golden("fig13_web"));
  EXPECT_EQ(wrong_kind.exit_code, 66) << wrong_kind.output;
}

TEST(OdbenchDiffTest, UsageErrorsExitSixtyFour) {
  EXPECT_EQ(RunCommand("diff only_one.json").exit_code, 64);
  EXPECT_EQ(RunCommand("diff a.json b.json c.json").exit_code, 64);
  EXPECT_EQ(RunCommand("diff --bogus 1 a.json b.json").exit_code, 64);
}

TEST(OdbenchDiffTest, UnreadableArtifactExitsSixtySix) {
  CommandResult result = RunCommand("diff " + Golden("fig04_power_table") +
                             " /nonexistent/missing.json");
  EXPECT_EQ(result.exit_code, 66);
  EXPECT_NE(result.output.find("cannot read artifact"), std::string::npos);
}

}  // namespace
}  // namespace odharness
