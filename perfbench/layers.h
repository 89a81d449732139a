// Host time per layer, measured from outside: the benchmark times its own
// calls into each layer's public functions, sized to one workload.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/bench.h"
#include "src/energy/goal_director.h"
#include "src/fault/fault_plan.h"
#include "src/power/learned_model.h"
#include "src/serve/shared_service.h"
#include "src/sim/time.h"

namespace perfbench {

// Per-second energy allowance of a goal run's budget (goal = scenario
// duration): under the full-fidelity draw of the busy scenarios, so those
// adapt while the idle-heavy ones coast.
inline constexpr double kGoalBudgetWatts = 9.5;

struct LayerScale {
  uint64_t seed = 1;
  // Simulated machines, monitors and fetching clients the workload runs
  // side by side in one event loop.
  int devices = 1;
  // Live events pending in the event queue, averaged over the workload's
  // schedule calls, and the share of scheduled events cancelled before
  // they fire.  The simulator exposes neither, so each workload supplies
  // figures measured once with a counting patch (see README, "Queue load").
  int pending_events = 64;
  double cancel_share = 0.001;
  odsim::SimDuration monitor_period = odsim::SimDuration::Millis(100);
  // The shared service and key stream the fetch path sees.
  odserve::ServiceConfig service;
  int shared_objects = 256;
  // The power-sample stream fed to the goal director: recorded at
  // `monitor_period` from a scenario run under `stream_plan` (empty = clean
  // telemetry).
  odfault::FaultPlan stream_plan;
  // The director fed that stream, configured as the workload's runs
  // configure theirs, with the learned estimator attached when
  // `learned_model`.
  odenergy::GoalDirectorConfig director;
  bool learned_model = false;
  odpower::LearnedModelConfig learned_config;
  // Seeds of the testbeds whose construction and settle are timed; empty
  // when the workload builds no testbed.
  std::vector<uint64_t> testbed_seeds;
};

// Fills sim.queue_ns_per_op, power.ns_per_change,
// power.learned_ns_per_update, powerscope.ns_per_sample, odyssey.fetch_ns,
// serve.ns_per_submit, energy.ns_per_sample and apps.testbed_setup_ms.
void TimeLayerCalls(const LayerScale& scale, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
