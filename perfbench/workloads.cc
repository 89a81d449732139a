// The three benchmark workloads.  Each runs the simulator through its
// public entry points (odapps::RunFleetScenario, odapps::RunGoalScenario),
// checks the run-level invariants through the public probes, and hashes
// every simulated output.  Traced passes also attach counting observers
// (CpuObserver, MachineObserver) and read the layers' public accessors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "src/apps/fleet.h"
#include "src/apps/goal_scenario.h"
#include "src/apps/testbed.h"
#include "src/fault/chaos.h"
#include "src/odyssey/server.h"
#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/power/accounting.h"
#include "src/power/machine.h"
#include "src/power/supply.h"
#include "src/power/thinkpad560x.h"
#include "src/scenario/driver.h"
#include "src/scenario/library.h"

namespace perfbench {

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"fleet_lru",
       "The fleet_sweep critical path: thousands of devices share one "
       "distillation service whose LRU cache holds about half the key "
       "working set.",
       "open loop: 2000 devices, one keyed fetch every 5 s (+-10 %) "
       "whatever the replies, at most 4 outstanding per device"},
      {"goal_days",
       "The shape of every goal-stack experiment: all six library scenarios "
       "through the goal director with the learned model and drift "
       "sentinel on, derived gap windows as the only faults.",
       "closed loop: 384 runs (6 scenarios x 64 seeds), each app channel "
       "issues its next request at the scenario rate only when idle"},
      {"goal_faulted",
       "The same runs along their failure paths: every run also carries a "
       "seeded chaos plan drawn from every fault kind.",
       "closed loop: 384 runs (6 scenarios x 64 seeds) as goal_days, each "
       "with 2-6 chaos windows merged into its gap windows"},
  };
  return kWorkloads;
}

const std::vector<LayerSource>& LayerSources() {
  static const std::vector<LayerSource> kSources = {
      {"sim.events", "count", "accessor Simulator::events_processed"},
      {"sim.context_switches", "count", "observer Simulator::AddCpuObserver"},
      {"sim.queue_ns_per_op", "ns", "timed call Schedule/Cancel/RunUntil"},
      {"power.state_changes", "count", "observer Machine::AddObserver"},
      {"power.ns_per_change", "ns",
       "timed call Component::SetState + Machine::TotalPower + "
       "EnergyAccounting::TotalJoules"},
      {"power.learned_ns_per_update", "ns",
       "timed call LearnedModel::Observe + PredictWatts"},
      {"powerscope.samples", "count",
       "derived: simulated monitor time / monitor period"},
      {"powerscope.ns_per_sample", "ns", "timed call OnlineMonitor over N machines"},
      {"net.retransmissions", "count", "accessor RpcClient::retransmissions"},
      {"net.deadline_exceeded", "count", "accessor RpcClient::deadlines_exceeded"},
      {"net.retries_exhausted", "count", "accessor RpcClient::retries_exhausted"},
      {"net.link_busy_s", "s", "accessor Link::total_busy_seconds (simulated)"},
      {"odyssey.fetches", "count",
       "accessor FleetResult::total_fetches / warden + server counters"},
      {"odyssey.fetch_ns", "ns", "timed call Warden::FetchKeyed round trip"},
      {"odyssey.adaptations", "count", "accessor Viceroy::TotalAdaptations"},
      {"odyssey.outage_clamps", "count", "accessor Viceroy::outage_clamps"},
      {"odyssey.overload_clamps", "count", "accessor Viceroy::overload_clamps"},
      {"serve.completed", "count", "accessor SharedService::completed_requests"},
      {"serve.rejected", "count", "accessor SharedService::rejected_requests"},
      {"serve.batch_joins", "count", "accessor SharedService::batch_joins"},
      {"serve.evictions", "count", "accessor SharedService::cache_evictions"},
      {"serve.cache_hit_ratio", "fraction", "accessor cache_hits / completed"},
      {"serve.busy_s", "s", "accessor SharedService::total_busy_seconds (simulated)"},
      {"serve.wait_p50_s", "s", "accessor SharedService::WaitPercentileSeconds(50)"},
      {"serve.wait_p95_s", "s", "accessor SharedService::WaitPercentileSeconds(95)"},
      {"serve.ns_per_submit", "ns", "timed call SharedService::SubmitKeyed"},
      {"energy.safe_mode_entries", "count", "accessor GoalScenarioResult"},
      {"energy.invalid_samples", "count", "accessor GoalScenarioResult"},
      {"energy.telemetry_gaps", "count", "accessor GoalScenarioResult"},
      {"energy.drift_entries", "count", "accessor GoalScenarioResult"},
      {"energy.residual_err_pct", "%",
       "accessor GoalScenarioResult: mean |estimated - true| residual / budget"},
      {"energy.ns_per_sample", "ns",
       "timed call GoalDirector fed a recorded stream via a PowerMonitor"},
      {"apps.requests", "count", "accessor ScenarioDriver::Counters (sum)"},
      {"apps.composite_deferrals", "count",
       "accessor ScenarioDriver::Counters::composite_deferrals"},
      {"apps.testbed_setup_ms", "ms", "timed call TestBed construction + Settle"},
      {"fault.windows", "count", "accessor FaultPlan windows armed"},
  };
  return kSources;
}

namespace {

// Counts machine power changes and CPU context switches it is attached to.
class CountingObserver final : public odpower::MachineObserver,
                               public odsim::CpuObserver {
 public:
  void OnMachinePowerChanged(odsim::SimTime) override { ++power_changes; }
  void OnCpuContextSwitch(odsim::SimTime, odsim::ProcessId, odsim::ProcedureId,
                          bool) override {
    ++context_switches;
  }
  uint64_t power_changes = 0;
  uint64_t context_switches = 0;
};

// The 1 Hz invariant checks of one simulated device: energy conservation
// (the accounted total equals its parts) and a monotone true residual.
struct InvariantProbe {
  double last_residual = 0.0;
  int ticks = 0;
  std::string violation;

  void Tick(odsim::SimTime now, odpower::Laptop& laptop,
            odpower::EnergySupply& supply) {
    ++ticks;
    odpower::EnergyAccounting& acct = laptop.accounting();
    odpower::Machine& machine = laptop.machine();
    double total = acct.TotalJoules(now);
    double parts = acct.SynergyJoules(now);
    for (int c = 0; c < machine.component_count(); ++c) {
      parts += acct.ComponentJoules(c, now);
    }
    if (std::abs(total - parts) > 1e-6 * std::max(1.0, total)) {
      Fail("energy not conserved", now);
    }
    double residual = supply.ResidualJoules(now);
    if (residual > last_residual + 1e-9 || residual < 0.0) {
      Fail("true residual rose or went negative", now);
    }
    last_residual = residual;
  }

  void Fail(const char* what, odsim::SimTime now) {
    if (violation.empty()) {
      char buffer[128];
      std::snprintf(buffer, sizeof buffer, "%s at t=%.3f s", what, now.seconds());
      violation = buffer;
    }
  }
};

// ---------------------------------------------------------------------------
// fleet_lru

constexpr int kFleetClients = 2000;
// Keys are object x fidelity level; a fleet at full fidelity touches all
// 256 objects, so 128 entries hold about half the key working set.
constexpr size_t kFleetCacheEntries = 128;
constexpr int kFleetObjects = 256;
// Admission control: requests arriving behind this many queued ones are
// refused, which loads the reject -> overload-clamp path on the devices and
// gives failed_frac a steady, non-zero base (about 38 % refused).  With no
// limit nothing fails; at 64 the refused share's quartile spread across
// seeds is 16 % of its median; at 128 the share is under 0.01 %.
constexpr int kFleetMaxQueue = 32;

// The event queue's load in a fleet_lru pass, which sim.queue_ns_per_op
// replays.  The simulator exposes neither figure, so both were measured
// once by counting, in the event queue, Push calls, effective cancels and
// the live entries at each Push, over one pass at seed 1 (seed 2 agrees to
// 0.01 %): 6046 live entries on average, 2000 of 4,359,395 scheduled events
// cancelled (one per device).
struct QueueLoad {
  int pending_events;
  double cancel_share;
};
constexpr QueueLoad kFleetQueueLoad = {6046, 2000.0 / 4359395.0};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(uint64_t seed) : seed_(seed) {}

  odapps::FleetOptions Options() const {
    odapps::FleetOptions options;
    options.clients = kFleetClients;
    options.seed = seed_;
    options.shared_objects = kFleetObjects;
    options.service.cache_capacity = kFleetCacheEntries;
    options.service.max_queue = kFleetMaxQueue;
    options.initial_joules = options.watts_budget * options.goal.seconds();
    return options;
  }

  UnitSeconds Setup() override {
    odapps::FleetOptions options = Options();
    options.goal = odsim::SimDuration::Zero();
    options.run_slack = odsim::SimDuration::Zero();
    const double start = WallSeconds();
    odapps::RunFleetScenario(options);
    return {WallSeconds() - start};
  }

  PassOutcome Run(bool traced) override {
    odapps::FleetOptions options = Options();
    std::vector<InvariantProbe> probes(kFleetClients);
    for (InvariantProbe& probe : probes) {
      probe.last_residual = options.initial_joules;
    }
    CountingObserver counter;
    // The pass's units are simulated seconds: host time between device 0's
    // probe ticks, plus the head (construction, settle, first second) and
    // the tail (last second, teardown).
    PassOutcome out;
    double last_tick = WallSeconds();
    options.device_probe = [&](int device, odsim::SimTime now,
                               odpower::Laptop& laptop,
                               odpower::EnergySupply& supply) {
      if (device == 0) {
        const double tick = WallSeconds();
        out.unit_seconds.push_back(tick - last_tick);
        last_tick = tick;
      }
      InvariantProbe& probe = probes[static_cast<size_t>(device)];
      // The fleet builds its devices inside RunFleetScenario, so the
      // observers attach at each device's first probe tick (1 s in).
      if (traced && probe.ticks == 0) {
        laptop.machine().AddObserver(&counter);
        if (device == 0) {
          laptop.machine().sim()->AddCpuObserver(&counter);
        }
      }
      probe.Tick(now, laptop, supply);
    };
    odapps::FleetResult r = odapps::RunFleetScenario(options);
    out.unit_seconds.push_back(WallSeconds() - last_tick);

    out.runs = 1;
    OutputHash hash;
    hash.Add(r.events_processed);
    hash.Add(r.elapsed_seconds);
    int failed = 0;
    int rejected = 0;
    int overload_clamps = 0;
    double fidelity = 0.0;
    const int highest = static_cast<int>(odapps::FleetLevels().size()) - 1;
    for (const odapps::FleetDeviceResult& d : r.devices) {
      hash.Add(d.goal_met);
      hash.Add(d.residual_joules);
      hash.Add(d.consumed_joules);
      hash.Add(d.final_fidelity);
      hash.Add(d.fetches);
      hash.Add(d.rejected_fetches);
      hash.Add(d.cache_hits);
      hash.Add(d.failed_fetches);
      hash.Add(d.overload_clamps);
      failed += d.failed_fetches;
      rejected += d.rejected_fetches;
      overload_clamps += d.overload_clamps;
      fidelity += static_cast<double>(d.final_fidelity) / highest;
    }
    for (int v : {r.server_completed, r.server_rejected, r.server_cache_hits,
                  r.server_batch_joins, r.server_cache_evictions}) {
      hash.Add(v);
    }
    for (double v : {r.server_busy_seconds, r.queue_wait_p50_seconds,
                     r.queue_wait_p95_seconds}) {
      hash.Add(v);
    }
    for (const InvariantProbe& probe : probes) {
      hash.Add(probe.ticks);
      if (!probe.violation.empty() && out.first_violation.empty()) {
        out.first_violation = "fleet device: " + probe.violation;
      }
    }
    // Termination: the fleet has no overrun valve (its directors never stop
    // the simulator), so the run must reach its horizon, no earlier, with
    // every device probed once per simulated second up to it.
    const double horizon = (options.goal + options.run_slack).seconds();
    const int horizon_ticks = static_cast<int>(std::floor(horizon + 1e-9));
    bool probed_to_horizon = std::abs(r.elapsed_seconds - horizon) < 1e-9;
    for (const InvariantProbe& probe : probes) {
      probed_to_horizon = probed_to_horizon && probe.ticks == horizon_ticks;
    }
    if (!probed_to_horizon && out.first_violation.empty()) {
      out.first_violation = "fleet run stopped short of its horizon";
    }
    out.violations = out.first_violation.empty() ? 0 : 1;
    out.hash = hash.value();
    out.goal_attainment = r.goal_attainment;
    out.mean_fidelity = fidelity / r.clients;
    out.failed_frac =
        r.total_fetches > 0
            ? static_cast<double>(failed + rejected) / r.total_fetches
            : 0.0;

    if (traced) {
      Metrics& m = out.layers;
      m.Set("sim.events", static_cast<double>(r.events_processed), "count");
      m.Set("sim.context_switches", static_cast<double>(counter.context_switches),
            "count");
      m.Set("power.state_changes", static_cast<double>(counter.power_changes),
            "count");
      m.Set("powerscope.samples",
            r.clients * std::floor(r.elapsed_seconds /
                                   options.monitor_period.seconds()),
            "count");
      m.Set("odyssey.fetches", r.total_fetches, "count");
      m.Set("odyssey.overload_clamps", overload_clamps, "count");
      m.Set("serve.completed", r.server_completed, "count");
      m.Set("serve.rejected", r.server_rejected, "count");
      m.Set("serve.batch_joins", r.server_batch_joins, "count");
      m.Set("serve.evictions", r.server_cache_evictions, "count");
      m.Set("serve.cache_hit_ratio", r.cache_hit_rate, "fraction");
      m.Set("serve.busy_s", r.server_busy_seconds, "s");
      m.Set("serve.wait_p50_s", r.queue_wait_p50_seconds, "s");
      m.Set("serve.wait_p95_s", r.queue_wait_p95_seconds, "s");
      m.Set("apps.requests", r.total_fetches, "count");
    }
    return out;
  }

  void TimeLayers(Metrics* out) override {
    odapps::FleetOptions options = Options();
    LayerScale scale;
    scale.seed = seed_;
    scale.devices = kFleetClients;
    scale.pending_events = kFleetQueueLoad.pending_events;
    scale.cancel_share = kFleetQueueLoad.cancel_share;
    scale.monitor_period = options.monitor_period;
    scale.director = options.director;
    scale.service = options.service;
    scale.shared_objects = kFleetObjects;
    TimeLayerCalls(scale, out);
  }

 private:
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// goal_days / goal_faulted

constexpr int kSeedsPerScenario = 64;
constexpr uint64_t kFirstRunSeed = 1000;

// The event queue's load in a goal pass, measured as kFleetQueueLoad is,
// over one pass at seed 1 (seed 2 within 2 %).  goal_days: 10.1 live
// entries, 6976 of 11,719,423 scheduled events cancelled.  goal_faulted:
// 14.8 live entries, 14,083 of 11,585,828 cancelled.
constexpr QueueLoad kGoalDaysQueueLoad = {10, 6976.0 / 11719423.0};
constexpr QueueLoad kGoalFaultedQueueLoad = {15, 14083.0 / 11585828.0};

// What the workload wrapper reads from a run's TestBed at teardown.
struct RunTally {
  CountingObserver counter;
  uint64_t events = 0;
  int fetch_failed = 0;
  int fetch_rejected = 0;
  int server_completed = 0;
  int server_rejected = 0;
  int server_cache_hits = 0;
  int batch_joins = 0;
  int evictions = 0;
  double server_busy_s = 0.0;
  std::vector<double> wait_p50;
  std::vector<double> wait_p95;
  int retransmissions = 0;
  int deadline_exceeded = 0;
  int retries_exhausted = 0;
  double link_busy_s = 0.0;
  int overload_clamps = 0;
  double mean_fidelity = 0.0;

  void Read(odapps::TestBed& bed) {
    events = bed.sim().events_processed();
    odyssey::Viceroy& viceroy = bed.viceroy();
    for (const auto& warden : viceroy.wardens()) {
      fetch_failed += warden->failed_fetches();
      fetch_rejected += warden->rejected_fetches();
      odyssey::RemoteServer* server = warden->server();
      odserve::SharedService* service = server->service();
      server_completed += server->completed_requests();
      server_rejected += service->rejected_requests();
      server_cache_hits += service->cache_hits();
      batch_joins += service->batch_joins();
      evictions += service->cache_evictions();
      server_busy_s += service->total_busy_seconds();
      if (service->waits_recorded() > 0) {
        wait_p50.push_back(service->WaitPercentileSeconds(50.0));
        wait_p95.push_back(service->WaitPercentileSeconds(95.0));
      }
    }
    odnet::RpcClient& rpc = viceroy.rpc();
    retransmissions = rpc.retransmissions();
    deadline_exceeded = rpc.deadlines_exceeded();
    retries_exhausted = rpc.retries_exhausted();
    link_busy_s = bed.link().total_busy_seconds();
    overload_clamps = viceroy.overload_clamps();
    double fidelity = 0.0;
    for (odyssey::AdaptiveApplication* app : viceroy.applications()) {
      fidelity += static_cast<double>(app->current_fidelity()) /
                  app->fidelity_spec().highest();
    }
    mean_fidelity = fidelity / static_cast<double>(viceroy.applications().size());
  }
};

odfault::FaultPlan MergePlans(odfault::FaultPlan a, const odfault::FaultPlan& b) {
  a.events.insert(a.events.end(), b.events.begin(), b.events.end());
  std::stable_sort(a.events.begin(), a.events.end(),
                   [](const odfault::FaultEvent& x, const odfault::FaultEvent& y) {
                     return x.at < y.at;
                   });
  return a;
}

class GoalWorkload final : public Workload {
 public:
  GoalWorkload(uint64_t seed, bool faulted) : seed_(seed), faulted_(faulted) {
    const auto& library = odscenario::ScenarioLibrary();
    for (int k = 0; k < kSeedsPerScenario; ++k) {
      uint64_t run_seed =
          kFirstRunSeed + seed * kSeedsPerScenario + static_cast<uint64_t>(k);
      for (const odscenario::Scenario& scenario : library) {
        RunSpec spec{&scenario, run_seed, scenario.DerivedFaultPlan()};
        if (faulted_) {
          // The chaos plans are a fixed suite, seeded by run index: the
          // benchmark seed varies behaviour and sensor noise, not which
          // faults strike.  With seed-drawn plans the quartile spread of
          // failed_frac across seeds is 19 % of its median, more than its
          // bound; with this suite it is 4 %.
          odfault::ChaosPlanConfig chaos;
          chaos.horizon_seconds = scenario.Duration().seconds();
          spec.plan = MergePlans(
              spec.plan, odfault::GenerateChaosPlan(
                             kFirstRunSeed + static_cast<uint64_t>(k), chaos));
        }
        runs_.push_back(std::move(spec));
      }
    }
  }

  UnitSeconds Setup() override {
    UnitSeconds units;
    for (const RunSpec& spec : runs_) {
      odapps::GoalScenarioOptions options = Options(spec, nullptr);
      options.goal = odsim::SimDuration::Zero();
      options.max_overrun = odsim::SimDuration::Zero();
      const double start = WallSeconds();
      odapps::RunGoalScenario(options);
      units.push_back(WallSeconds() - start);
    }
    return units;
  }

  PassOutcome Run(bool traced) override {
    PassOutcome out;
    OutputHash hash;
    int met = 0;
    double fidelity = 0.0;
    long fetch_bad = 0;
    long fetch_attempted = 0;
    // Traced-pass aggregates.
    double events = 0, switches = 0, changes = 0, samples = 0, retrans = 0,
           deadlines = 0, exhausted = 0, link_busy = 0, adaptations = 0,
           outage = 0, overload = 0, completed = 0, rejected = 0, joins = 0,
           evictions = 0, hits = 0, busy = 0, safe_mode = 0, invalid = 0,
           gaps = 0, drift = 0, err_pct = 0, requests = 0, deferrals = 0,
           windows = 0;
    std::vector<double> p50;
    std::vector<double> p95;

    for (const RunSpec& spec : runs_) {
      const double run_start = WallSeconds();
      auto tally = std::make_shared<RunTally>();
      auto stats = std::make_shared<odscenario::ScenarioWorkloadStats>();
      odapps::GoalScenarioOptions options = Options(spec, stats);
      auto workload = options.workload_factory;
      options.workload_factory = [workload, tally, traced](odapps::TestBed& bed) {
        if (traced) {
          bed.sim().AddCpuObserver(&tally->counter);
          bed.laptop().machine().AddObserver(&tally->counter);
        }
        std::function<void()> stop = workload(bed);
        return std::function<void()>([stop, tally, &bed] {
          stop();
          tally->Read(bed);
        });
      };
      InvariantProbe probe;
      probe.last_residual = options.initial_joules;
      options.tick_probe = [&probe](odapps::TestBed& bed,
                                    odpower::EnergySupply& supply) {
        probe.Tick(bed.sim().Now(), bed.laptop(), supply);
      };

      odapps::GoalScenarioResult r = odapps::RunGoalScenario(options);
      out.unit_seconds.push_back(WallSeconds() - run_start);

      // Termination: the run decided its outcome before the overrun valve.
      const double valve =
          options.goal.seconds() + options.max_overrun.seconds() - 1.0;
      if (r.outcome == odenergy::GoalOutcome::kRunning ||
          r.elapsed_seconds >= valve) {
        probe.Fail("run did not terminate before the overrun valve",
                   odsim::SimTime::Zero());
      }
      if (probe.ticks == 0) {
        probe.Fail("invariant probe never ran", odsim::SimTime::Zero());
      }
      if (!probe.violation.empty()) {
        ++out.violations;
        if (out.first_violation.empty()) {
          out.first_violation = spec.scenario->name + " seed " +
                                std::to_string(spec.seed) + ": " + probe.violation;
        }
      }

      const odscenario::ScenarioDriver::Counters& c = stats->counters;
      for (int v : {r.total_adaptations, static_cast<int>(r.outcome),
                    static_cast<int>(r.final_health), r.safe_mode_entries,
                    r.invalid_samples, r.telemetry_gaps, r.outage_clamps,
                    r.drift_entries, probe.ticks, c.video_segments, c.pages,
                    c.maps, c.utterances, c.composite_iterations,
                    c.composite_deferrals, c.sync_fetches, c.burst_starts,
                    tally->fetch_failed, tally->fetch_rejected,
                    tally->server_completed}) {
        hash.Add(v);
      }
      for (double v : {r.residual_joules, r.elapsed_seconds,
                       r.estimated_residual_joules, r.safe_mode_seconds,
                       r.learned_joules, r.drift_seconds,
                       r.drift_correction_joules, r.accounted_joules}) {
        hash.Add(v);
      }
      for (const auto& [app, level] : r.final_fidelity) {
        hash.Add(level);
      }

      ++out.runs;
      met += r.goal_met ? 1 : 0;
      fidelity += tally->mean_fidelity;
      fetch_bad += tally->fetch_failed + tally->fetch_rejected;
      fetch_attempted +=
          tally->server_completed + tally->fetch_failed + tally->fetch_rejected;

      if (traced) {
        const double period = 0.1;  // GoalScenario's OnlineMonitor default.
        events += static_cast<double>(tally->events);
        switches += static_cast<double>(tally->counter.context_switches);
        changes += static_cast<double>(tally->counter.power_changes);
        samples += std::floor(r.elapsed_seconds / period);
        retrans += tally->retransmissions;
        deadlines += tally->deadline_exceeded;
        exhausted += tally->retries_exhausted;
        link_busy += tally->link_busy_s;
        adaptations += r.total_adaptations;
        outage += r.outage_clamps;
        overload += tally->overload_clamps;
        completed += tally->server_completed;
        rejected += tally->server_rejected;
        joins += tally->batch_joins;
        evictions += tally->evictions;
        hits += tally->server_cache_hits;
        busy += tally->server_busy_s;
        p50.insert(p50.end(), tally->wait_p50.begin(), tally->wait_p50.end());
        p95.insert(p95.end(), tally->wait_p95.begin(), tally->wait_p95.end());
        safe_mode += r.safe_mode_entries;
        invalid += r.invalid_samples;
        gaps += r.telemetry_gaps;
        drift += r.drift_entries;
        err_pct += 100.0 *
                   std::abs(r.estimated_residual_joules - r.residual_joules) /
                   options.initial_joules;
        requests += c.video_segments + c.pages + c.maps + c.utterances +
                    c.composite_iterations + c.sync_fetches + c.burst_starts;
        deferrals += c.composite_deferrals;
        windows += static_cast<double>(spec.plan.events.size());
      }
    }

    out.hash = hash.value();
    out.goal_attainment = static_cast<double>(met) / out.runs;
    out.mean_fidelity = fidelity / out.runs;
    out.failed_frac = fetch_attempted > 0
                          ? static_cast<double>(fetch_bad) / fetch_attempted
                          : 0.0;
    if (traced) {
      Metrics& m = out.layers;
      m.Set("sim.events", events, "count");
      m.Set("sim.context_switches", switches, "count");
      m.Set("power.state_changes", changes, "count");
      m.Set("powerscope.samples", samples, "count");
      m.Set("net.retransmissions", retrans, "count");
      m.Set("net.deadline_exceeded", deadlines, "count");
      m.Set("net.retries_exhausted", exhausted, "count");
      m.Set("net.link_busy_s", link_busy, "s");
      m.Set("odyssey.fetches", static_cast<double>(fetch_attempted), "count");
      m.Set("odyssey.adaptations", adaptations, "count");
      m.Set("odyssey.outage_clamps", outage, "count");
      m.Set("odyssey.overload_clamps", overload, "count");
      m.Set("serve.completed", completed, "count");
      m.Set("serve.rejected", rejected, "count");
      m.Set("serve.batch_joins", joins, "count");
      m.Set("serve.evictions", evictions, "count");
      m.Set("serve.cache_hit_ratio", completed > 0 ? hits / completed : 0.0,
            "fraction");
      m.Set("serve.busy_s", busy, "s");
      m.Set("serve.wait_p50_s", Median(p50), "s");
      m.Set("serve.wait_p95_s", Median(p95), "s");
      m.Set("energy.safe_mode_entries", safe_mode, "count");
      m.Set("energy.invalid_samples", invalid, "count");
      m.Set("energy.telemetry_gaps", gaps, "count");
      m.Set("energy.drift_entries", drift, "count");
      m.Set("energy.residual_err_pct", err_pct / out.runs, "%");
      m.Set("apps.requests", requests, "count");
      m.Set("apps.composite_deferrals", deferrals, "count");
      m.Set("fault.windows", windows, "count");
    }
    return out;
  }

  void TimeLayers(Metrics* out) override {
    LayerScale scale;
    scale.seed = seed_;
    scale.devices = 1;
    const QueueLoad& load = faulted_ ? kGoalFaultedQueueLoad : kGoalDaysQueueLoad;
    scale.pending_events = load.pending_events;
    scale.cancel_share = load.cancel_share;
    scale.monitor_period = odsim::SimDuration::Millis(100);
    // Each testbed warden talks to a dedicated default-config server.
    scale.service = odserve::ServiceConfig{};
    scale.shared_objects = 64;
    // The stream replayed into the director is recorded under the first
    // office_mix run's plan: gap windows only, or gaps plus chaos.
    for (const RunSpec& spec : runs_) {
      if (spec.scenario->name == "office_mix") {
        const odapps::GoalScenarioOptions options = Options(spec, nullptr);
        scale.stream_plan = spec.plan;
        scale.director = options.director;
        scale.learned_model = options.learned_model;
        scale.learned_config = options.learned_config;
        break;
      }
    }
    for (size_t i = 0; i < runs_.size() && i < 24; ++i) {
      scale.testbed_seeds.push_back(runs_[i].seed);
    }
    TimeLayerCalls(scale, out);
  }

 private:
  struct RunSpec {
    const odscenario::Scenario* scenario;
    uint64_t seed;
    odfault::FaultPlan plan;
  };

  odapps::GoalScenarioOptions Options(
      const RunSpec& spec,
      std::shared_ptr<odscenario::ScenarioWorkloadStats> stats) const {
    odapps::GoalScenarioOptions options;
    options.seed = spec.seed;
    options.goal = spec.scenario->Duration();
    options.initial_joules = kGoalBudgetWatts * options.goal.seconds();
    options.learned_model = true;
    options.director.drift_sentinel.enabled = true;
    odscenario::ApplyScenarioWorkload(*spec.scenario, &options, std::move(stats),
                                      /*derive_environment=*/false);
    options.fault_plan = spec.plan;
    return options;
  }

  uint64_t seed_;
  bool faulted_;
  std::vector<RunSpec> runs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "fleet_lru") {
    return std::make_unique<FleetWorkload>(seed);
  }
  if (name == "goal_days") {
    return std::make_unique<GoalWorkload>(seed, /*faulted=*/false);
  }
  if (name == "goal_faulted") {
    return std::make_unique<GoalWorkload>(seed, /*faulted=*/true);
  }
  return nullptr;
}

}  // namespace perfbench
