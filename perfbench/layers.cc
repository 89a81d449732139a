// Per-layer host time.  Each function builds the layer's objects through
// their public constructors (untimed), then times a loop of the layer's
// public calls sized to the workload, and reports nanoseconds per call.
// Each measurement repeats kRepeats times and keeps the median.

#include "perfbench/layers.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/experiments.h"
#include "src/apps/fleet.h"
#include "src/apps/testbed.h"
#include "src/energy/goal_director.h"
#include "src/energy/learned_estimator.h"
#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/power/learned_model.h"
#include "src/power/supply.h"
#include "src/power/thinkpad560x.h"
#include "src/power/utilization.h"
#include "src/powerscope/online_monitor.h"
#include "src/powerscope/power_monitor.h"
#include "src/scenario/driver.h"
#include "src/scenario/library.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;
// Host time each repeat of a loop runs for.
constexpr double kLoopSeconds = 0.15;

// Runs `setup` untimed, then calls `step` until kLoopSeconds of host time
// have passed; `step` returns the calls it made.  Returns ns per call,
// median over kRepeats fresh set-ups.
template <typename Setup>
double NsPerCall(Setup setup) {
  std::vector<double> per_call;
  for (int r = 0; r < kRepeats; ++r) {
    auto step = setup(r);
    double calls = 0.0;
    const double start = WallSeconds();
    double now = start;
    while (now - start < kLoopSeconds) {
      calls += step();
      now = WallSeconds();
    }
    per_call.push_back(1e9 * (now - start) / calls);
  }
  return Median(per_call);
}

// sim: self-rearming timers keep `pending_events` live in the queue; re-arms
// also schedule and cancel decoys, as timer resets do, so that decoys make
// up `cancel_share` of all scheduled events.
struct QueueRig {
  odsim::Simulator sim;
  odutil::Rng rng;
  // Decoys per re-arm: share / (1 - share), paid out as whole decoys.
  double decoys_per_arm;
  double decoy_credit = 0.0;
  double ops = 0.0;

  QueueRig(uint64_t seed, double share)
      : rng(seed), decoys_per_arm(share / (1.0 - share)) {}

  odsim::SimDuration Delay() {
    return odsim::SimDuration::Micros(rng.UniformInt(500000, 1500000));
  }
  void Arm() {
    sim.Schedule(Delay(), [this] { Fire(); });
    ops += 1.0;
    for (decoy_credit += decoys_per_arm; decoy_credit >= 1.0; decoy_credit -= 1.0) {
      odsim::EventHandle decoy = sim.Schedule(Delay(), [this] { Fire(); });
      decoy.Cancel();
      ops += 2.0;
    }
  }
  void Fire() {
    ops += 1.0;
    Arm();
  }
};

double QueueNsPerOp(const LayerScale& scale) {
  std::vector<std::unique_ptr<QueueRig>> rigs;
  return NsPerCall([&](int r) {
    rigs.push_back(std::make_unique<QueueRig>(scale.seed + r, scale.cancel_share));
    QueueRig* rig = rigs.back().get();
    for (int i = 0; i < scale.pending_events; ++i) {
      rig->Arm();
    }
    return [rig] {
      double before = rig->ops;
      rig->sim.RunUntil(rig->sim.Now() + odsim::SimDuration::Millis(100));
      return rig->ops - before;
    };
  });
}

// power: one component state change per device per round, each followed
// by the machine's total draw and the accounting's running total.
double PowerNsPerChange(const LayerScale& scale) {
  struct Rig {
    odsim::Simulator sim;
    std::vector<std::unique_ptr<odpower::Laptop>> laptops;
    int round = 0;
  };
  std::vector<std::unique_ptr<Rig>> rigs;
  return NsPerCall([&](int) {
    rigs.push_back(std::make_unique<Rig>());
    Rig* rig = rigs.back().get();
    for (int i = 0; i < scale.devices; ++i) {
      rig->laptops.push_back(odpower::MakeThinkPad560X(&rig->sim));
    }
    return [rig] {
      rig->sim.RunUntil(rig->sim.Now() + odsim::SimDuration::Millis(10));
      const odsim::SimTime now = rig->sim.Now();
      const auto state = (rig->round++ % 2 == 0) ? odpower::DisplayState::kDim
                                                 : odpower::DisplayState::kBright;
      double sink = 0.0;
      for (auto& laptop : rig->laptops) {
        laptop->display().Set(state);
        sink += laptop->machine().TotalPower();
        sink += laptop->accounting().TotalJoules(now);
      }
      return sink >= 0.0 ? static_cast<double>(rig->laptops.size()) : 0.0;
    };
  });
}

// power (learned model): one RLS update plus one prediction per sample,
// over feature snapshots of a ThinkPad machine in random component states.
double LearnedNsPerUpdate(const LayerScale& scale) {
  odsim::Simulator sim;
  auto laptop = odpower::MakeThinkPad560X(&sim);
  odpower::UtilizationProbe probe(&laptop->machine(), sim.Now());
  odutil::Rng rng(scale.seed);
  std::vector<std::pair<std::vector<double>, double>> samples;
  for (int i = 0; i < 4096; ++i) {
    odpower::Machine& machine = laptop->machine();
    for (int c = 0; c < machine.component_count(); ++c) {
      odpower::Component& component = machine.component(c);
      component.SetState(rng.UniformInt(0, component.state_count() - 1));
    }
    samples.emplace_back(probe.SnapshotFeatures(),
                         machine.TotalPower() + rng.Normal(0.0, 0.05));
  }
  std::vector<std::unique_ptr<odpower::LearnedModel>> models;
  return NsPerCall([&](int) {
    models.push_back(std::make_unique<odpower::LearnedModel>(probe.dim()));
    odpower::LearnedModel* model = models.back().get();
    return [model, &samples] {
      double sink = 0.0;
      for (const auto& [phi, watts] : samples) {
        model->Observe(phi, watts);
        sink += model->PredictWatts(phi);
      }
      return sink == sink ? static_cast<double>(samples.size()) : 0.0;
    };
  });
}

// powerscope: one OnlineMonitor per machine at the workload's period.
double MonitorNsPerSample(const LayerScale& scale) {
  struct Rig {
    odsim::Simulator sim;
    std::vector<std::unique_ptr<odpower::Laptop>> laptops;
    std::vector<std::unique_ptr<odscope::OnlineMonitor>> monitors;
    double samples = 0.0;
  };
  std::vector<std::unique_ptr<Rig>> rigs;
  return NsPerCall([&](int r) {
    rigs.push_back(std::make_unique<Rig>());
    Rig* rig = rigs.back().get();
    odutil::Rng seeder(scale.seed + r);
    for (int i = 0; i < scale.devices; ++i) {
      rig->laptops.push_back(odpower::MakeThinkPad560X(&rig->sim));
      rig->monitors.push_back(std::make_unique<odscope::OnlineMonitor>(
          &rig->sim, &rig->laptops.back()->machine(),
          odscope::OnlineMonitorConfig{.period = scale.monitor_period},
          seeder.NextU64()));
      rig->monitors.back()->set_callback(
          [rig](odsim::SimTime, double) { rig->samples += 1.0; });
      rig->monitors.back()->Start();
    }
    return [rig] {
      double before = rig->samples;
      rig->sim.RunUntil(rig->sim.Now() + odsim::SimDuration::Seconds(1));
      return rig->samples - before;
    };
  });
}

// odyssey / serve: `devices` clients fetch on the fleet's staggered
// cadence (one per client per 5 s) over the workload's key stream.
struct FetchRig {
  odsim::Simulator sim;
  odserve::SharedService service;
  struct Client {
    std::unique_ptr<odpower::Laptop> laptop;
    std::unique_ptr<odnet::Link> link;
    std::unique_ptr<odyssey::Viceroy> viceroy;
    std::unique_ptr<odapps::FleetApp> app;
    odyssey::Warden* warden = nullptr;
    int session = 0;
  };
  std::vector<Client> clients;
  odutil::Rng rng;
  int objects;
  double done = 0.0;

  FetchRig(const LayerScale& scale, bool with_clients)
      : service(&sim, "distill", scale.service),
        rng(scale.seed),
        objects(scale.shared_objects) {
    odnet::LinkConfig link_config;
    link_config.interrupt_batch_bytes = std::numeric_limits<size_t>::max();
    clients.resize(static_cast<size_t>(scale.devices));
    for (size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (with_clients) {
        c.laptop = odpower::MakeThinkPad560X(&sim);
        c.laptop->power_manager().SetHardwarePmEnabled(true);
        c.link = std::make_unique<odnet::Link>(&sim, &c.laptop->power_manager(),
                                               link_config);
        c.viceroy = std::make_unique<odyssey::Viceroy>(&sim, c.link.get(),
                                                       &c.laptop->power_manager());
        c.app = std::make_unique<odapps::FleetApp>("Tile-" + std::to_string(i));
        c.viceroy->RegisterApplication(c.app.get());
        c.warden = c.viceroy->RegisterWarden(
            std::make_unique<odyssey::Warden>("distill"), &service);
      } else {
        c.session = service.OpenSession("client-" + std::to_string(i));
      }
    }
  }

  std::string NextKey() {
    return "obj" + std::to_string(rng.UniformInt(0, objects - 1)) + "@f3";
  }

  // One 5 s period: every client issues one request at its phase.
  template <typename Issue>
  double Period(Issue issue) {
    const odsim::SimDuration period = odsim::SimDuration::Seconds(5);
    const double before = done;
    const int n = static_cast<int>(clients.size());
    for (int i = 0; i < n; ++i) {
      sim.Schedule(period * (static_cast<double>(i) / n), [this, i, issue] {
        issue(clients[static_cast<size_t>(i)]);
      });
    }
    sim.RunUntil(sim.Now() + period);
    return done - before;
  }
};

double FetchNs(const LayerScale& scale) {
  const odapps::FleetLevelSpec& level = odapps::FleetLevels().back();
  std::vector<std::unique_ptr<FetchRig>> rigs;
  return NsPerCall([&](int) {
    rigs.push_back(std::make_unique<FetchRig>(scale, /*with_clients=*/true));
    FetchRig* rig = rigs.back().get();
    return [rig, &level] {
      return rig->Period([rig, &level](FetchRig::Client& c) {
        c.warden->FetchKeyed(rig->NextKey(), 256, level.reply_bytes,
                             level.distill_time,
                             [rig](const odyssey::Warden::FetchOutcome&) {
                               rig->done += 1.0;
                             });
      });
    };
  });
}

double SubmitNs(const LayerScale& scale) {
  const odapps::FleetLevelSpec& level = odapps::FleetLevels().back();
  std::vector<std::unique_ptr<FetchRig>> rigs;
  return NsPerCall([&](int) {
    rigs.push_back(std::make_unique<FetchRig>(scale, /*with_clients=*/false));
    FetchRig* rig = rigs.back().get();
    return [rig, &level] {
      return rig->Period([rig, &level](FetchRig::Client& c) {
        rig->service.SubmitKeyed(c.session, rig->NextKey(), level.distill_time,
                                 [rig](odserve::ServeOutcome) { rig->done += 1.0; });
      });
    };
  });
}

// energy: replays a recorded power-sample stream into a director.
class ReplayMonitor final : public odscope::PowerMonitor {
 public:
  ReplayMonitor(odsim::Simulator* sim,
                const std::vector<std::pair<odsim::SimDuration, double>>* stream,
                odsim::SimDuration period)
      : sim_(sim), stream_(stream), period_(period) {}

  void Start() override {
    const odsim::SimTime start = sim_->Now();
    for (size_t i = 0; i < stream_->size(); ++i) {
      events_.push_back(sim_->ScheduleAt(start + (*stream_)[i].first, [this, i] {
        last_watts_ = (*stream_)[i].second;
        ++delivered_;
        if (callback_) {
          callback_(sim_->Now(), last_watts_);
        }
      }));
    }
  }
  void Stop() override {
    for (odsim::EventHandle& event : events_) {
      event.Cancel();
    }
  }
  double last_watts() const override { return last_watts_; }
  double measured_joules() const override { return 0.0; }
  odsim::SimDuration period() const override { return period_; }
  void set_callback(SampleFn callback) override { callback_ = std::move(callback); }
  int delivered() const { return delivered_; }

 private:
  odsim::Simulator* sim_;
  const std::vector<std::pair<odsim::SimDuration, double>>* stream_;
  odsim::SimDuration period_;
  std::vector<odsim::EventHandle> events_;
  SampleFn callback_;
  double last_watts_ = 0.0;
  int delivered_ = 0;
};

double DirectorNsPerSample(const LayerScale& scale) {
  const odscenario::Scenario* scenario = odscenario::FindScenario("office_mix");
  const odsim::SimDuration period = scale.monitor_period;
  // Record the monitor's stream over one office_mix run at the workload's
  // period, with the plan's telemetry faults corrupting it as they would
  // the director's feed.
  std::vector<std::pair<odsim::SimDuration, double>> stream;
  {
    odapps::TestBed bed(odapps::TestBed::Options{.seed = scale.seed, .hw_pm = true});
    odapps::Settle(bed);
    odscope::OnlineMonitor monitor(&bed.sim(), &bed.laptop().machine(),
                                   odscope::OnlineMonitorConfig{.period = period},
                                   scale.seed ^ 0xf00dULL);
    const odsim::SimTime start = bed.sim().Now();
    monitor.set_callback([&](odsim::SimTime now, double watts) {
      stream.emplace_back(now - start, watts);
    });
    std::unique_ptr<odfault::FaultInjector> injector;
    if (!scale.stream_plan.empty()) {
      odfault::FaultTargets targets;
      targets.link = &bed.link();
      targets.rpc = &bed.viceroy().rpc();
      targets.pm = &bed.laptop().power_manager();
      targets.monitor = &monitor;
      injector = std::make_unique<odfault::FaultInjector>(&bed.sim(), targets);
      injector->Arm(scale.stream_plan);
    }
    odscenario::ScenarioDriver driver(&bed, *scenario, scale.seed);
    driver.Start();
    monitor.Start();
    bed.sim().RunUntil(start + scenario->Duration());
    monitor.Stop();
    driver.Stop();
  }

  // The director configured as the workload's runs configure theirs: the
  // same config, the stale-sample limit RunGoalScenario gives the multimeter
  // under a fault plan, and the learned estimator (RLS updates, drift
  // sentinel input) when the runs use it.
  odenergy::GoalDirectorConfig config = scale.director;
  if (!scale.stream_plan.empty() && config.stale_sample_limit == 0) {
    config.stale_sample_limit = 12;
  }
  // Replays the stream into a fresh settled testbed that runs the same
  // scenario, so the machine states the learned estimator reads follow the
  // stream, and returns the replay's host seconds.  Without a director the
  // replay is the baseline: the testbed's and the scenario's own events and
  // the sample deliveries, which the director run also pays and which are
  // subtracted from it.
  auto replay = [&](bool with_director, double* samples) {
    odapps::TestBed bed(odapps::TestBed::Options{.seed = scale.seed, .hw_pm = true});
    odapps::Settle(bed);
    const odsim::SimTime start = bed.sim().Now();
    const odsim::SimTime end = start + scenario->Duration();
    bed.laptop().accounting().Reset(start);
    odpower::EnergySupply supply(&bed.laptop().accounting(),
                                 kGoalBudgetWatts * scenario->Duration().seconds());
    ReplayMonitor monitor(&bed.sim(), &stream, period);
    odscenario::ScenarioDriver driver(&bed, *scenario, scale.seed);
    if (!with_director) {
      const double t0 = WallSeconds();
      driver.Start();
      monitor.Start();
      bed.sim().RunUntil(end);
      monitor.Stop();
      driver.Stop();
      return WallSeconds() - t0;
    }
    odenergy::GoalDirector director(&bed.viceroy(), &supply, &monitor, end, config);
    std::unique_ptr<odenergy::LearnedEstimator> learned;
    if (scale.learned_model) {
      learned = std::make_unique<odenergy::LearnedEstimator>(
          &bed.laptop().machine(), start, scale.learned_config);
      director.AttachLearnedEstimator(learned.get());
    }
    const double t0 = WallSeconds();
    driver.Start();
    director.Start(/*stop_sim_on_completion=*/false);
    bed.sim().RunUntil(end);
    director.Stop();
    driver.Stop();
    const double seconds = WallSeconds() - t0;
    *samples += monitor.delivered();
    return seconds;
  };
  std::vector<double> per_sample;
  for (int r = 0; r < kRepeats; ++r) {
    double samples = 0.0;
    double director_s = 0.0;
    double baseline_s = 0.0;
    while (director_s < kLoopSeconds) {
      baseline_s += replay(/*with_director=*/false, nullptr);
      director_s += replay(/*with_director=*/true, &samples);
    }
    per_sample.push_back(1e9 * (director_s - baseline_s) / samples);
  }
  return Median(per_sample);
}

// apps: testbed construction plus the standard settle.
double TestbedSetupMs(const LayerScale& scale) {
  std::vector<double> ms;
  for (uint64_t seed : scale.testbed_seeds) {
    const double t0 = WallSeconds();
    {
      odapps::TestBed bed(odapps::TestBed::Options{.seed = seed, .hw_pm = true});
      odapps::Settle(bed);
      ms.push_back(1e3 * (WallSeconds() - t0));
    }
  }
  return Median(ms);
}

}  // namespace

void TimeLayerCalls(const LayerScale& scale, Metrics* out) {
  out->Set("sim.queue_ns_per_op", QueueNsPerOp(scale), "ns");
  out->Set("power.ns_per_change", PowerNsPerChange(scale), "ns");
  out->Set("power.learned_ns_per_update", LearnedNsPerUpdate(scale), "ns");
  out->Set("powerscope.ns_per_sample", MonitorNsPerSample(scale), "ns");
  out->Set("odyssey.fetch_ns", FetchNs(scale), "ns");
  out->Set("serve.ns_per_submit", SubmitNs(scale), "ns");
  out->Set("energy.ns_per_sample", DirectorNsPerSample(scale), "ns");
  if (!scale.testbed_seeds.empty()) {
    out->Set("apps.testbed_setup_ms", TestbedSetupMs(scale), "ms");
  }
}

}  // namespace perfbench
