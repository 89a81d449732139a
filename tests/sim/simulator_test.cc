#include "src/sim/simulator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace odsim {
namespace {

class RecordingObserver : public CpuObserver {
 public:
  struct Switch {
    SimTime time;
    ProcessId pid;
    ProcedureId proc;
    bool busy;
  };
  void OnCpuContextSwitch(SimTime now, ProcessId pid, ProcedureId proc,
                          bool busy) override {
    switches.push_back({now, pid, proc, busy});
  }
  std::vector<Switch> switches;
};

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, RunAdvancesClockThroughEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(SimDuration::Seconds(2), [&] { times.push_back(sim.Now().seconds()); });
  sim.Schedule(SimDuration::Seconds(1), [&] { times.push_back(sim.Now().seconds()); });
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(2));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimDuration::Seconds(1), [&] {
    ++fired;
    sim.Schedule(SimDuration::Seconds(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(2));
}

TEST(SimulatorTest, RunUntilAdvancesToDeadline) {
  Simulator sim;
  bool before = false, after = false;
  sim.Schedule(SimDuration::Seconds(1), [&] { before = true; });
  sim.Schedule(SimDuration::Seconds(10), [&] { after = true; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
  // The late event still fires on a later run.
  sim.RunUntil(SimTime::Seconds(20));
  EXPECT_TRUE(after);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimDuration::Seconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(SimDuration::Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // Run again resumes.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime fired_at;
  sim.ScheduleAt(SimTime::Seconds(7), [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, SimTime::Seconds(7));
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.Schedule(SimDuration::Seconds(1), [&] { fired = true; });
  h.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
}

// -- CPU scheduling ----------------------------------------------------------

TEST(SimulatorCpuTest, SingleWorkItemRunsForItsDuration) {
  Simulator sim;
  ProcessId pid = sim.processes().RegisterProcess("worker");
  ProcedureId proc = sim.processes().RegisterProcedure("_work");
  SimTime done_at;
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1.5), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, SimTime::Seconds(1.5));
}

TEST(SimulatorCpuTest, ContextReflectsRunningWork) {
  Simulator sim;
  ProcessId pid = sim.processes().RegisterProcess("worker");
  ProcedureId proc = sim.processes().RegisterProcedure("_work");
  EXPECT_FALSE(sim.cpu_busy());
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), nullptr);
  EXPECT_TRUE(sim.cpu_busy());
  EXPECT_EQ(sim.current_pid(), pid);
  EXPECT_EQ(sim.current_proc(), proc);
  sim.Run();
  EXPECT_FALSE(sim.cpu_busy());
  EXPECT_EQ(sim.current_pid(), kIdlePid);
}

TEST(SimulatorCpuTest, RoundRobinSharesCpuFairly) {
  Simulator sim;
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  SimTime a_done, b_done;
  sim.SubmitWork(a, proc, SimDuration::Seconds(1), [&] { a_done = sim.Now(); });
  sim.SubmitWork(b, proc, SimDuration::Seconds(1), [&] { b_done = sim.Now(); });
  sim.Run();
  // Both finish near 2 s (work conserving), interleaved by quantum.
  EXPECT_GE(a_done, SimTime::Seconds(1.9));
  EXPECT_LE(a_done, SimTime::Seconds(2));
  EXPECT_EQ(b_done, SimTime::Seconds(2));
}

TEST(SimulatorCpuTest, ShortJobFinishesBeforeLongJobCompletes) {
  Simulator sim;
  ProcessId a = sim.processes().RegisterProcess("short");
  ProcessId b = sim.processes().RegisterProcess("long");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  SimTime short_done, long_done;
  sim.SubmitWork(b, proc, SimDuration::Seconds(10), [&] { long_done = sim.Now(); });
  sim.SubmitWork(a, proc, SimDuration::Seconds(0.1), [&] { short_done = sim.Now(); });
  sim.Run();
  // The short job shares the CPU and finishes near 0.2 s, not after 10 s.
  EXPECT_LE(short_done, SimTime::Seconds(0.5));
  EXPECT_GE(long_done, SimTime::Seconds(10));
}

TEST(SimulatorCpuTest, ObserverSeesBusyAndIdleTransitions) {
  Simulator sim;
  RecordingObserver observer;
  sim.AddCpuObserver(&observer);
  ProcessId pid = sim.processes().RegisterProcess("worker");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), nullptr);
  sim.Run();
  ASSERT_GE(observer.switches.size(), 2u);
  EXPECT_EQ(observer.switches.front().pid, pid);
  EXPECT_TRUE(observer.switches.front().busy);
  EXPECT_EQ(observer.switches.back().pid, kIdlePid);
  EXPECT_FALSE(observer.switches.back().busy);
}

TEST(SimulatorCpuTest, CompletionCanSubmitMoreWork) {
  Simulator sim;
  ProcessId pid = sim.processes().RegisterProcess("worker");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  SimTime second_done;
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), [&] {
    sim.SubmitWork(pid, proc, SimDuration::Seconds(1),
                   [&] { second_done = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(second_done, SimTime::Seconds(2));
}

TEST(SimulatorCpuTest, RunnablePidsListsQueuedWork) {
  Simulator sim;
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  EXPECT_TRUE(sim.RunnablePids().empty());
  sim.SubmitWork(a, proc, SimDuration::Seconds(1), nullptr);
  sim.SubmitWork(b, proc, SimDuration::Seconds(1), nullptr);
  std::vector<ProcessId> pids = sim.RunnablePids();
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_EQ(pids[0], a);
  EXPECT_EQ(pids[1], b);
  sim.Run();
  EXPECT_TRUE(sim.RunnablePids().empty());
}

TEST(SimulatorCpuTest, QuantumGovernsInterleavingGranularity) {
  Simulator sim;
  sim.set_cpu_quantum(SimDuration::Millis(100));
  RecordingObserver observer;
  sim.AddCpuObserver(&observer);
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  sim.SubmitWork(a, proc, SimDuration::Seconds(0.3), nullptr);
  sim.SubmitWork(b, proc, SimDuration::Seconds(0.3), nullptr);
  sim.Run();
  // a runs 100ms, b 100ms, a 100ms, ... -> 6 busy switches + final idle.
  int busy_switches = 0;
  for (const auto& s : observer.switches) {
    if (s.busy) {
      ++busy_switches;
    }
  }
  EXPECT_EQ(busy_switches, 6);
}

// Same-timestamp ties between CPU slice ends and ordinary events resolve by
// scheduling order, slice by slice.  25 ms of work under a 10 ms quantum
// ends with the slice dispatched at 20 ms, so its completion C files after
// E (scheduled at 5 ms) and before G (scheduled at 22 ms).  Collapsing the
// slices into one completion event filed at submission would put C ahead
// of E.
TEST(SimulatorCpuTest, SliceEndsKeepScheduleOrderAtTies) {
  Simulator sim;
  ProcessId pid = sim.processes().RegisterProcess("worker");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  const SimTime t25 = SimTime::Millis(25);
  std::string order;
  sim.ScheduleAt(t25, [&] { order += 'A'; });
  sim.SubmitWork(pid, proc, SimDuration::Millis(25), [&] {
    order += 'C';
    sim.Schedule(SimDuration::Zero(), [&] { order += 'F'; });
  });
  sim.ScheduleAt(SimTime::Millis(5),
                 [&] { sim.ScheduleAt(t25, [&] { order += 'E'; }); });
  sim.ScheduleAt(SimTime::Millis(22),
                 [&] { sim.ScheduleAt(t25, [&] { order += 'G'; }); });
  sim.Run();
  EXPECT_EQ(order, "AECGF");
  // 5 ms, three slice ends, 22 ms, then A, E, G and F.
  EXPECT_EQ(sim.events_processed(), 9u);
  EXPECT_EQ(sim.Now(), t25);
}

// Stop() from a completion callback halts RunUntil right there: the clock
// stays at the completion and later work resumes on the next run.
TEST(SimulatorCpuTest, StopFromCompletionHaltsRunUntil) {
  Simulator sim;
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  SimTime a_done, b_done;
  bool same_time_fired = false;
  sim.SubmitWork(a, proc, SimDuration::Millis(10), [&] {
    a_done = sim.Now();
    sim.Schedule(SimDuration::Zero(), [&] { same_time_fired = true; });
    sim.Stop();
  });
  sim.SubmitWork(b, proc, SimDuration::Millis(30), [&] { b_done = sim.Now(); });
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(a_done, SimTime::Millis(10));
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
  EXPECT_FALSE(same_time_fired);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.current_pid(), b);  // b's first slice is in flight.
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_TRUE(same_time_fired);
  EXPECT_EQ(b_done, SimTime::Millis(40));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(1));
  EXPECT_FALSE(sim.cpu_busy());
}

}  // namespace
}  // namespace odsim
