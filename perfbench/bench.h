// Shared pieces of the repository benchmark: the metric list a run
// reports, the output hash that witnesses determinism, and the interface
// each workload implements.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in report order.  Set() replaces a metric of the same name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// FNV-1a over the bit patterns of every simulated output: two passes of
// the same seed must agree to the last bit.
class OutputHash {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(int value) { Add(static_cast<uint64_t>(static_cast<int64_t>(value))); }
  void Add(bool value) { Add(static_cast<uint64_t>(value ? 1 : 0)); }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host seconds of each unit of work in a pass (one goal run, or one
// simulated second of the fleet).  Every pass of a seed has the same units
// in the same order.
using UnitSeconds = std::vector<double>;

// The host time of repeated passes with other tenants' interference
// filtered out: for each unit, the fastest of its repeats, summed.
// Interference only ever slows a unit down, and on a shared host it comes
// and goes within seconds, so the fastest repeat is the steadiest estimate.
class FastestRepeat {
 public:
  void Add(const UnitSeconds& units) {
    if (best_.empty()) {
      best_ = units;
      return;
    }
    for (size_t i = 0; i < best_.size() && i < units.size(); ++i) {
      best_[i] = std::min(best_[i], units[i]);
    }
  }
  double Sum() const {
    double sum = 0.0;
    for (double seconds : best_) {
      sum += seconds;
    }
    return sum;
  }

 private:
  UnitSeconds best_;
};

// What one pass of a workload simulated.  The outcome fields are exact for
// a seed; `layers` holds the per-layer counts, filled only by traced passes.
struct PassOutcome {
  UnitSeconds unit_seconds;
  uint64_t hash = 0;
  int runs = 0;        // Simulated runs in the pass (goal runs, or 1 fleet).
  int violations = 0;  // Runs that broke an invariant.
  std::string first_violation;
  double goal_attainment = 0.0;
  double mean_fidelity = 0.0;
  double failed_frac = 0.0;
  Metrics layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Zero-length runs of every configuration in the pass: construction and
  // settle only, no simulated workload time.  Returns each run's host time.
  virtual UnitSeconds Setup() = 0;
  // One full pass.  `traced` attaches the counting observers and reads the
  // layer accessors into PassOutcome::layers.
  virtual PassOutcome Run(bool traced) = 0;
  // Host time per layer from timed calls into each layer's public
  // functions, at this workload's scale.
  virtual void TimeLayers(Metrics* out) = 0;
};

struct WorkloadInfo {
  const char* name;
  const char* why;   // One sentence: why the benchmark runs it.
  const char* loop;  // Open or closed loop, with its rate or client count.
};

const std::vector<WorkloadInfo>& Workloads();

// Where each traced per-layer metric comes from: "accessor", "observer",
// "probe", "derived" or "timed call".
struct LayerSource {
  const char* metric;
  const char* unit;
  const char* source;
};
const std::vector<LayerSource>& LayerSources();

// nullptr when `name` is not a workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
