// perfbench — the repository benchmark.
//
//   perfbench --workload fleet_lru|goal_days|goal_faulted --seed N
//             --seconds S --trace 0|1 --log-file PATH
//
// Untraced (--trace 0): repeats passes of the workload for S seconds.
// Each pass first times zero-length runs of every configuration (setup_s),
// then the full runs (wall_s).  Every pass must reproduce the first pass's
// output hash and log-line count bit for bit.  Reports the end-to-end
// metrics: the host times (each unit's fastest repeat, summed; see
// FastestRepeat), peak RSS, and the simulated outcomes.  Each pass runs on
// the CPU that is quietest when it starts (see QuietCpu).
//
// Traced (--trace 1): alternates untraced and traced passes (observers
// attached, accessors read), then times each layer's public calls at the
// workload's scale, and reports the per-layer metrics, the tracing
// overhead and each layer's estimated share of wall time.
//
// The simulator logs to stderr; the benchmark sends stderr to PATH and
// counts its lines (util.log_lines), so logs never mix with the metrics.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every run held its invariants and every pass matched,
// 1 otherwise, 64 on a usage error.

#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return 0.0;
}

namespace {

// A pass count that gives the repeat check something to compare.
constexpr int kMinPasses = 2;
// Set-up is short (milliseconds), so each pass samples it several times.
constexpr int kSetupsPerPass = 5;

// On a shared host, other tenants load some of this machine's CPUs and not
// others, and the load moves within seconds: one goal_days pass took 1.7 s
// on one CPU and 2.9 s on another at the same moment.  Before each pass the
// benchmark times a short cache-bound probe on every CPU it may use and
// pins itself to the fastest.  Where affinity cannot be set it runs unpinned.
class QuietCpu {
 public:
  QuietCpu() { ok_ = sched_getaffinity(0, sizeof allowed_, &allowed_) == 0; }

  void PinQuietest() {
    if (!ok_) {
      return;
    }
    // The probe's buffer is mapped for the pick only, so it is not resident
    // while the workload runs (see ResetPeakRss).
    const size_t bytes = kProbeWords * sizeof(uint32_t);
    void* mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) {
      return;
    }
    uint32_t* chain = static_cast<uint32_t*>(mapping);
    // One random cycle through the buffer (Sattolo's shuffle), so every
    // step is a dependent load that misses the private caches.
    for (uint32_t i = 0; i < kProbeWords; ++i) {
      chain[i] = i;
    }
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = kProbeWords - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(chain[i], chain[x % i]);
    }
    int best = -1;
    double best_s = 0.0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_)) {
        continue;
      }
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0) {
        continue;
      }
      const double s = std::min(Probe(chain), Probe(chain));
      if (best < 0 || s < best_s) {
        best = cpu;
        best_s = s;
      }
    }
    munmap(mapping, bytes);
    cpu_set_t pick = allowed_;
    if (best >= 0) {
      CPU_ZERO(&pick);
      CPU_SET(best, &pick);
    }
    sched_setaffinity(0, sizeof pick, &pick);
  }

 private:
  static constexpr uint32_t kProbeWords = 1u << 20;  // 4 MiB, over L2.
  static constexpr int kProbeSteps = 100000;

  double Probe(const uint32_t* chain) {
    const double start = WallSeconds();
    uint32_t p = position_;
    for (int i = 0; i < kProbeSteps; ++i) {
      p = chain[p];
    }
    position_ = p;
    return WallSeconds() - start;
  }

  uint32_t position_ = 0;
  cpu_set_t allowed_;
  bool ok_ = false;
};

// stderr redirected to a file whose new lines can be counted.
class LogTap {
 public:
  explicit LogTap(const char* path) {
    if (std::freopen(path, "w", stderr) == nullptr) {
      return;
    }
    reader_ = std::fopen(path, "r");
  }
  ~LogTap() {
    if (reader_ != nullptr) {
      std::fclose(reader_);
    }
  }
  LogTap(const LogTap&) = delete;
  LogTap& operator=(const LogTap&) = delete;

  bool ok() const { return reader_ != nullptr; }

  // Lines written to stderr since the previous call.
  long NewLines() {
    std::fflush(stderr);
    long lines = 0;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, reader_)) > 0) {
      lines += std::count(buffer, buffer + n, '\n');
    }
    std::clearerr(reader_);
    return lines;
  }

 private:
  std::FILE* reader_ = nullptr;
};

// Restarts the high-water resident set at the current one, so each pass's
// peak is its own.  Linux only; elsewhere the peak covers the whole run.
void ResetPeakRss() {
  if (std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", clear_refs);
    std::fclose(clear_refs);
  }
}

// The process's high-water resident set (VmHWM).  getrusage's ru_maxrss
// is not used: it survives exec, so it would report the launching
// process's footprint when that was larger.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string log_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] - '0';
    } else if (flag == "--log-file") {
      args->log_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->trace >= 0 && !args->log_file.empty();
}

void PrintResult(bool correct, long attempted, long failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& m : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void PrintTable(const Metrics& metrics) {
  for (const Metric& m : metrics.all()) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// State shared by both modes: the repeat check and the run tally.
struct Check {
  bool have_first = false;
  uint64_t hash = 0;
  long log_lines = 0;
  long attempted = 0;
  long failed = 0;
  std::string error;

  void Record(const PassOutcome& pass, long lines, const char* label) {
    attempted += pass.runs;
    failed += pass.violations;
    if (pass.violations > 0 && error.empty()) {
      error = "invariant violated: " + pass.first_violation;
    }
    if (!have_first) {
      have_first = true;
      hash = pass.hash;
      log_lines = lines;
      return;
    }
    if (pass.hash != hash || lines != log_lines) {
      failed += pass.runs;
      if (error.empty()) {
        char buffer[160];
        std::snprintf(buffer, sizeof buffer,
                      "%s pass diverged: hash %016llx vs %016llx, log lines %ld vs %ld",
                      label, static_cast<unsigned long long>(pass.hash),
                      static_cast<unsigned long long>(hash), lines, log_lines);
        error = buffer;
      }
    }
  }
};

int RunUntraced(Workload& workload, const Args& args, LogTap& tap) {
  QuietCpu cpu;
  Check check;
  PassOutcome first;
  FastestRepeat setup;
  FastestRepeat wall;
  std::vector<double> pass_s;
  double peak_rss_mib = 0.0;
  const double t0 = WallSeconds();
  while (static_cast<int>(pass_s.size()) < kMinPasses ||
         WallSeconds() - t0 < args.seconds) {
    cpu.PinQuietest();
    ResetPeakRss();
    for (int i = 0; i < kSetupsPerPass; ++i) {
      setup.Add(workload.Setup());
    }
    tap.NewLines();  // Set-up logs are not part of the pass's output.
    const double start = WallSeconds();
    PassOutcome pass = workload.Run(/*traced=*/false);
    pass_s.push_back(WallSeconds() - start);
    peak_rss_mib = std::max(peak_rss_mib, PeakRssMib());
    wall.Add(pass.unit_seconds);
    check.Record(pass, tap.NewLines(), "repeat");
    if (pass_s.size() == 1) {
      first = pass;
    }
  }

  Metrics metrics;
  metrics.Set("wall_s", wall.Sum(), "s");
  metrics.Set("setup_s", setup.Sum(), "s");
  metrics.Set("peak_rss_mib", peak_rss_mib, "MiB");
  metrics.Set("goal_attainment", first.goal_attainment, "fraction");
  metrics.Set("mean_fidelity", first.mean_fidelity, "fraction");
  metrics.Set("failed_frac", first.failed_frac, "fraction");

  std::printf("passes: %zu, hash %016llx, log lines per pass %ld\n"
              "whole-pass host seconds (median %.4f):",
              pass_s.size(), static_cast<unsigned long long>(check.hash),
              check.log_lines, Median(pass_s));
  for (double s : pass_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  PrintTable(metrics);
  const bool correct = check.error.empty();
  if (!correct) {
    std::printf("FAILED: %s\n", check.error.c_str());
  }
  PrintResult(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(Workload& workload, const Args& args, LogTap& tap) {
  QuietCpu cpu;
  Check check;
  Metrics layers;
  FastestRepeat untraced;
  FastestRepeat traced;
  int pairs = 0;
  const double t0 = WallSeconds();
  // Half the run alternates plain and traced passes; the layer timings
  // take the rest.
  while (pairs == 0 || WallSeconds() - t0 < 0.5 * args.seconds) {
    cpu.PinQuietest();
    PassOutcome plain = workload.Run(/*traced=*/false);
    check.Record(plain, tap.NewLines(), "untraced");
    untraced.Add(plain.unit_seconds);
    cpu.PinQuietest();
    PassOutcome with_trace = workload.Run(/*traced=*/true);
    check.Record(with_trace, tap.NewLines(), "traced");
    traced.Add(with_trace.unit_seconds);
    layers = with_trace.layers;
    ++pairs;
  }
  cpu.PinQuietest();
  workload.TimeLayers(&layers);

  const double wall = untraced.Sum();
  layers.Set("util.log_lines", static_cast<double>(check.log_lines), "count");
  layers.Set("trace.overhead_s", traced.Sum() - wall, "s");

  // Metrics a workload cannot reach through the public API read 0; the
  // benchmark's README gives the reason for each.
  Metrics out;
  std::vector<std::string> absent;
  for (const LayerSource& source : LayerSources()) {
    bool found = false;
    for (const Metric& m : layers.all()) {
      found = found || m.name == source.metric;
    }
    if (!found) {
      absent.push_back(source.metric);
    }
    out.Set(source.metric, layers.Get(source.metric), source.unit);
  }
  out.Set("util.log_lines", layers.Get("util.log_lines"), "count");
  out.Set("trace.overhead_s", layers.Get("trace.overhead_s"), "s");

  // Estimated share of the untraced wall time: calls x ns per call.
  auto share = [&](const char* name, double calls, double ns) {
    out.Set(name, wall > 0.0 ? calls * ns * 1e-9 / wall : 0.0, "fraction");
  };
  // Every event is one Schedule plus one dispatch.
  share("sim.est_share", 2.0 * out.Get("sim.events"), out.Get("sim.queue_ns_per_op"));
  share("power.est_share", out.Get("power.state_changes"),
        out.Get("power.ns_per_change"));
  share("powerscope.est_share", out.Get("powerscope.samples"),
        out.Get("powerscope.ns_per_sample"));
  share("odyssey.est_share", out.Get("odyssey.fetches"), out.Get("odyssey.fetch_ns"));
  share("serve.est_share", out.Get("serve.completed") + out.Get("serve.rejected"),
        out.Get("serve.ns_per_submit"));
  share("energy.est_share", out.Get("powerscope.samples"),
        out.Get("energy.ns_per_sample"));

  std::printf("untraced wall %.6f s, traced wall %.6f s (%d pairs)\n", wall,
              traced.Sum(), pairs);
  PrintTable(out);
  for (const std::string& name : absent) {
    std::printf("absent on %s (reads 0): %s\n", args.workload.c_str(), name.c_str());
  }
  for (const LayerSource& source : LayerSources()) {
    std::printf("source %-28s %s\n", source.metric, source.source);
  }
  const bool correct = check.error.empty();
  if (!correct) {
    std::printf("FAILED: %s\n", check.error.c_str());
  }
  PrintResult(correct, check.attempted, check.failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --log-file PATH\n");
    return 64;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 64;
  }
  for (const WorkloadInfo& info : Workloads()) {
    if (args.workload == info.name) {
      std::printf("workload %s — %s\n  loop: %s\n", info.name, info.why, info.loop);
    }
  }
  LogTap tap(args.log_file.c_str());
  if (!tap.ok()) {
    std::printf("perfbench: cannot open log file %s\n", args.log_file.c_str());
    return 64;
  }
  return args.trace == 1 ? RunTraced(*workload, args, tap)
                         : RunUntraced(*workload, args, tap);
}
