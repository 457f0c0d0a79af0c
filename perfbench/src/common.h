// Shared pieces of the repository benchmark: exact sample statistics, the
// metric report every workload fills, process/thread resource probes, the
// host calibration loop, and bitwise output checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "acrobat/harness/harness.h"
#include "acrobat/models/models.h"
#include "acrobat/serve/server.h"

namespace perfbench {

// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Monotonic wall clock, CPU clocks, and memory probes.
std::int64_t wall_ns();
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();
double self_peak_rss_mb();               // VmHWM of this process
void reset_peak_rss();                   // restarts VmHWM at the current RSS
double pid_peak_rss_mb(int pid);         // VmHWM of a child, 0 if unreadable
std::int64_t pid_cpu_ns(int pid);        // utime+stime of a child, 0 if unreadable

// Stored samples with exact nearest-rank percentiles: the rank-ceil(q*n)
// smallest sample, never a histogram bucket.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  double pct(double q) const;
  // Samples strictly above the q-quantile (the tail a p99 rests on).
  std::size_t beyond(double q) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

// Request/op outcome counts, per workload and per rung.
struct Counts {
  long long attempted = 0;
  long long succeeded = 0;
  long long refused = 0;   // 429 or shed
  long long failed = 0;    // all failures, refusals and mismatches included
  long long mismatched = 0;
};

void add_counts(Counts& into, const Counts& c);

// What one workload run reports. Metrics are keyed by the names in
// BENCHMARK.json; their units live in the metric lists below.
struct Report {
  Counts counts;
  std::map<std::string, double> metrics;
  void set(const std::string& name, double v) { metrics[name] = v; }
};

// Prints one human-readable line for a percentile with its sample count.
void log_pct(const char* what, const Samples& s, double q);
void log_counts(const char* what, const Counts& c);

// Restricts this process (and the server workers it forks) to the first
// `n` CPUs it may run on; prints the CPUs chosen. False if it cannot.
bool use_cpus(int n);

// Pins every thread of this process but `skip_tid` to one of the CPUs
// use_cpus chose, round-robin in thread-id (creation) order, so thread
// placement is the same in every run. Prints the placement.
bool pin_threads(int skip_tid = 0);
std::size_t thread_count();  // threads of this process
// Lets the calling thread (and threads it starts) run on every CPU
// use_cpus chose again.
bool unpin_self();

// Host calibration: milliseconds for a fixed integer ALU loop (median of a
// few repetitions). Used to spot a disturbed host, never to scale metrics.
double host_spin_ms();
// Cumulative CPU time stolen from this machine by its hypervisor (the
// "steal" column of /proc/stat), and all CPU time, in clock ticks.
std::pair<long long, long long> host_steal_ticks();

// Solo reference outputs: one run_acrobat per input, computed once at set-up.
std::vector<std::vector<float>> solo_references(const acrobat::harness::Prepared& p,
                                                const acrobat::models::Dataset& ds);
bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b);
bool bitwise_equal(const float* a, std::size_t n, const std::vector<float>& b);

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 9;
double median(std::vector<double> v);
void log_setup(const std::vector<double>& setup_s);  // every repetition

// Each timed window is cut into slices, and every rate, share and
// percentile a workload reports is a quantile over its slices (the median,
// unless the workload says otherwise) of that figure computed per slice. A
// host stall (CPU stolen by other guests) spoils the slices it falls in,
// not the run's figure. Prints the per-slice values under `what`.
double slice_quantile(const char* what, const std::vector<double>& per_slice, double q = 0.5);
template <class T, class F>
double slice_quantile(const char* what, const std::vector<T>& slices, F per_slice,
                      double q = 0.5) {
  std::vector<double> v;
  v.reserve(slices.size());
  for (const T& s : slices) v.push_back(per_slice(s));
  return slice_quantile(what, v, q);
}


// Simulated device launch latency charged per kernel launch (the repo's
// standard substitution for GPU launch overhead).
inline constexpr std::int64_t kLaunchNs = 3000;

// Workload entry points. Each fills `rep` and returns false only on an
// infrastructure failure (no socket, worker spawn failed).
bool run_batch64(const Args& a, Report& rep);
bool run_decode_open(const Args& a, Report& rep);
bool run_decode_mp(const Args& a, Report& rep);
bool run_fleet_open(const Args& a, Report& rep);

// Per-layer metrics every traced run reports, filled with 0 before the
// workload adds what it measures (a layer the workload does not exercise
// reads 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

// Engine layer metrics from summed activity stats, per completed op:
// tensor.kernel_ms, the engine.* time buckets, launches, fused share and
// memo hit rate.
void add_stats(acrobat::ActivityStats& into, const acrobat::ActivityStats& s);
void set_engine_layers(Report& rep, const acrobat::ActivityStats& s, double ops);
// Memory gauges (worst shard), runtime counts (summed) and serve.max_live
// from per-shard reports.
void set_shard_layers(Report& rep, const std::vector<acrobat::serve::ShardReport>& shards,
                      double ops);

// Kernel-level probe shared by every traced run: benchmark-timed run_op on
// the BiRNN-large batch-64 shapes.
void tensor_probe(Report& rep);

}  // namespace perfbench
