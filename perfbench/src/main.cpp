// perfbench: the repository benchmark.
//
//   perfbench --workload <batch64|decode_open|decode_mp|fleet_open>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints per-workload detail lines, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0 and the per-layer metrics with --trace 1. Exits 1 on any output
// mismatch (after printing), 2 on bad arguments, 3 when a workload could not
// run at all. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "acrobat/net/net.h"
#include "common.h"
#include "config.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <batch64|decode_open|decode_mp|"
               "fleet_open> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Multi-process NetServer workers re-exec this binary.
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return acrobat::net::shard_worker_main(argc, argv);

  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else return usage(("unknown flag " + k).c_str());
  }
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  bool (*run)(const Args&, Report&) = nullptr;
  if (a.workload == "batch64") run = run_batch64;
  else if (a.workload == "decode_open") run = run_decode_open;
  else if (a.workload == "decode_mp") run = run_decode_mp;
  else if (a.workload == "fleet_open") run = run_fleet_open;
  else return usage(("unknown workload '" + a.workload + "'").c_str());

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  const int cpus = a.workload == "batch64"       ? kBatchCpus
                   : a.workload == "decode_open" ? kDecodeOpenCpus
                   : a.workload == "decode_mp"   ? kDecodeMpCpus
                                                 : kFleetCpus;
  if (!use_cpus(cpus)) {
    std::fprintf(stderr, "perfbench: cannot restrict %s to %d CPUs\n", a.workload.c_str(), cpus);
    return 3;
  }
  // A run during which the hypervisor stole more than kMaxStealPct of the
  // machine's CPU time measured the host, not the program: it is measured
  // again, up to kMaxAttempts times in all, and the least disturbed attempt
  // is reported. Every attempt's requests and output checks count.
  Report rep;
  Counts all;
  double spin_before = 0, spin_after = 0, best_steal_pct = 0;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    Report r;
    if (a.trace)
      for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0);
    const double spin0 = host_spin_ms();
    const auto steal_before = host_steal_ticks();
    if (!run(a, r)) {
      std::fprintf(stderr, "perfbench: workload %s could not run\n", a.workload.c_str());
      return 3;
    }
    const double spin1 = host_spin_ms();
    const auto steal_after = host_steal_ticks();
    const long long ticks = steal_after.second - steal_before.second;
    const double steal_pct =
        ticks > 0 ? 100.0 * static_cast<double>(steal_after.first - steal_before.first) /
                        static_cast<double>(ticks)
                  : 0.0;
    std::printf("  host spin: %.3f ms before, %.3f ms after; %.1f%% of CPU time stolen by the "
                "hypervisor during the run\n",
                spin0, spin1, steal_pct);
    add_counts(all, r.counts);
    if (attempt == 1 || steal_pct < best_steal_pct) {
      rep = std::move(r);
      spin_before = spin0;
      spin_after = spin1;
      best_steal_pct = steal_pct;
    }
    if (best_steal_pct <= kMaxStealPct) break;
    if (attempt < kMaxAttempts)
      std::printf("  host disturbed (steal above %.0f%%): measuring again\n", kMaxStealPct);
    else
      std::printf("  host disturbed in every attempt: reporting the one with %.1f%% steal\n",
                  best_steal_pct);
  }
  rep.counts = all;
  log_counts("total", rep.counts);

  const auto& wanted = a.trace ? per_layer_metrics() : end_to_end_metrics();
  // Every request or instance of the run counts: warm-ups, every rung and
  // slice, and the checks before and after the timed window.
  if (!a.trace)
    rep.set("ok_share", static_cast<double>(rep.counts.succeeded) /
                            static_cast<double>(rep.counts.attempted));
  if (a.trace) {
    rep.set("host.spin_ms", std::max(spin_before, spin_after));
    tensor_probe(rep);
  }
  std::string json = "{\"correct\": ";
  json += rep.counts.mismatched == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.counts.attempted);
  json += ", \"failed\": " + std::to_string(rep.counts.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = rep.metrics.find(name);
    if (it == rep.metrics.end()) {
      std::fprintf(stderr, "perfbench: workload %s did not report %s\n", a.workload.c_str(),
                   name.c_str());
      return 3;
    }
    // A ratio over zero successes is not a number JSON can carry.
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.counts.mismatched == 0 && rep.counts.attempted > 0 ? 0 : 1;
}
