// fleet_open: the multi-model fleet (fleet::serve_fleet) replaying a seeded
// open-loop trace of one-shot requests with mixed latency classes. The only
// workload through fleet/ (merged registry, triage, shedding, class
// deadlines) and the trace-replay dispatcher.
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <unistd.h>

#include "acrobat/fleet/fleet.h"
#include "acrobat/serve/load.h"
#include "config.h"
#include "common.h"

namespace perfbench {

namespace {

using namespace acrobat;

// Seeded Poisson-burst trace: bursts of kFleetBurst simultaneous arrivals,
// model by traffic share, input uniform, class by the model's shares.
std::vector<serve::Request> fleet_trace(std::uint64_t seed, double seconds) {
  serve::LoadSpec spec;
  spec.kind = serve::ArrivalKind::kBurst;
  spec.rate_rps = kFleetRps;
  spec.num_requests = static_cast<int>(std::llround(kFleetRps * seconds));
  spec.burst_size = kFleetBurst;
  spec.seed = seed;
  std::vector<serve::ModelMix> mix;
  for (std::size_t m = 0; m < kFleetModels.size(); ++m)
    mix.push_back(serve::ModelMix{static_cast<int>(m), kFleetModels[m].weight, kFleetInputs,
                                  kFleetModels[m].p_interactive, kFleetModels[m].p_batch});
  return serve::generate_load(spec, mix);
}

double class_deadline_ms(serve::LatencyClass c) {
  switch (c) {
    case serve::LatencyClass::kInteractive: return kFleetInteractiveMs;
    case serve::LatencyClass::kBatch: return kFleetBatchMs;
    default: return 0;
  }
}

fleet::FleetOptions fleet_options(bool traced) {
  fleet::FleetOptions fo;
  fo.shards = kFleetShards;
  fo.dispatch = serve::DispatchKind::kLeastLoaded;
  fo.launch_overhead_ns = kLaunchNs;
  fo.collect_outputs = true;
  fo.policy.base.kind = serve::PolicyKind::kMaxBatch;
  fo.policy.base.max_batch = kFleetMaxBatch;
  fo.policy.deadline_ns = {static_cast<std::int64_t>(kFleetInteractiveMs * 1e6),
                           static_cast<std::int64_t>(kFleetBatchMs * 1e6), 0};
  // Blown requests are deprioritized, not shed (config.h, kFleetShed).
  fo.policy.shed = kFleetShed;
  fo.time_activities = traced;
  fo.trace.enabled = traced;
  return fo;
}

// Request statistics of a serve_fleet call, or of one slice of its
// arrival window.
struct Phase {
  Counts counts;
  Samples latency_ms, gap_ms, wait_ms, service_ms;
  std::vector<double> done_ms;  // completion times, for gap_ms
  long long met = 0;
  std::array<long long, serve::kNumLatencyClasses> class_n{}, class_met{};
  double span_s = 0;
  double cpu_ms = 0;
  fleet::FleetResult res;   // whole call only
  std::vector<Phase> slices;

  void add(const serve::Request& q, const serve::RequestRecord& r, bool ok) {
    const std::size_t cls = static_cast<std::size_t>(q.latency_class);
    ++counts.attempted;
    ++class_n[cls];
    if (!ok) {
      ++counts.failed;
      if (r.shed) ++counts.refused;
      else ++counts.mismatched;
      return;
    }
    ++counts.succeeded;
    const double lat = r.latency_ms();
    latency_ms.add(lat);
    wait_ms.add(static_cast<double>(r.admit_ns - r.arrival_ns) * 1e-6);
    service_ms.add(static_cast<double>(r.completion_ns - r.admit_ns) * 1e-6);
    done_ms.push_back(static_cast<double>(r.completion_ns) * 1e-6);
    const double deadline = class_deadline_ms(q.latency_class);
    if (deadline <= 0 || lat <= deadline) {
      ++met;
      ++class_met[cls];
    }
  }
  void finish() {
    std::sort(done_ms.begin(), done_ms.end());
    for (std::size_t i = 1; i < done_ms.size(); ++i) gap_ms.add(done_ms[i] - done_ms[i - 1]);
    done_ms = {};
  }
};

// One serve_fleet call over `trace`, every output checked. With n_slices >
// 1 the statistics are also kept per slice of the arrival window after the
// first `lead_in_s` seconds (a request belongs to the slice it arrived in),
// over one run of the shard threads.
Phase run_phase(const fleet::ModelRegistry& reg, const std::vector<serve::Request>& trace,
                const std::vector<std::vector<std::vector<float>>>& refs, bool traced,
                int n_slices = 1, double lead_in_s = 0) {
  Phase ph;
  // serve_fleet starts its shard threads inside the call, and the calling
  // thread dispatches; a watcher pins all of them once the shards exist.
  const std::size_t threads = thread_count() + 1 + kFleetShards;
  std::thread watcher([threads] {
    const std::int64_t give_up = wall_ns() + 1'000'000'000;
    while (thread_count() < threads && wall_ns() < give_up) usleep(20);
    pin_threads(static_cast<int>(gettid()));
  });
  const std::int64_t cpu0 = process_cpu_ns();
  ph.res = fleet::serve_fleet(reg, trace, fleet_options(traced));
  watcher.join();
  ph.cpu_ms = static_cast<double>(process_cpu_ns() - cpu0) * 1e-6;
  const std::int64_t first = trace.empty() ? 0 : trace.front().arrival_ns;
  const std::int64_t slices_from = first + static_cast<std::int64_t>(lead_in_s * 1e9);
  const std::int64_t window =
      std::max<std::int64_t>(1, (trace.empty() ? 0 : trace.back().arrival_ns) - slices_from + 1);
  ph.slices.resize(n_slices > 1 ? static_cast<std::size_t>(n_slices) : 0);
  std::int64_t last = first;
  for (const serve::RequestRecord& r : ph.res.records) {
    const serve::Request& q = trace[static_cast<std::size_t>(r.id)];
    if (r.completion_ns > last) last = r.completion_ns;
    const bool ok = !r.shed && bitwise_equal(r.output, refs[static_cast<std::size_t>(q.model_id)]
                                                           [q.input_index]);
    ph.add(q, r, ok);
    if (!ph.slices.empty() && q.arrival_ns >= slices_from)
      ph.slices[static_cast<std::size_t>((q.arrival_ns - slices_from) * n_slices / window)]
          .add(q, r, ok);
  }
  ph.res.records = {};  // checked; only the shard reports are kept
  ph.finish();
  ph.span_s = static_cast<double>(last - first) * 1e-9;
  for (Phase& sl : ph.slices) {
    sl.finish();
    sl.span_s = static_cast<double>(window) * 1e-9 / n_slices;
  }
  return ph;
}

void log_phase(const char* what, const Phase& ph) {
  std::printf(" %s: %.0f req/s over %.2f s, attainment %.4f, shed %lld\n", what,
              static_cast<double>(ph.counts.succeeded) / ph.span_s, ph.span_s,
              static_cast<double>(ph.met) / static_cast<double>(ph.counts.attempted),
              ph.res.shed);
  log_counts("requests", ph.counts);
  log_pct("latency ms", ph.latency_ms, 0.5);
  log_pct("latency ms", ph.latency_ms, 0.99);
  log_pct("completion gap ms", ph.gap_ms, 0.99);
  log_pct("queue wait ms", ph.wait_ms, 0.99);
}

}  // namespace

bool run_fleet_open(const Args& a, Report& rep) {
  // Set-up, repeated: datasets + merged registry (compile + prepare).
  std::unique_ptr<fleet::ModelRegistry> reg;
  std::vector<double> setup_s, registry_s, prepare_s;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    const std::int64_t t0 = wall_ns();
    std::vector<models::Dataset> dss;
    for (std::size_t m = 0; m < kFleetModels.size(); ++m)
      dss.push_back(models::model_by_name(kFleetModels[m].name)
                        .build_dataset(false, kFleetInputs, derive_seed(a.seed, 500 + m)));
    const std::int64_t t1 = wall_ns();
    reg = std::make_unique<fleet::ModelRegistry>();
    for (std::size_t m = 0; m < kFleetModels.size(); ++m)
      reg->add(models::model_by_name(kFleetModels[m].name), false, std::move(dss[m]));
    const std::int64_t t2 = wall_ns();
    reg->prepare();
    const std::int64_t t3 = wall_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    registry_s.push_back(static_cast<double>(t3 - t1) * 1e-9);
    prepare_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
  }

  log_setup(setup_s);

  // Solo references per model, from stand-alone prepares of the same
  // datasets (outside set-up time).
  std::vector<std::vector<std::vector<float>>> refs;
  for (std::size_t m = 0; m < kFleetModels.size(); ++m) {
    const models::ModelSpec& spec = models::model_by_name(kFleetModels[m].name);
    const harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
    refs.push_back(solo_references(p, reg->model(static_cast<int>(m)).dataset));
  }

  // Warm-up: a short slice of the same arrival process, checked too.
  const Phase warm = run_phase(*reg, fleet_trace(derive_seed(a.seed, 600), 0.05), refs, false);
  add_counts(rep.counts, warm.counts);
  if (!a.trace) {
    const Phase run = run_phase(*reg, fleet_trace(derive_seed(a.seed, 601), a.seconds), refs,
                                false, kSlices, kFleetLeadInS);
    log_phase("open loop", run);
    add_counts(rep.counts, run.counts);
    const std::vector<Phase>& slices = run.slices;
    rep.set("setup_s", median(setup_s));
    rep.set("peak_rss_mb", self_peak_rss_mb());
    const auto med = [&](const char* name, auto f) {
      rep.set(name, slice_quantile(name, slices, f));
    };
    const auto ok = [](const Phase& ph) { return static_cast<double>(ph.counts.succeeded); };
    rep.set("cpu_ms_per_op", run.cpu_ms / ok(run));
    med("ops_per_s", [&](const Phase& ph) { return ok(ph) / ph.span_s; });
    med("latency_p50_ms", [](const Phase& ph) { return ph.latency_ms.pct(0.5); });
    med("latency_p99_ms", [](const Phase& ph) { return ph.latency_ms.pct(0.99); });
    med("itl_p99_ms", [](const Phase& ph) { return ph.gap_ms.pct(0.99); });
    med("slo_attainment", [](const Phase& ph) {
      return static_cast<double>(ph.met) / static_cast<double>(ph.counts.attempted);
    });
    med("slo_rps", [](const Phase& ph) { return static_cast<double>(ph.met) / ph.span_s; });
    // One-shot requests: the single output is the first token.
    rep.set("tokens_per_s", rep.metrics["ops_per_s"]);
    rep.set("ttft_p50_ms", rep.metrics["latency_p50_ms"]);
    rep.set("ttft_p99_ms", rep.metrics["latency_p99_ms"]);
    return true;
  }

  const double window_s = a.seconds / 2;
  const Phase ph = run_phase(*reg, fleet_trace(derive_seed(a.seed, 601), window_s), refs, false);
  log_phase("open loop", ph);
  add_counts(rep.counts, ph.counts);

  const Phase tph = run_phase(*reg, fleet_trace(derive_seed(a.seed, 602), window_s), refs, true);
  log_phase("traced open loop", tph);
  add_counts(rep.counts, tph.counts);

  const double n = static_cast<double>(tph.counts.succeeded);
  ActivityStats s;
  for (const serve::ShardReport& sh : tph.res.shards) add_stats(s, sh.stats);
  set_engine_layers(rep, s, n);
  set_shard_layers(rep, tph.res.shards, n);
  rep.set("serve.queue_wait_ms_p50", tph.wait_ms.pct(0.5));
  rep.set("serve.queue_wait_ms_p99", tph.wait_ms.pct(0.99));
  rep.set("serve.service_ms_p50", tph.service_ms.pct(0.5));
  rep.set("fleet.shed_share",
          static_cast<double>(tph.res.shed) / static_cast<double>(tph.counts.attempted));
  static const char* kClassKeys[] = {"interactive", "batch", "best_effort"};
  for (std::size_t c = 0; c < serve::kNumLatencyClasses; ++c)
    rep.set(std::string("fleet.attainment.") + kClassKeys[c],
            tph.class_n[c] > 0 ? static_cast<double>(tph.class_met[c]) / tph.class_n[c] : 0.0);
  rep.set("setup.prepare_s", median(prepare_s));
  rep.set("setup.registry_s", median(registry_s));
  rep.set("trace.overhead_pct",
          (tph.latency_ms.pct(0.5) / ph.latency_ms.pct(0.5) - 1.0) * 100.0);
  return true;
}

}  // namespace perfbench
