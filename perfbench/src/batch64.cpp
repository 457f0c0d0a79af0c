// batch64: the paper's closed-batch setting (Tables 5/6). Round-robin over
// four model configurations, one run_acrobat call per batch of 64
// instances, 3 µs simulated launch overhead. Only tensor/engine/runtime/
// exec do work here; net/serve/fleet do none.
#include <cmath>
#include <cstdio>
#include <memory>

#include "acrobat/trace/trace.h"
#include "common.h"
#include "config.h"

namespace perfbench {

namespace {

using namespace acrobat;

struct Model {
  const BatchModel* cfg = nullptr;
  harness::Prepared prep;
  std::vector<models::Dataset> dss;                   // kBatchDatasets batches
  std::vector<std::vector<std::vector<float>>> refs;  // per batch, per instance
  Samples batch_ms;
  // Wall and thread-CPU time per seeded batch, over the untraced windows.
  std::vector<Samples> kind_ms, kind_cpu_ms;
};

// Runs every batch of the model once with outputs collected and counts the
// instances that differ from their solo references.
long long check_batches(Model& m) {
  harness::RunOptions o;
  o.launch_overhead_ns = kLaunchNs;
  o.collect_outputs = true;
  long long bad = 0;
  for (std::size_t d = 0; d < m.dss.size(); ++d) {
    const harness::RunResult r = harness::run_acrobat(m.prep, m.dss[d], o);
    const std::vector<std::vector<float>>& refs = m.refs[d];
    if (r.oom || r.outputs.size() != refs.size()) {
      bad += static_cast<long long>(refs.size());
      continue;
    }
    for (std::size_t i = 0; i < refs.size(); ++i)
      if (!bitwise_equal(r.outputs[i], refs[i])) ++bad;
  }
  return bad;
}

struct Window {
  long long instances = 0;
  long long batches = 0;
  long long slo_met = 0;
  double wall_s = 0;
  double call_ms_total = 0;
  double peak_rss_mb = 0;
  Samples batch_ms;
  Samples gap_ms;  // between consecutive batch completions
  ActivityStats stats;
  long long triggers = 0;
  long long trace_dropped = 0;
};

// Runs batches round-robin over models (and, per model, over its batches)
// until `seconds` have passed; traced windows time activities and attach a
// fresh tracer to every call.
Window run_window(std::vector<Model>& ms, double seconds, bool traced, long long& oom) {
  Window w;
  reset_peak_rss();
  const std::int64_t t0 = wall_ns();
  const std::int64_t until = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_done = t0;
  for (std::size_t turn = 0;; ++turn) {
    Model& m = ms[turn % ms.size()];
    const std::size_t d = (turn / ms.size()) % m.dss.size();
    const models::Dataset& ds = m.dss[d];
    // Whole rounds only, so every model gets the same share of the window.
    if (turn % ms.size() == 0 && wall_ns() >= until) break;
    harness::RunOptions o;
    o.launch_overhead_ns = kLaunchNs;
    std::unique_ptr<trace::Tracer> tracer;
    if (traced) {
      trace::TraceConfig tc;
      tc.ring_capacity = 1u << 17;
      tracer = std::make_unique<trace::Tracer>(0, tc);
      o.time_activities = true;
      o.tracer = tracer.get();
    }
    const std::int64_t cpu0 = thread_cpu_ns();
    const std::int64_t c0 = wall_ns();
    const harness::RunResult r = harness::run_acrobat(m.prep, ds, o);
    const std::int64_t c1 = wall_ns();
    const std::int64_t cpu1 = thread_cpu_ns();
    const double ms_call = static_cast<double>(c1 - c0) * 1e-6;
    if (r.oom) ++oom;
    w.batch_ms.add(ms_call);
    if (!traced) {
      m.batch_ms.add(ms_call);
      m.kind_ms[d].add(ms_call);
      m.kind_cpu_ms[d].add(static_cast<double>(cpu1 - cpu0) * 1e-6);
    }
    w.gap_ms.add(static_cast<double>(c1 - last_done) * 1e-6);
    last_done = c1;
    w.call_ms_total += ms_call;
    ++w.batches;
    w.instances += static_cast<long long>(ds.inputs.size());
    if (!r.oom && ms_call <= m.cfg->slo_ms) w.slo_met += static_cast<long long>(ds.inputs.size());
    if (traced) {
      add_stats(w.stats, r.stats);
      std::vector<trace::Event> ev;
      tracer->snapshot(ev);
      for (const trace::Event& e : ev)
        if (e.kind == trace::EventKind::kTrigger) ++w.triggers;
      w.trace_dropped += static_cast<long long>(tracer->dropped());
    }
  }
  w.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  w.peak_rss_mb = self_peak_rss_mb();
  return w;
}

}  // namespace

bool run_batch64(const Args& a, Report& rep) {
  std::vector<Model> ms(kBatchModels.size());

  // Set-up: prepare + dataset per model, repeated; the last repetition is
  // the one the run uses.
  std::vector<double> setup_s, prepare_s;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    double prep_total = 0;
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < kBatchModels.size(); ++i) {
      const BatchModel& bm = kBatchModels[i];
      const models::ModelSpec& spec = models::model_by_name(bm.name);
      const std::int64_t p0 = wall_ns();
      ms[i].prep = harness::prepare(spec, bm.large, passes::PipelineConfig{});
      prep_total += static_cast<double>(wall_ns() - p0) * 1e-9;
      ms[i].dss.clear();
      for (int d = 0; d < kBatchDatasets; ++d)
        ms[i].dss.push_back(spec.build_dataset(bm.large, kBatchSize,
                                               derive_seed(a.seed, i * kBatchDatasets + d)));
      ms[i].cfg = &bm;
      ms[i].kind_ms.assign(kBatchDatasets, Samples{});
      ms[i].kind_cpu_ms.assign(kBatchDatasets, Samples{});
    }
    setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    prepare_s.push_back(prep_total);
  }

  log_setup(setup_s);

  // Reference outputs (outside setup_s), then every batch checked once as
  // warm-up.
  long long mismatched = 0;
  for (Model& m : ms) {
    for (const models::Dataset& ds : m.dss) m.refs.push_back(solo_references(m.prep, ds));
    mismatched += check_batches(m);
  }

  long long oom = 0;
  // Untraced: kSlices windows. Traced: one untraced and one traced window.
  std::vector<Window> slices;
  const int n_slices = a.trace ? 1 : kSlices;
  for (int i = 0; i < n_slices; ++i)
    slices.push_back(run_window(ms, a.trace ? a.seconds / 2 : a.seconds / kSlices, false, oom));
  Window tw;
  if (a.trace) tw = run_window(ms, a.seconds / 2, true, oom);
  // Every batch once more after the timed window, checked again.
  for (Model& m : ms) mismatched += check_batches(m);

  rep.counts.attempted = tw.instances;
  for (const Window& w : slices) rep.counts.attempted += w.instances;
  rep.counts.mismatched = mismatched;
  rep.counts.failed = mismatched + oom * kBatchSize;
  rep.counts.succeeded = rep.counts.attempted - rep.counts.failed;

  long long batches = 0;
  for (const Window& w : slices) batches += w.batches;
  std::printf("batch64: %lld batches in %d slices (%zu models, batch %d)\n", batches, n_slices,
              ms.size(), kBatchSize);
  for (const Model& m : ms)
    std::printf("  %-9s %-5s batch_ms p50=%.3f p99=%.3f (n=%zu) slo=%.1f ms\n", m.cfg->name,
                m.cfg->large ? "large" : "small", m.batch_ms.pct(0.5), m.batch_ms.pct(0.99),
                m.batch_ms.count(), m.cfg->slo_ms);

  if (!a.trace) {
    rep.set("setup_s", median(setup_s));
    rep.set("peak_rss_mb",
            slice_quantile("peak_rss_mb", slices, [](const Window& w) { return w.peak_rss_mb; },
                           kRssSliceQuantile));
    // One thread of CPU-bound work on a host that switched between two
    // speeds about 1.5x apart, for seconds to minutes at a time. The median
    // of such a mixture jumps with the share of the run spent in each
    // state, so each batch kind (model x seeded batch) is summarised by its
    // midsummary over the run: the midpoint of its kMidsummaryQuantile and
    // 1 - kMidsummaryQuantile latencies, which a run spent wholly in one
    // state moves by at most half the gap.
    const auto mid = [](const Samples& s) {
      return 0.5 * (s.pct(kMidsummaryQuantile) + s.pct(1 - kMidsummaryQuantile));
    };
    double mid_ms_sum = 0, mid_cpu_ms_sum = 0, log_sum = 0;
    int kinds = 0;
    long long instances = 0;
    for (const Model& m : ms)
      for (std::size_t d = 0; d < m.dss.size(); ++d) {
        const double kind_ms = mid(m.kind_ms[d]);
        mid_ms_sum += kind_ms;
        mid_cpu_ms_sum += mid(m.kind_cpu_ms[d]);
        log_sum += std::log(kind_ms);
        instances += static_cast<long long>(m.dss[d].inputs.size());
        ++kinds;
      }
    std::printf("  one pass over %d batch kinds at each kind's midsummary (p%g/p%g): %.3f ms "
                "wall, %.3f ms CPU\n",
                kinds, kMidsummaryQuantile * 100, (1 - kMidsummaryQuantile) * 100, mid_ms_sum,
                mid_cpu_ms_sum);
    rep.set("ops_per_s", static_cast<double>(instances) / (mid_ms_sum * 1e-3));
    rep.set("cpu_ms_per_op", mid_cpu_ms_sum / static_cast<double>(instances));
    // The kinds' latency bands do not overlap, so a pooled median would
    // fall in the gap between two of them; the typical batch is their
    // geometric mean.
    rep.set("latency_p50_ms", std::exp(log_sum / kinds));
    // A slice's p99 rests on about two batches; the tails take the median
    // over slices.
    const auto med = [&](const char* name, auto f) {
      rep.set(name, slice_quantile(name, slices, f));
    };
    med("latency_p99_ms", [](const Window& w) { return w.batch_ms.pct(0.99); });
    med("itl_p99_ms", [](const Window& w) { return w.gap_ms.pct(0.99); });
    long long met = 0, timed = 0;
    for (const Window& w : slices) {
      met += w.slo_met;
      timed += w.instances;
    }
    rep.set("slo_attainment", static_cast<double>(met) / static_cast<double>(timed));
    rep.set("slo_rps", rep.metrics["ops_per_s"] * rep.metrics["slo_attainment"]);
    // One-shot ops: each instance's single output is its first token.
    rep.set("tokens_per_s", rep.metrics["ops_per_s"]);
    rep.set("ttft_p50_ms", rep.metrics["latency_p50_ms"]);
    rep.set("ttft_p99_ms", rep.metrics["latency_p99_ms"]);
    return true;
  }
  const Window& w = slices.front();

  // Per-layer metrics come from the traced half; per-model medians come
  // from the untraced half, and the tracing overhead compares the two.
  const double n = static_cast<double>(tw.instances);
  const ActivityStats& s = tw.stats;
  const double buckets_ms = s.dfg_construction.ms() + s.scheduling.ms() + s.gather_copy.ms() +
                            s.kernel_exec.ms() + s.launch_overhead.ms();
  set_engine_layers(rep, s, n);
  rep.set("engine.unattributed_ms", (tw.call_ms_total - buckets_ms) / n);
  rep.set("runtime.triggers_per_op", static_cast<double>(tw.triggers) / n);
  if (tw.trace_dropped > 0)
    std::printf("  warning: tracer ring dropped %lld events; triggers undercounted\n",
                tw.trace_dropped);
  for (std::size_t i = 0; i < ms.size(); ++i)
    rep.set(std::string("models.") + kBatchModels[i].key + ".batch_ms_p50",
            ms[i].batch_ms.pct(0.5));
  rep.set("setup.prepare_s", median(prepare_s));
  const double untraced_per_batch = w.call_ms_total / static_cast<double>(w.batches);
  const double traced_per_batch = tw.call_ms_total / static_cast<double>(tw.batches);
  rep.set("trace.overhead_pct", (traced_per_batch / untraced_per_batch - 1.0) * 100.0);
  return true;
}

}  // namespace perfbench
