// decode_open and decode_mp: streamed Decoder sessions over loopback TCP.
//
// decode_open drives a 1-shard in-process NetServer with an open-loop
// Poisson ladder; decode_mp keeps K requests outstanding against a 2-worker
// multi-process NetServer. Every response is checked bitwise against a solo
// run_acrobat of its input.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "acrobat/net/net.h"
#include "acrobat/serve/load.h"
#include "acrobat/serve/server.h"
#include "config.h"
#include "wire_gen.h"

namespace perfbench {

namespace {

using namespace acrobat;

net::NetOptions decode_options(std::uint64_t ds_seed) {
  net::NetOptions o;
  o.port = 0;
  o.launch_overhead_ns = kLaunchNs;
  o.model = kDecodeModel;
  o.large = false;
  o.ds_batch = kDecodeInputs;
  o.ds_seed = ds_seed;
  o.admission_capacity = kAdmissionCapacity;
  return o;
}

// A started server with its client connections, built by one set-up pass.
struct Served {
  std::unique_ptr<net::NetServer> srv;
  std::unique_ptr<WireGen> gen;
  double start_s = 0;  // start() until the first warm-up response
};

// Set-up pass: construct, start, connect, and warm up until the first
// response (then finish the warm-up outside the timed part). Warm-up
// responses are checked like every other response.
bool start_served(const harness::Prepared* p, const models::Dataset* ds,
                  const net::NetOptions& o, const std::vector<std::vector<float>>& refs,
                  Served& out, Counts& counts) {
  const std::int64_t t0 = wall_ns();
  out.srv = std::make_unique<net::NetServer>(p, ds, o);
  if (!out.srv->start()) {
    std::fprintf(stderr, "perfbench: NetServer start failed: %s\n", out.srv->error().c_str());
    return false;
  }
  out.gen = std::make_unique<WireGen>(refs);
  if (!out.gen->connect(out.srv->port(), kDecodeConns)) {
    std::fprintf(stderr, "perfbench: cannot connect to port %d\n", out.srv->port());
    return false;
  }
  // The first warm-up request alone marks the end of set-up; the rest of
  // the warm-up is paced at one request per 200 µs.
  const PhaseStats first = out.gen->run_open(wall_ns(), {serve::Request{}});
  out.start_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  std::vector<serve::Request> warm(kWarmupRequests);
  for (int i = 0; i < kWarmupRequests; ++i) {
    warm[static_cast<std::size_t>(i)].id = i;
    warm[static_cast<std::size_t>(i)].input_index = static_cast<std::size_t>(i % kDecodeInputs);
    warm[static_cast<std::size_t>(i)].arrival_ns = i * 200'000;
  }
  const PhaseStats rest = out.gen->run_open(wall_ns(), warm);
  add_counts(counts, first.counts);
  add_counts(counts, rest.counts);
  return true;
}

// Seeded open-loop trace: Poisson arrivals at `rate` for `seconds`, inputs
// uniform over the dataset.
std::vector<serve::Request> poisson_trace(std::uint64_t seed, double rate, double seconds) {
  serve::LoadSpec spec;
  spec.kind = serve::ArrivalKind::kPoisson;
  spec.rate_rps = rate;
  spec.num_requests = static_cast<int>(std::llround(rate * seconds));
  spec.seed = seed;
  return serve::generate_load(spec, kDecodeInputs);
}

// The trace starts 2 ms from now, so the first request is not already late.
PhaseStats run_open_soon(WireGen& gen, const std::vector<serve::Request>& trace) {
  return gen.run_open(wall_ns() + 2'000'000, trace);
}

void log_phase(const char* what, const PhaseStats& ps) {
  std::printf(" %s: %.0f req/s, %.0f tok/s, span %.2f s, attainment %.4f\n", what,
              static_cast<double>(ps.counts.succeeded) / ps.span_s,
              static_cast<double>(ps.tokens) / ps.span_s, ps.span_s,
              ps.counts.attempted > 0
                  ? static_cast<double>(ps.slo_met) / static_cast<double>(ps.counts.attempted)
                  : 0.0);
  log_counts("requests", ps.counts);
  log_pct("latency ms", ps.latency_ms, 0.5);
  log_pct("latency ms", ps.latency_ms, 0.99);
  log_pct("ttft ms", ps.ttft_ms, 0.5);
  log_pct("ttft ms", ps.ttft_ms, 0.99);
  std::printf("  %-28s p99    = %10.4f  (n=%zu, 1 us resolution)\n", "inter-token gap ms",
              ps.gap_ms.pct(0.99), ps.gap_ms.count());
  log_pct("generator lag ms", ps.lag_ms, 0.99);
}

// Pools the slices' request counts.
Counts pooled_counts(const std::vector<PhaseStats>& slices) {
  Counts c;
  for (const PhaseStats& ps : slices) add_counts(c, ps.counts);
  return c;
}

double attainment(const PhaseStats& ps) {
  return static_cast<double>(ps.slo_met) / static_cast<double>(ps.counts.attempted);
}

// The end-to-end metrics a decode workload reports from its measured
// slices (ok_share is set from the whole run's counts in main).
void set_decode_e2e(Report& rep, const std::vector<PhaseStats>& slices, double setup_s,
                    double peak_rss_mb) {
  log_counts("requests", pooled_counts(slices));
  rep.set("setup_s", setup_s);
  rep.set("peak_rss_mb", peak_rss_mb);
  const auto med = [&](const char* name, auto f) {
    rep.set(name, slice_quantile(name, slices, f));
  };
  med("cpu_ms_per_op", [](const PhaseStats& ps) {
    return ps.server_cpu_ms() / static_cast<double>(ps.counts.succeeded);
  });
  med("ops_per_s",
      [](const PhaseStats& ps) { return static_cast<double>(ps.counts.succeeded) / ps.span_s; });
  med("latency_p50_ms", [](const PhaseStats& ps) { return ps.latency_ms.pct(0.5); });
  med("latency_p99_ms", [](const PhaseStats& ps) { return ps.latency_ms.pct(0.99); });
  med("tokens_per_s",
      [](const PhaseStats& ps) { return static_cast<double>(ps.tokens) / ps.span_s; });
  med("ttft_p50_ms", [](const PhaseStats& ps) { return ps.ttft_ms.pct(0.5); });
  med("ttft_p99_ms", [](const PhaseStats& ps) { return ps.ttft_ms.pct(0.99); });
  med("itl_p99_ms", [](const PhaseStats& ps) { return ps.gap_ms.pct(0.99); });
  med("slo_attainment", attainment);
}

double workers_peak_rss_mb(const net::NetServer& srv) {
  double mb = 0;
  for (const pid_t pid : srv.worker_pids()) mb += pid_peak_rss_mb(pid);
  return mb;
}

// Server CPU over an idle second after warm-up, as a percentage of one core.
double idle_cpu_pct(const std::vector<pid_t>& workers) {
  std::int64_t w0 = 0, w1 = 0;
  for (const pid_t pid : workers) w0 += pid_cpu_ns(pid);
  const std::int64_t c0 = process_cpu_ns(), t0 = thread_cpu_ns(), s0 = wall_ns();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const std::int64_t c1 = process_cpu_ns(), t1 = thread_cpu_ns(), s1 = wall_ns();
  for (const pid_t pid : workers) w1 += pid_cpu_ns(pid);
  const double cpu = static_cast<double>((c1 - c0) - (t1 - t0) + (w1 - w0));
  return 100.0 * cpu / static_cast<double>(s1 - s0);
}

void set_net_layers(Report& rep, const net::NetStats& st) {
  rep.set("net.rejected_429", static_cast<double>(st.rejected_429));
  rep.set("net.admission_peak", static_cast<double>(st.admission_peak));
  rep.set("net.write_buf_peak", static_cast<double>(st.write_buf_peak));
  rep.set("net.worker_deaths", static_cast<double>(st.worker_deaths));
  rep.set("net.worker_respawns", static_cast<double>(st.worker_respawns));
}

void set_gap_layers(Report& rep, const PhaseStats& ps) {
  rep.set("net.burst_share",
          ps.gap_ms.count() > 0
              ? static_cast<double>(ps.gap_ms.under_us(10)) / static_cast<double>(ps.gap_ms.count())
              : 0.0);
  rep.set("gen.lag_p99_ms", ps.lag_ms.pct(0.99));
}

// slo_rps on one round of the ladder: the load (completions per second) at
// which attainment falls to the target share, interpolated linearly between
// the last rung that meets it and the next one, with zero load counting as
// full attainment; the top rung's load when every rung meets the target.
// The ladder stops at half the knee, so on a quiet host every rung meets
// the target and this reads the top rung's offered load: a regression
// signal, not the server's capacity.
double slo_load(const std::vector<const PhaseStats*>& round) {
  double x0 = 0, a0 = 1;
  for (const PhaseStats* ps : round) {
    const double x1 = static_cast<double>(ps->counts.succeeded) / ps->span_s;
    const double a1 = attainment(*ps);
    if (a1 < kSloTargetShare) return x0 + (x1 - x0) * (a0 - kSloTargetShare) / (a0 - a1);
    x0 = x1;
    a0 = a1;
  }
  return x0;
}

// Engine metrics and serve-layer waits from an in-process serve() replay of
// a wire schedule (NetServer exposes no activity timing).
void replay_layers(const harness::Prepared& p, const models::Dataset& ds,
                   const std::vector<serve::Request>& trace, double wire_ttft_p50_ms,
                   Report& rep) {
  serve::ServeOptions so;
  so.launch_overhead_ns = kLaunchNs;
  so.time_activities = true;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);
  Samples ttft, wait, service;
  for (const serve::RequestRecord& r : res.records) {
    if (r.first_token_ns >= 0) ttft.add(r.ttft_ms());
    wait.add(static_cast<double>(r.admit_ns - r.arrival_ns) * 1e-6);
    service.add(static_cast<double>(r.completion_ns - r.admit_ns) * 1e-6);
  }
  set_engine_layers(rep, res.shards.at(0).stats, static_cast<double>(res.records.size()));
  rep.set("serve.queue_wait_ms_p50", wait.pct(0.5));
  rep.set("serve.queue_wait_ms_p99", wait.pct(0.99));
  rep.set("serve.service_ms_p50", service.pct(0.5));
  rep.set("net.ingress_ttft_ms", wire_ttft_p50_ms - ttft.pct(0.5));
  std::printf(" in-proc replay of the traced rung: %zu requests\n", res.records.size());
  log_pct("in-proc ttft ms", ttft, 0.5);
  log_pct("in-proc queue wait ms", wait, 0.99);
}

}  // namespace

bool run_decode_open(const Args& a, Report& rep) {
  const models::ModelSpec& spec = models::model_by_name(kDecodeModel);
  const std::uint64_t ds_seed = derive_seed(a.seed, 100);

  // Set-up, repeated: prepare + dataset + start() until the first response.
  harness::Prepared prep;
  models::Dataset ds;
  std::vector<std::vector<float>> refs;
  std::vector<double> setup_s, prepare_s, start_s;
  Served sv;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    sv = Served{};  // previous server drains and stops here
    const std::int64_t t0 = wall_ns();
    prep = harness::prepare(spec, false, passes::PipelineConfig{});
    ds = spec.build_dataset(false, kDecodeInputs, ds_seed);
    const double t_prep = static_cast<double>(wall_ns() - t0) * 1e-9;
    if (refs.empty()) refs = solo_references(prep, ds);  // excluded from set-up time
    if (!start_served(&prep, &ds, decode_options(ds_seed), refs, sv, rep.counts)) return false;
    prepare_s.push_back(t_prep);
    start_s.push_back(sv.start_s);
    setup_s.push_back(t_prep + sv.start_s);
  }

  log_setup(setup_s);
  if (!pin_threads()) return false;

  if (!a.trace) {
    // Each round runs every rung once, in ladder order, so host drift is
    // spread over all rungs.
    const double round_s = a.seconds / kOpenRounds;
    const double other_s = round_s * (1 - kReferenceShare) / (kLadderRps.size() - 1);
    // Each round's memory peak is kept too (kRssSliceQuantile).
    std::vector<std::vector<PhaseStats>> rungs(kLadderRps.size());
    std::vector<double> round_rss_mb;
    for (int round = 0; round < kOpenRounds; ++round) {
      reset_peak_rss();
      for (std::size_t r = 0; r < kLadderRps.size(); ++r) {
        const std::uint64_t seed = derive_seed(a.seed, 200 + r * kOpenRounds + round);
        const double slice_s = r == kReferenceRung ? round_s * kReferenceShare : other_s;
        rungs[r].push_back(run_open_soon(*sv.gen, poisson_trace(seed, kLadderRps[r], slice_s)));
        add_counts(rep.counts, rungs[r].back().counts);
      }
      round_rss_mb.push_back(self_peak_rss_mb());
    }
    sv.srv->shutdown();
    for (std::size_t r = 0; r < kLadderRps.size(); ++r) {
      if (r == kReferenceRung) continue;
      std::printf(" rung %.0f/s:\n", kLadderRps[r]);
      log_counts("requests", pooled_counts(rungs[r]));
      slice_quantile("slo_attainment", rungs[r], attainment);
    }
    std::printf(" reference rung %.0f/s:\n", kLadderRps[kReferenceRung]);
    set_decode_e2e(rep, rungs[kReferenceRung], median(setup_s),
                   slice_quantile("peak_rss_mb", round_rss_mb, kRssSliceQuantile));
    std::vector<double> loads;
    for (int round = 0; round < kOpenRounds; ++round) {
      std::vector<const PhaseStats*> ladder;
      for (const std::vector<PhaseStats>& rung : rungs)
        ladder.push_back(&rung[static_cast<std::size_t>(round)]);
      loads.push_back(slo_load(ladder));
    }
    rep.set("slo_rps", slice_quantile("slo_rps", loads));
    return true;
  }

  // Traced run: the reference rung untraced, then on a traced server, then
  // an in-process serve() replay of the traced schedule.
  const double rung_s = a.seconds / 3;
  const double rate = kLadderRps[kReferenceRung];
  const double idle_pct = idle_cpu_pct({});
  const PhaseStats plain =
      run_open_soon(*sv.gen, poisson_trace(derive_seed(a.seed, 300), rate, rung_s));
  log_phase("untraced reference rung", plain);
  sv.srv->shutdown();
  add_counts(rep.counts, plain.counts);

  net::NetOptions to = decode_options(ds_seed);
  to.trace.enabled = true;
  Served tsv;
  if (!start_served(&prep, &ds, to, refs, tsv, rep.counts) || !pin_threads()) return false;
  const std::vector<serve::Request> trace = poisson_trace(derive_seed(a.seed, 301), rate, rung_s);
  const PhaseStats traced = run_open_soon(*tsv.gen, trace);
  log_phase("traced reference rung", traced);
  tsv.srv->shutdown();
  add_counts(rep.counts, traced.counts);

  const net::NetStats& st = tsv.srv->stats();
  set_net_layers(rep, st);
  set_gap_layers(rep, traced);
  set_shard_layers(rep, st.shards, static_cast<double>(traced.counts.succeeded));
  rep.set("net.idle_cpu_pct", idle_pct);
  unpin_self();  // the replay's threads share both CPUs
  replay_layers(prep, ds, trace, traced.ttft_ms.pct(0.5), rep);
  rep.set("setup.prepare_s", median(prepare_s));
  rep.set("setup.start_s", median(start_s));
  rep.set("trace.overhead_pct",
          (traced.latency_ms.pct(0.5) / plain.latency_ms.pct(0.5) - 1.0) * 100.0);
  return true;
}

bool run_decode_mp(const Args& a, Report& rep) {
  const models::ModelSpec& spec = models::model_by_name(kDecodeModel);
  const std::uint64_t ds_seed = derive_seed(a.seed, 100);
  // Workers rebuild model and dataset from the recipe; the references come
  // from the same recipe built here (outside set-up time).
  const harness::Prepared prep = harness::prepare(spec, false, passes::PipelineConfig{});
  const models::Dataset ds = spec.build_dataset(false, kDecodeInputs, ds_seed);
  const std::vector<std::vector<float>> refs = solo_references(prep, ds);

  net::NetOptions o = decode_options(ds_seed);
  o.multiprocess = true;
  o.shards = kMpShards;

  std::vector<double> setup_s;
  Served sv;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    sv = Served{};
    if (!start_served(nullptr, nullptr, o, refs, sv, rep.counts)) return false;
    setup_s.push_back(sv.start_s);
  }

  log_setup(setup_s);

  // Closed-loop inputs: a seeded uniform draw over the dataset per slice.
  const auto slice_inputs = [&](int slice) {
    serve::LoadSpec spec;
    spec.num_requests = 4096;
    spec.seed = derive_seed(a.seed, 400 + static_cast<std::uint64_t>(slice));
    std::vector<std::uint32_t> inputs;
    for (const serve::Request& r : serve::generate_load(spec, kDecodeInputs))
      inputs.push_back(static_cast<std::uint32_t>(r.input_index));
    return inputs;
  };
  const auto run_slice = [&](Served& s, int slice, double seconds) {
    const auto worker_cpu = [&] {
      std::int64_t ns = 0;
      for (const pid_t pid : s.srv->worker_pids()) ns += pid_cpu_ns(pid);
      return ns;
    };
    const std::vector<std::uint32_t> inputs = slice_inputs(slice);
    const std::int64_t w0 = worker_cpu();
    PhaseStats ps = s.gen->run_closed(kMpOutstanding, seconds, inputs);
    ps.worker_cpu_ms = static_cast<double>(worker_cpu() - w0) * 1e-6;
    add_counts(rep.counts, ps.counts);
    return ps;
  };

  const double idle_pct = a.trace ? idle_cpu_pct(sv.srv->worker_pids()) : 0.0;
  if (!a.trace) {
    std::vector<PhaseStats> slices;
    for (int i = 0; i < kSlices; ++i) slices.push_back(run_slice(sv, i, a.seconds / kSlices));
    const double rss_mb = self_peak_rss_mb() + workers_peak_rss_mb(*sv.srv);
    sv.srv->shutdown();
    std::printf(" closed loop, %d outstanding:\n", kMpOutstanding);
    set_decode_e2e(rep, slices, median(setup_s), rss_mb);
    rep.set("slo_rps", slice_quantile("slo_rps", slices, [](const PhaseStats& ps) {
              return static_cast<double>(ps.slo_met) / ps.span_s;
            }));
    return true;
  }

  const double window_s = a.seconds / 2;
  const PhaseStats ps = run_slice(sv, 0, window_s);
  log_phase("closed loop", ps);

  // Traced half: the router's tracer on (workers run untraced).
  sv.srv->shutdown();
  net::NetOptions to = o;
  to.trace.enabled = true;
  Served tsv;
  if (!start_served(nullptr, nullptr, to, refs, tsv, rep.counts)) return false;
  const PhaseStats tps = run_slice(tsv, 1, window_s);
  log_phase("traced closed loop", tps);
  const double wrss = workers_peak_rss_mb(*tsv.srv);
  tsv.srv->shutdown();
  set_net_layers(rep, tsv.srv->stats());
  set_gap_layers(rep, tps);
  rep.set("net.idle_cpu_pct", idle_pct);
  rep.set("net.worker_rss_mb", wrss);
  rep.set("setup.start_s", median(setup_s));
  const double plain_rate = static_cast<double>(ps.counts.succeeded) / ps.span_s;
  const double traced_rate = static_cast<double>(tps.counts.succeeded) / tps.span_s;
  rep.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0);
  return true;
}

}  // namespace perfbench
