// acrobat/fleet implementation (DESIGN.md §8): merged multi-model modules,
// the SLO triage policy, and the open-loop / closed-loop drivers. Shards
// run the serve layer's one shard loop (src/shard_core.h) over the merged
// program; the drivers are its trace-replay adapter plus the per-class
// goodput report.
#include "fleet/fleet.h"

#include <memory>

#include "shard_core.h"

namespace acrobat::fleet {
namespace {

using serve::AdmitDecision;
using serve::LatencyClass;
using serve::PolicyCtx;
using serve::Request;
using serve::RequestRecord;
using serve::RequestView;
using serve::Triage;
using serve::Verdict;
using serve::detail::config_die;

int class_idx(LatencyClass c) { return static_cast<int>(c); }

// ------------------------------------------------------------- fleet policy

class FleetPolicy final : public serve::BatchPolicy {
 public:
  explicit FleetPolicy(const FleetPolicyConfig& cfg)
      : cfg_(cfg), base_(serve::make_policy(cfg.base)) {}

  AdmitDecision decide(const PolicyCtx& ctx) override { return base_->decide(ctx); }

  Triage triage(const RequestView& v) override {
    Triage t;
    // A decode step's clock is its inter-token gap, not the session's
    // arrival: the deadline restarts at every token, so EDF keeps working
    // mid-stream and a stalled session is cancelled, not ignored.
    if (v.is_step) {
      const std::int64_t td = cfg_.token_deadline_ns;
      if (td <= 0 || v.last_token_ns < 0) return t;
      t.deadline_ns = v.last_token_ns + td;
      const std::int64_t blown_at = t.deadline_ns - cfg_.est_service_ns;
      if (v.now_ns <= blown_at) return t;
      const auto grace =
          static_cast<std::int64_t>(cfg_.shed_grace * static_cast<double>(td));
      t.verdict =
          cfg_.shed && v.now_ns - blown_at >= grace ? Verdict::kShed : Verdict::kDefer;
      return t;
    }
    const std::int64_t d = class_deadline_ns(cfg_, v.latency_class);
    if (d <= 0) return t;  // no SLO: admit, sorted after every deadline class
    t.deadline_ns = v.arrival_ns + d;
    // A request is blown once it can no longer *finish* inside the SLO:
    // the latest useful admission point is deadline - est_service.
    const std::int64_t blown_at = t.deadline_ns - cfg_.est_service_ns;
    if (v.now_ns <= blown_at) return t;  // still viable: EDF admission
    // Blown: deprioritize within the grace window, shed beyond it —
    // running it anyway only pushes *other* requests past their SLO.
    const auto grace = static_cast<std::int64_t>(cfg_.shed_grace * static_cast<double>(d));
    t.verdict = cfg_.shed && v.now_ns - blown_at >= grace ? Verdict::kShed : Verdict::kDefer;
    return t;
  }

  const char* name() const override { return "fleet"; }

 private:
  FleetPolicyConfig cfg_;
  std::unique_ptr<serve::BatchPolicy> base_;
};

// Per-class goodput on top of the shared summary: latency per class over
// completed requests, and deadline attainment over all of them (sheds
// count as misses; a class without a deadline counts completion itself).
FleetResult finalize_result(const std::vector<Request>& trace, const FleetPolicyConfig& pc,
                            serve::detail::ReplayOut out) {
  FleetResult res;
  res.records = std::move(out.records);
  res.shards = std::move(out.shards);
  res.trace = std::move(out.trace);
  serve::detail::summarize(res);

  std::array<serve::LatencyHisto, serve::kNumLatencyClasses> class_lat;
  std::array<int, serve::kNumLatencyClasses> met{};
  int met_total = 0;
  for (const RequestRecord& r : res.records) {
    const Request& rq = trace[static_cast<std::size_t>(r.id)];
    const auto ci = static_cast<std::size_t>(class_idx(rq.latency_class));
    ClassReport& cr = res.by_class[ci];
    ++cr.requests;
    if (r.shed) {
      ++cr.shed;
      ++res.shed;
      continue;
    }
    class_lat[ci].add(r.latency_ms());
    const std::int64_t d = class_deadline_ns(pc, rq.latency_class);
    if (d <= 0 || r.completion_ns - r.arrival_ns <= d) {
      ++met[ci];
      ++met_total;
    }
  }
  for (std::size_t c = 0; c < serve::kNumLatencyClasses; ++c) {
    ClassReport& cr = res.by_class[c];
    cr.latency_ms = serve::Percentiles::from(class_lat[c]);
    cr.goodput = cr.requests > 0 ? static_cast<double>(met[c]) / cr.requests : 1.0;
  }
  res.goodput = res.records.empty()
                    ? 1.0
                    : static_cast<double>(met_total) / static_cast<double>(res.records.size());
  return res;
}

FleetResult run(const ModelRegistry& reg, const std::vector<Request>& trace,
                const FleetOptions& opts, const serve::detail::ClosedLoopClients* closed) {
  serve::detail::ReplaySpec spec;
  spec.shards = opts.shards;
  spec.dispatch = opts.dispatch;
  spec.affinity = opts.class_affinity;
  serve::detail::CoreConfig& cc = spec.core;
  cc.compiled = &reg.compiled();
  cc.weights = &reg.weights();
  cc.pipeline = reg.cfg();
  for (const FleetModel& fm : reg.models())
    cc.models.push_back(serve::detail::CoreModel{&fm.dataset, fm.entry.get()});
  cc.multiplex = opts.multiplex;
  cc.launch_overhead_ns = opts.launch_overhead_ns;
  cc.time_activities = opts.time_activities;
  cc.recycle = opts.recycle;
  cc.sched_memo = opts.sched_memo;
  cc.collect_outputs = opts.collect_outputs;
  // Slow-request exemplars default to the request's own class deadline
  // ("what did the worst SLO-missing request do"), and mid-stream to the
  // token deadline.
  for (int c = 0; c < serve::kNumLatencyClasses; ++c)
    cc.slow_ns[static_cast<std::size_t>(c)] =
        opts.trace.slow_threshold_ns > 0
            ? opts.trace.slow_threshold_ns
            : class_deadline_ns(opts.policy, static_cast<LatencyClass>(c));
  cc.step_slow_ns = opts.trace.slow_threshold_ns > 0 ? opts.trace.slow_threshold_ns
                                                     : opts.policy.token_deadline_ns;
  spec.make_policy = [&opts] { return make_fleet_policy(opts.policy); };
  spec.trace = opts.trace;
  spec.shed_gauge = true;
  spec.closed = closed;
  return finalize_result(trace, opts.policy, serve::detail::replay(spec, trace));
}

}  // namespace

// ----------------------------------------------------------------- registry

int ModelRegistry::add(const models::ModelSpec& spec, bool large, models::Dataset ds) {
  if (prepared_) config_die("ModelRegistry::add after prepare()");
  if (ds.inputs.empty()) config_die("ModelRegistry::add with an empty dataset");
  const std::size_t w0 = decls_.size();
  models::BuildCtx bctx{compiled_.program, compiled_.module.registry, cfg_, large, decls_};
  const int entry_idx = spec.build(bctx);

  FleetModel fm;
  fm.name = spec.name;
  fm.large = large;
  fm.dataset = std::move(ds);
  fm.entry = compiled_.program.funcs[static_cast<std::size_t>(entry_idx)];
  fm.entry_index = entry_idx;
  fm.weight_begin = w0;
  fm.weight_end = decls_.size();
  // This model's weights, under its own solo seed: bitwise-identical to a
  // solo harness::prepare, which is what the parity tests cross-check.
  const std::vector<models::WeightDecl> slice(decls_.begin() + static_cast<std::ptrdiff_t>(w0),
                                              decls_.end());
  harness::materialize_weights(spec.name, large, slice, weights_);
  models_.push_back(std::move(fm));
  return static_cast<int>(models_.size()) - 1;
}

void ModelRegistry::prepare() {
  if (prepared_) config_die("ModelRegistry::prepare called twice");
  if (models_.empty()) config_die("ModelRegistry::prepare with no models");
  // finalize propagates may_sync over the whole merged program; the nominal
  // main it designates is unused — shards enter through per-model entries.
  ir::finalize(compiled_.program, models_.front().entry_index);
  harness::apply_default_schedules(compiled_.module.registry);
  prepared_ = true;
}

std::vector<serve::ModelMix> ModelRegistry::uniform_mix() const {
  std::vector<serve::ModelMix> mix;
  mix.reserve(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m)
    mix.push_back(serve::ModelMix{static_cast<int>(m), 1.0, models_[m].dataset.inputs.size(),
                                  1.0, 0.0});
  return mix;
}

// ------------------------------------------------------------------ policy

std::int64_t class_deadline_ns(const FleetPolicyConfig& cfg, LatencyClass c) {
  return cfg.deadline_ns[static_cast<std::size_t>(class_idx(c))];
}

std::unique_ptr<serve::BatchPolicy> make_fleet_policy(const FleetPolicyConfig& cfg) {
  return std::make_unique<FleetPolicy>(cfg);
}

// ---------------------------------------------------------------- validation

void validate(const FleetOptions& opts) {
  if (opts.shards <= 0) config_die("FleetOptions.shards must be > 0");
  if (opts.launch_overhead_ns < 0)
    config_die("FleetOptions.launch_overhead_ns must be >= 0");
  if (opts.policy.shed_grace < 0) config_die("FleetPolicyConfig.shed_grace must be >= 0");
  if (opts.policy.est_service_ns < 0)
    config_die("FleetPolicyConfig.est_service_ns must be >= 0");
  for (const auto& aff : opts.class_affinity)
    for (const int s : aff)
      if (s < 0 || s >= opts.shards)
        config_die("FleetOptions.class_affinity names a shard out of range");
}

void validate(const ClosedLoopSpec& spec) {
  if (spec.clients <= 0) config_die("ClosedLoopSpec.clients must be > 0");
  if (spec.per_client <= 0) config_die("ClosedLoopSpec.per_client must be > 0");
  if (spec.think_mean_ms < 0) config_die("ClosedLoopSpec.think_mean_ms must be >= 0");
}

// ----------------------------------------------------------------- open loop

FleetResult serve_fleet(const ModelRegistry& reg, const std::vector<Request>& trace,
                        const FleetOptions& opts) {
  if (!reg.prepared()) config_die("serve_fleet before ModelRegistry::prepare()");
  validate(opts);
  return run(reg, trace, opts, nullptr);
}

// --------------------------------------------------------------- closed loop

std::vector<Request> generate_closed_load(const ClosedLoopSpec& spec,
                                          const std::vector<serve::ModelMix>& mix) {
  validate(spec);
  if (mix.empty()) config_die("generate_closed_load: empty model mix");
  // Reuse the open-loop generator for the per-request content draws (model,
  // input, class come from the same seeded stream contract), then strip the
  // arrival process: issue times exist only once the serve loop runs.
  serve::LoadSpec ls;
  ls.kind = serve::ArrivalKind::kPoisson;
  ls.rate_rps = 1.0;  // arrival times discarded below
  ls.num_requests = spec.clients * spec.per_client;
  ls.seed = spec.seed ^ 0xc105edull;
  std::vector<Request> trace = serve::generate_load(ls, mix);
  for (Request& r : trace) r.arrival_ns = 0;
  return trace;
}

FleetResult serve_fleet_closed(const ModelRegistry& reg, const ClosedLoopSpec& spec,
                               const std::vector<serve::ModelMix>& mix,
                               const FleetOptions& opts) {
  if (!reg.prepared()) config_die("serve_fleet_closed before ModelRegistry::prepare()");
  validate(opts);
  validate(spec);
  const serve::detail::ClosedLoopClients clients{spec.clients, spec.per_client,
                                                 spec.think_mean_ms, spec.seed};
  return run(reg, generate_closed_load(spec, mix), opts, &clients);
}

}  // namespace acrobat::fleet
