#include "shard_core.h"

#include <sched.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <thread>

#include "exec/aot.h"
#include "runtime/fiber.h"
#include "support/timer.h"

namespace acrobat::serve::detail {

void config_die(const char* what) {
  std::fprintf(stderr, "acrobat: invalid configuration: %s\n", what);
  std::abort();
}

void relax() { sched_yield(); }

CoreConfig single_model_core(const harness::Prepared& p, const models::Dataset& ds) {
  CoreConfig cc;
  cc.compiled = &p.compiled;
  cc.weights = &p.weights;
  cc.pipeline = p.cfg;
  cc.models = {CoreModel{&ds, p.compiled.program.main.get()}};
  return cc;
}

namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

int class_idx(LatencyClass c) { return static_cast<int>(c); }

// One engine plus its executor. Multiplexed, a single slot hosts every
// model; otherwise there is one slot per model.
struct EngineSlot {
  std::unique_ptr<Engine> eng;
  std::unique_ptr<aot::AotExecutor> exec;
  std::vector<std::vector<TRef>> drefs;  // per model id (empty if not hosted)
};

// Core-owned state of one admitted request, indexed by its tag: the fiber
// tag and engine instance id, recycled once the session is pruned (after
// its fiber is reaped). Tags are not slot ids because the session outlives
// its slot: a completed session stays in the live pool until it reaches the
// pool's front, and by then the net adapters may have handed the slot to a
// new request. Recycling keeps the table at peak concurrency, not trace
// length.
struct Sess {
  int slot = -1;
  int engine = 0;
  std::int64_t arrival_ns = 0;
  bool done = false;
  bool decoding = false;  // past its first token (counted in live_decode)
  // Parked and queued for re-admission: the step hook's consult after
  // unpark reads this to tell re-admission from a fresh token boundary.
  bool awaiting = false;
};

// One entry of an admission round: a parked decode step (id = tag) or a
// queued arrival (id = slot), with its triage outcome.
struct Cand {
  int id;
  bool step;
  bool defer;
  std::int64_t key;  // deadline
  int seq;           // arrival into the round: FIFO among equal keys
};

}  // namespace

void run_shard_core(const CoreConfig& cfg, CoreIo& io, ShardReport& report) {
  BatchPolicy& policy = *cfg.policy;
  const std::size_t n_models = cfg.models.size();
  const bool shared_engine = cfg.multiplex || n_models == 1;

  // Engine slots (DESIGN.md §8). Shared, every model runs in one engine:
  // one trigger cadence, one node table, one recycling arena, every
  // model's weights, datasets and constants in one persistent region.
  std::vector<EngineSlot> engines(shared_engine ? 1 : n_models);
  for (std::size_t e = 0; e < engines.size(); ++e) {
    EngineSlot& es = engines[e];
    EngineConfig ec = harness::engine_config_for(cfg.pipeline, cfg.launch_overhead_ns,
                                                 cfg.time_activities);
    ec.recycle = cfg.recycle;
    ec.sched_memo = cfg.sched_memo;
    es.eng = std::make_unique<Engine>(cfg.compiled->module.registry, ec);
    // A merged weight table is global (kLoadWeight indices span models),
    // so every engine wraps all of it; concrete nodes are cheap views.
    std::vector<TRef> wrefs;
    wrefs.reserve(cfg.weights->tensors.size());
    for (const Tensor& t : cfg.weights->tensors) wrefs.push_back(es.eng->add_concrete(t.view()));
    es.drefs.resize(n_models);
    for (std::size_t m = 0; m < n_models; ++m) {
      if (!shared_engine && m != e) continue;
      std::vector<TRef>& dr = es.drefs[m];
      dr.reserve(cfg.models[m].ds->tensors.size());
      for (const Tensor& t : cfg.models[m].ds->tensors)
        dr.push_back(es.eng->add_concrete(t.view()));
    }
    es.exec = std::make_unique<aot::AotExecutor>(cfg.compiled->program, *es.eng,
                                                 std::move(wrefs));
  }
  const auto engine_of = [&](int model_id) { return shared_engine ? 0 : model_id; };

  std::vector<Sess> sess;
  std::vector<int> free_tags;  // tags of pruned sessions
  std::deque<int> queue;       // slot ids: arrived, not yet admitted
  std::deque<int> in_flight;   // tags: admitted, not yet pruned (admission order)
  // Iteration-level scheduling (DESIGN.md §7): a generative session parks
  // its fiber at every token boundary (Engine::session_step) and rejoins
  // admission here, so each trigger batches decode steps across sessions
  // old and new.
  std::deque<int> step_queue;  // tags: parked sessions wanting their next token
  std::vector<Cand> cands;     // admit() scratch, reused across rounds
  // Decode-aware split (policy.h AdmitDecision::max_step_admit): how many
  // of in_flight are past their first token, and how many parked steps
  // this trigger window may still unpark. The budget is reset once per
  // window — in the admission hook — not per admit() call, or the main loop
  // would drain every parked step between triggers and chunked
  // re-admission would be a no-op.
  std::size_t live_decode = 0;
  std::size_t step_budget = kUnlimited;

  FiberScheduler fs;
  trace::Tracer* const tr = cfg.tracer;
  for (EngineSlot& es : engines) {
    es.eng->set_fiber_scheduler(&fs);
    es.eng->set_tracer(tr);  // one ring per shard: the shard is single-threaded
  }
  fs.set_tracer(tr);
  // Reap = retire: a finished request's node span goes onto the free list
  // and dead arena epochs return to the page pool, which keeps steady-state
  // memory flat (§7 Recycling).
  fs.set_reap_hook([&](int tag) {
    engines[static_cast<std::size_t>(sess[static_cast<std::size_t>(tag)].engine)]
        .eng->retire_request(tag);
  });

  // Gauges (DESIGN.md §9): registered up front, so ticking adds no
  // steady-state allocation.
  MetricStream* const ms = cfg.metrics;
  trace::MetricsRegistry mreg;
  int m_live = -1, m_queued = -1, m_done = -1, m_shed = -1, m_launches = -1,
      m_hits = -1, m_live_nodes = -1, m_arena_kb = -1;
  if (tr != nullptr && ms != nullptr) {
    m_live = mreg.add("live_requests");
    m_queued = mreg.add("queued_requests");
    m_done = mreg.add("completed_requests");
    if (ms->shed_gauge) m_shed = mreg.add("shed_requests");
    m_launches = mreg.add("kernel_launches");
    m_hits = mreg.add("memo_hit_permille");
    m_live_nodes = mreg.add("live_nodes");
    m_arena_kb = mreg.add("arena_kb");
    ms->names = mreg.names();
  }
  long long last_tick_trigger = 0;
  [[maybe_unused]] const auto maybe_tick = [&](std::int64_t t_now) {
    if (ms == nullptr ||
        fs.idle_triggers() - last_tick_trigger < static_cast<long long>(ms->every_triggers))
      return;
    last_tick_trigger = fs.idle_triggers();
    long long launches = 0, hits = 0, misses = 0;
    std::size_t live_nodes = 0, arena = 0;
    for (const EngineSlot& es : engines) {
      launches += es.eng->stats().kernel_launches;
      hits += es.eng->stats().sched_cache_hits;
      misses += es.eng->stats().sched_cache_misses;
      live_nodes += es.eng->live_nodes();
      arena += es.eng->memory().arena_active_bytes;
    }
    mreg.set(m_live, static_cast<double>(in_flight.size()));
    mreg.set(m_queued, static_cast<double>(queue.size()));
    mreg.set(m_done, static_cast<double>(report.requests));
    mreg.set(m_shed, static_cast<double>(report.shed));
    mreg.set(m_launches, static_cast<double>(launches));
    mreg.set(m_hits, hits + misses > 0 ? 1000.0 * static_cast<double>(hits) /
                                             static_cast<double>(hits + misses)
                                       : 0.0);
    mreg.set(m_live_nodes, static_cast<double>(live_nodes));
    mreg.set(m_arena_kb, static_cast<double>(arena) / 1024.0);
    if (!ms->ticks.push(mreg.tick(t_now, cfg.shard_index))) ++ms->dropped;
  };

  const auto now = [&] { return now_ns() - cfg.epoch_ns; };
  [[maybe_unused]] const auto class_of = [&](int slot) { return class_idx(io.request(slot).latency_class); };

  const auto prune = [&] {
    while (!in_flight.empty() && sess[static_cast<std::size_t>(in_flight.front())].done) {
      const int tag = in_flight.front();
      if (sess[static_cast<std::size_t>(tag)].decoding) --live_decode;
      free_tags.push_back(tag);
      in_flight.pop_front();
    }
  };

  const auto make_ctx = [&] {
    PolicyCtx c;
    c.now_ns = now();
    c.queued = queue.size();
    // Parked sessions stay `live`: they hold session state (the per-session
    // buffer, an SLO clock mid-stream), so a width-capped policy bounds
    // concurrent *sessions*, which is what makes session memory plateau at
    // peak concurrency instead of growing with the trace.
    c.live = in_flight.size();
    c.live_decode = live_decode;
    c.queued_steps = step_queue.size();
    // "Oldest" is a min over arrivals, not front(): after EDF triage the
    // queue is deadline-ordered and in_flight is in admission order. Under
    // FIFO admission both are in arrival order and the min is the front.
    const auto oldest = [](std::int64_t& o, std::int64_t a) {
      if (o < 0 || a < o) o = a;
    };
    for (const int slot : queue) oldest(c.oldest_queued_arrival_ns, io.record(slot).arrival_ns);
    for (const int tag : in_flight)
      oldest(c.oldest_live_arrival_ns, sess[static_cast<std::size_t>(tag)].arrival_ns);
    c.inbox_open = io.input_open();
    return c;
  };

  // The request's fiber: record its ops, suspend until triggers materialize
  // its outputs, then complete the ledger and hand the slot back.
  const auto run_request = [&](int tag, int slot) {
    const Request& rq = io.request(slot);
    const CoreModel& model = cfg.models[static_cast<std::size_t>(rq.model_id)];
    EngineSlot& es = engines[static_cast<std::size_t>(engine_of(rq.model_id))];
    InstCtx ctx;
    ctx.instance = tag;
    const Value in = models::remap_trefs(model.ds->inputs[rq.input_index],
                                         es.drefs[static_cast<std::size_t>(rq.model_id)]);
    const Value out = es.exec->run_entry(*model.entry, std::span<const Value>(&in, 1), ctx);
    std::vector<TRef> outs;
    harness::collect_output_trefs(out, outs);
    std::vector<float> flat;
    for (const TRef ref : outs) {
      const Tensor t = es.eng->force(ref);  // suspends until a trigger lands
      if (cfg.collect_outputs) flat.insert(flat.end(), t.data, t.data + t.numel());
    }
    RequestRecord& r = io.record(slot);
    r.completion_ns = now();
    ACROBAT_TRACE(tr, {
      const std::int64_t slow_ns = cfg.slow_ns[static_cast<std::size_t>(class_of(slot))];
      const std::int64_t lat = r.completion_ns - r.arrival_ns;
      if (slow_ns > 0 && lat >= slow_ns)
        tr->capture_exemplar(slot, r.admit_ns, r.completion_ns, lat);
    });
    if (cfg.collect_outputs) r.output = std::move(flat);
    sess[static_cast<std::size_t>(tag)].done = true;
    ++report.requests;
    io.emit_done(slot);
  };

  const auto spawn = [&](int slot) {
    const Request& rq = io.request(slot);
    RequestRecord& rec = io.record(slot);
    rec.shard = cfg.shard_index;
    rec.admit_ns = now();
    int tag = static_cast<int>(sess.size());
    if (free_tags.empty()) {
      sess.emplace_back();
    } else {
      tag = free_tags.back();
      free_tags.pop_back();
    }
    Sess& s = sess[static_cast<std::size_t>(tag)];
    s = Sess{};
    s.slot = slot;
    s.engine = engine_of(rq.model_id);
    s.arrival_ns = rec.arrival_ns;
    in_flight.push_back(tag);
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kAdmit, slot, rq.model_id,
                                  rec.admit_ns - rec.arrival_ns));
    // Pins this epoch's arena pages until retirement.
    engines[static_cast<std::size_t>(s.engine)].eng->begin_request(tag);
    fs.spawn([&run_request, tag, slot] { run_request(tag, slot); }, tag);
  };

  // Dropped without running: its deadline is already blown.
  const auto shed = [&](int slot) {
    RequestRecord& rec = io.record(slot);
    rec.shard = cfg.shard_index;
    rec.admit_ns = now();
    rec.completion_ns = rec.admit_ns;
    rec.shed = true;
    ++report.shed;
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kShed, slot, class_of(slot),
                                  rec.completion_ns - rec.arrival_ns));
    io.emit_done(slot);
  };

  // Mid-stream cancel of a parked session (token deadline blown past grace,
  // or cancelled by the transport). It is not shed: it already ran and holds
  // valid output. Its fiber is unparked with `cancelled` set, so the step
  // hook's next consult returns kStop and it exits through the model's tail.
  const auto cancel = [&](int tag) {
    const int slot = sess[static_cast<std::size_t>(tag)].slot;
    RequestRecord& rec = io.record(slot);
    rec.cancelled = true;
    ++report.cancelled;
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kShed, slot, class_of(slot), rec.tokens));
    const bool ok = fs.unpark(tag);
    assert(ok && "cancelled step must correspond to a parked fiber");
    (void)ok;
  };

  // Admission round (DESIGN.md §8): triage every parked decode step
  // (cancelling hopeless sessions) and every queued arrival (shedding the
  // ones the policy gave up on), order the survivors earliest-deadline-
  // first with deferred (blown-but-in-grace) entries after everything that
  // can still make its SLO, then admit. Under the base policies' default
  // triage every key ties, so this is FIFO with steps ahead of arrivals.
  const auto admit = [&](std::size_t max_admit) {
    if (!queue.empty() || !step_queue.empty()) {
      const std::int64_t t = now();
      cands.clear();
      const auto consider = [&](int id, bool step, const Triage& tg) {
        if (tg.verdict == Verdict::kDefer)
          ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kTriage,
                                        step ? sess[static_cast<std::size_t>(id)].slot : id,
                                        step ? class_of(sess[static_cast<std::size_t>(id)].slot)
                                             : class_of(id)));
        cands.push_back(Cand{id, step, tg.verdict == Verdict::kDefer, tg.deadline_ns,
                             static_cast<int>(cands.size())});
      };
      for (const int tag : step_queue) {
        const int slot = sess[static_cast<std::size_t>(tag)].slot;
        if (io.cancelled && io.cancelled(slot)) {
          cancel(tag);
          continue;
        }
        const RequestRecord& rec = io.record(slot);
        RequestView v;
        v.now_ns = t;
        v.arrival_ns = rec.arrival_ns;
        v.latency_class = io.request(slot).latency_class;
        v.is_step = true;
        v.last_token_ns = rec.last_token_ns;
        v.tokens = rec.tokens;
        const Triage tg = policy.triage(v);
        if (tg.verdict == Verdict::kShed) {
          cancel(tag);
          continue;
        }
        consider(tag, true, tg);
      }
      step_queue.clear();
      for (const int slot : queue) {
        RequestView v;
        v.now_ns = t;
        v.arrival_ns = io.record(slot).arrival_ns;
        v.latency_class = io.request(slot).latency_class;
        const Triage tg = policy.triage(v);
        if (tg.verdict == Verdict::kShed) {
          shed(slot);
          continue;
        }
        consider(slot, false, tg);
      }
      queue.clear();
      std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        if (a.defer != b.defer) return !a.defer;
        if (a.key != b.key) return a.key < b.key;
        return a.seq < b.seq;
      });
      // One EDF pass over steps and arrivals together: the *order* is shared
      // (a step with a tight token deadline resumes before a later-deadline
      // arrival spawns, so its ops record first), but only arrivals consume
      // the width budget. A step's session is already in the live pool, and
      // gating steps on the session budget would livelock a width-capped
      // pool of parked sessions (budget 0, nothing to unpark them). The
      // per-window step budget meters steps instead; excess steps return to
      // step_queue in EDF order and are re-triaged next window.
      std::size_t admitted = 0;
      for (const Cand& c : cands) {
        if (c.step) {
          if (step_budget == 0) {
            step_queue.push_back(c.id);
            continue;
          }
          if (step_budget != kUnlimited) --step_budget;
          const bool ok = fs.unpark(c.id);
          assert(ok && "queued step must correspond to a parked fiber");
          (void)ok;
          ACROBAT_TRACE(tr, {
            const int slot = sess[static_cast<std::size_t>(c.id)].slot;
            tr->instant(trace::EventKind::kAdmit, slot, io.request(slot).model_id,
                        io.record(slot).tokens);
          });
        } else if (admitted < max_admit) {
          spawn(c.id);
          ++admitted;
        } else {
          queue.push_back(c.id);  // keeps EDF order
        }
      }
    }
    report.max_live = std::max(report.max_live, in_flight.size());
  };

  // Trigger-boundary admission (DESIGN.md §7): whatever arrived while the
  // live pool was recording is admitted and records its ops *before* the
  // pending set is scheduled, so one trigger batches old and new requests
  // (across models, with a shared engine).
  const auto admission_hook = [&] {
    io.poll_input(queue);
    const AdmitDecision d = policy.decide(make_ctx());
    step_budget = d.max_step_admit;  // new trigger window
    // Degraded mode (DESIGN.md §11): overload upstream, so this window
    // favors prefill of already-admitted requests over token streaming.
    // Floor 1 keeps the anti-stall guarantee of the main loop.
    if (io.degraded && io.degraded())
      step_budget = step_budget == kUnlimited ? 1 : std::max<std::size_t>(1, step_budget / 2);
    admit(d.max_admit);
    fs.step_ready();  // new fibers record until they suspend
  };

  // Token-boundary hook (iteration-level scheduling): the engine consults
  // this from inside a generative fiber at every kStepKeep. The first
  // consult per token stamps the token, queues the session for
  // re-admission, and parks; the consult after unpark decides run vs stop.
  const auto step_hook = [&](int tag) -> Engine::StepVerdict {
    Sess& s = sess[static_cast<std::size_t>(tag)];
    RequestRecord& r = io.record(s.slot);
    if (s.awaiting) {
      s.awaiting = false;
      return r.cancelled ? Engine::StepVerdict::kStop : Engine::StepVerdict::kRun;
    }
    const std::int64_t t = now();
    if (!r.cancelled && io.cancelled && io.cancelled(s.slot)) {
      r.cancelled = true;
      ++report.cancelled;
    }
    ++r.tokens;
    ++report.tokens;
    if (r.first_token_ns < 0) {
      r.first_token_ns = t;
      s.decoding = true;
      ++live_decode;
      report.ttft_ms.add(static_cast<double>(t - r.arrival_ns) * 1e-6);
    } else {
      const std::int64_t gap = t - r.last_token_ns;
      report.inter_token_ms.add(static_cast<double>(gap) * 1e-6);
      // Mid-stream exemplars fire on an inter-token breach (DESIGN.md §9),
      // so a stall surfaces while the session is still running.
      ACROBAT_TRACE(tr, {
        if (cfg.step_slow_ns > 0 && gap >= cfg.step_slow_ns)
          tr->capture_exemplar(s.slot, r.last_token_ns, t, gap);
      });
    }
    r.last_token_ns = t;
    if (r.cancelled) return Engine::StepVerdict::kStop;
    if (io.emit_token) io.emit_token(s.slot, static_cast<std::uint32_t>(r.tokens));
    s.awaiting = true;
    step_queue.push_back(tag);
    return Engine::StepVerdict::kPark;
  };

  for (EngineSlot& es : engines) {
    es.eng->set_admission_hook(admission_hook);
    es.eng->set_step_hook(step_hook);
  }

  for (;;) {
    io.poll_input(queue);
    fs.reap_done();
    prune();
    ACROBAT_TRACE(tr, maybe_tick(now()));
    if (in_flight.empty() && queue.empty()) {
      if (!io.input_open()) break;
      io.idle_wait();
      continue;
    }
    const AdmitDecision d = policy.decide(make_ctx());
    admit(d.max_admit);
    if (fs.step_ready() > 0) continue;
    if (fs.any_blocked()) {
      if (d.hold_until_ns > now() && io.input_open()) {
        io.idle_wait();  // batch-forming pause; re-decide next iteration
        continue;
      }
      // One cadence, every engine: a fiber blocked on an engine that had
      // nothing pending just re-suspends.
      for (EngineSlot& es : engines) es.eng->trigger_execution();
      fs.wake_blocked();
    } else if (!step_queue.empty()) {
      // Every live session is parked and the window's step budget is spent:
      // no trigger is coming to reset it, so open a minimal window by hand.
      // Guarantees progress for any decode_admit >= 1.
      step_budget = std::max<std::size_t>(step_budget, 1);
    }
  }

  for (EngineSlot& es : engines) {
    es.eng->set_step_hook(nullptr);
    es.eng->set_admission_hook(nullptr);
    es.eng->set_fiber_scheduler(nullptr);
  }
  report.triggers = fs.idle_triggers();
  report.stacks_allocated = fs.stacks_allocated();
  for (const EngineSlot& es : engines) {
    report.stats.merge(es.eng->stats());
    report.mem.merge(es.eng->memory());
  }
}

// -------------------------------------------------------------- trace replay

namespace {

struct ReplayShard {
  explicit ReplayShard(std::size_t capacity) : inbox(capacity), outbox(capacity) {}
  SpscQueue<int> inbox;   // dispatcher → shard (request ids)
  SpscQueue<int> outbox;  // shard → dispatcher (completed/shed ids; the
                          // closed-loop client's completion signal)
  std::atomic<int> outstanding{0};  // dispatched - completed (least-loaded reads)
  ShardReport report;
  // Observability (DESIGN.md §9): exist only when tracing is enabled; both
  // are preallocated before the shard starts and written only by it.
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<MetricStream> metrics;
};

using Shards = std::vector<std::unique_ptr<ReplayShard>>;

// Class affinity first (empty = every shard), then round-robin or
// least-loaded within the eligible set (ties → lowest index).
int route(const Request& req, const ReplaySpec& spec, const Shards& shards) {
  const std::vector<int>& aff =
      spec.affinity[static_cast<std::size_t>(class_idx(req.latency_class))];
  const auto nth_eligible = [&](std::size_t i) {
    return aff.empty() ? static_cast<int>(i) : aff[i];
  };
  const std::size_t n = aff.empty() ? shards.size() : aff.size();
  if (spec.dispatch == DispatchKind::kRoundRobin)
    return nth_eligible(static_cast<std::size_t>(req.id) % n);
  int target = nth_eligible(0);
  int best_load = INT_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    const int s = nth_eligible(i);
    const int load =
        shards[static_cast<std::size_t>(s)]->outstanding.load(std::memory_order_relaxed);
    if (load < best_load) {
      best_load = load;
      target = s;
    }
  }
  return target;
}

// Validated loudly (config_die, not assert): a hand-built trace that
// bypasses generate_load must fail identically in Release, where an assert
// would let bad ids index records out of bounds.
void check_trace(const std::vector<Request>& trace, const std::vector<CoreModel>& models,
                 bool sorted_arrivals) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    if (r.id != static_cast<int>(i))
      config_die("trace ids must be 0..N-1 in order (generate_load's contract)");
    if (sorted_arrivals && i > 0 && r.arrival_ns < trace[i - 1].arrival_ns)
      config_die("trace must be sorted by arrival_ns");
    if (r.model_id < 0 || static_cast<std::size_t>(r.model_id) >= models.size())
      config_die("trace names a model_id the server does not host");
    if (r.input_index >= models[static_cast<std::size_t>(r.model_id)].ds->inputs.size())
      config_die("trace input_index outside the model's dataset");
  }
}

}  // namespace

ReplayOut replay(const ReplaySpec& spec, const std::vector<Request>& trace) {
  const ClosedLoopClients* const closed = spec.closed;
  check_trace(trace, spec.core.models, /*sorted_arrivals=*/closed == nullptr);
  ReplayOut out;
  std::vector<RequestRecord>& records = out.records;
  records.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    records[i].id = trace[i].id;
    // Closed-loop arrivals are stamped at issue time instead.
    if (closed == nullptr) records[i].arrival_ns = trace[i].arrival_ns;
  }

  const std::int64_t epoch = now_ns();
  Shards shards;
  shards.reserve(static_cast<std::size_t>(spec.shards));
  for (int s = 0; s < spec.shards; ++s) {
    auto sh = std::make_unique<ReplayShard>(trace.size());
    if (spec.trace.enabled) {
      sh->tracer = std::make_unique<trace::Tracer>(s, spec.trace.config);
      sh->tracer->set_epoch(epoch);
      sh->metrics = std::make_unique<MetricStream>();
      sh->metrics->every_triggers = static_cast<std::size_t>(spec.trace.tick_every_triggers);
      sh->metrics->shed_gauge = spec.shed_gauge;
    }
    shards.push_back(std::move(sh));
  }
  // The dispatcher thread owns its own ring (single-writer discipline: it
  // must never write a shard's ring).
  std::unique_ptr<trace::Tracer> disp_tracer;
  if (spec.trace.enabled) {
    disp_tracer = std::make_unique<trace::Tracer>(0, spec.trace.config);
    disp_tracer->set_epoch(epoch);
  }
  [[maybe_unused]] trace::Tracer* const dtr = disp_tracer.get();
  const auto drain_ticks = [&] {
    if (!spec.trace.enabled) return;
    trace::MetricsTick t;
    for (auto& sh : shards)
      while (sh->metrics->ticks.pop(t)) out.trace.ticks.push_back(t);
  };

  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  for (int s = 0; s < spec.shards; ++s) {
    workers.emplace_back([&, s] {
      ReplayShard& sh = *shards[static_cast<std::size_t>(s)];
      const std::unique_ptr<BatchPolicy> policy = spec.make_policy();
      CoreConfig cc = spec.core;
      cc.shard_index = s;
      cc.epoch_ns = epoch;
      cc.policy = policy.get();
      cc.tracer = sh.tracer.get();
      cc.metrics = sh.metrics.get();
      CoreIo io;
      io.request = [&trace](int id) -> const Request& {
        return trace[static_cast<std::size_t>(id)];
      };
      io.record = [&records](int id) -> RequestRecord& {
        return records[static_cast<std::size_t>(id)];
      };
      io.poll_input = [&sh](std::deque<int>& q) {
        int id;
        while (sh.inbox.pop(id)) q.push_back(id);
      };
      io.input_open = [&sh] { return !sh.inbox.closed() || !sh.inbox.empty_hint(); };
      io.idle_wait = relax;  // open-loop clock: poll for the next arrival
      io.emit_done = [&sh](int id) {
        sh.outstanding.fetch_sub(1, std::memory_order_relaxed);
        const bool pushed = sh.outbox.push(id);
        assert(pushed && "outbox sized for the whole trace");
        (void)pushed;
      };
      run_shard_core(cc, io, sh.report);
    });
  }

  const auto dispatch = [&](int id) {
    const int target = route(trace[static_cast<std::size_t>(id)], spec, shards);
    ReplayShard& sh = *shards[static_cast<std::size_t>(target)];
    sh.outstanding.fetch_add(1, std::memory_order_relaxed);
    const bool pushed = sh.inbox.push(id);
    assert(pushed && "inbox sized for the whole trace");
    (void)pushed;
    ACROBAT_TRACE(dtr, dtr->instant(trace::EventKind::kDispatch, id, target));
  };
  const auto now_rel = [&] { return now_ns() - epoch; };

  if (closed == nullptr) {
    // Open loop: replay the trace in real time, yielding while waiting so
    // shard workers get the core between arrivals.
    for (const Request& req : trace) {
      while (now_rel() < req.arrival_ns) {
        drain_ticks();
        relax();
      }
      dispatch(req.id);
    }
  } else {
    // K logical clients: issue → wait for completion (via the shard
    // outboxes) → think → issue the next. Offered load adapts to service
    // rate, so the queue can never build beyond K outstanding requests.
    const auto nc = static_cast<std::size_t>(closed->clients);
    const int total = closed->clients * closed->per_client;
    std::vector<int> next_k(nc, 0);
    std::vector<bool> waiting(nc, false);
    std::vector<std::int64_t> ready_at(nc, 0);
    std::vector<Rng> think_rng;
    think_rng.reserve(nc);
    for (std::size_t c = 0; c < nc; ++c)
      think_rng.emplace_back(closed->seed ^ (0x7417c9ull + 0x9e3779b97f4a7c15ull *
                                                               static_cast<std::uint64_t>(c + 1)));
    int completed = 0;
    while (completed < total) {
      for (auto& sh : shards) {
        int id;
        while (sh->outbox.pop(id)) {
          ++completed;
          const auto c = static_cast<std::size_t>(id / closed->per_client);
          waiting[c] = false;
          std::int64_t think = 0;
          if (closed->think_mean_ms > 0)
            think = exp_gap_ns(think_rng[c], 1000.0 / closed->think_mean_ms);
          ready_at[c] = now_rel() + think;
        }
      }
      for (std::size_t c = 0; c < nc; ++c) {
        if (waiting[c] || next_k[c] >= closed->per_client || now_rel() < ready_at[c]) continue;
        const int id = static_cast<int>(c) * closed->per_client + next_k[c]++;
        records[static_cast<std::size_t>(id)].arrival_ns = now_rel();  // issue time
        waiting[c] = true;
        dispatch(id);
      }
      drain_ticks();
      relax();
    }
  }
  for (auto& sh : shards) sh->inbox.close();
  for (std::thread& w : workers) w.join();

  for (auto& sh : shards) out.shards.push_back(std::move(sh->report));
  if (spec.trace.enabled) {
    drain_ticks();
    out.trace.tracks.push_back(trace::dump_track(*disp_tracer, 0, "dispatcher"));
    for (std::size_t s = 0; s < shards.size(); ++s) {
      out.trace.tracks.push_back(trace::dump_track(
          *shards[s]->tracer, static_cast<int>(s) + 1, "shard" + std::to_string(s)));
      out.trace.dropped_ticks += shards[s]->metrics->dropped;
    }
    out.trace.metric_names = shards.front()->metrics->names;
  }
  return out;
}

}  // namespace acrobat::serve::detail
