// Internal to the serving stack: the one shard loop (DESIGN.md §7).
//
// A shard admits requests at trigger boundaries, runs their fibers until
// every one is blocked, fires one batched execution, and repeats.
// run_shard_core is that loop, and the only one. Every transport drives it
// through a CoreIo adapter:
//
//   adapter          requests arrive as         results leave as          idle_wait
//   trace replay     trace ids on an SPSC inbox  records + SPSC outbox     sched_yield
//   in-proc net      slot ids on an SPSC inbox   slot + CompMsg ring       sched_yield
//   worker process   kWorkerReq socket frames    slot + reply frames       poll(fd, 1 ms)
//
// Trace replay (replay() below) serves serve(), serve_fleet() and
// serve_fleet_closed(); NetServer runs the in-proc adapter on its shard
// threads (src/net.cpp); `--shard-worker` processes run the worker adapter
// against the router socket (src/net_worker.cpp). The core itself hosts one
// engine for every model of a (possibly merged) program, or one engine per
// model, and asks a BatchPolicy both how much to admit per trigger window
// and how to triage each queued request or parked decode step.
//
// Ownership: an engine, its arena and the fiber pool live and die on the
// calling thread (or process); the only cross-thread traffic is whatever
// the adapter's callables touch. Not installed; include from src/ only.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "serve/policy.h"
#include "serve/server.h"
#include "serve/spsc.h"
#include "trace/trace.h"

namespace acrobat::serve::detail {

// Loud config validation: fprintf + abort (not assert) so a nonsense sweep
// fails identically in Release and Debug, and the fork-based death tests
// cover it in either build type. Shared by serve/, fleet/ and net/.
[[noreturn]] void config_die(const char* what);

// Waiting sides (a dispatcher between arrivals, a shard with nothing
// runnable) yield the core on every poll: unlike the engine's spin_ns —
// which charges simulated device time and must burn the CPU — these waits
// are for *other threads'* progress, and on a small machine a pure spin
// would starve them for a whole preemption quantum.
void relax();

// Streamed gauge ticks (DESIGN.md §9). Preallocated before the shard
// starts; the tick queue is SPSC (shard → dispatcher).
struct MetricStream {
  SpscQueue<trace::MetricsTick> ticks{4096};
  std::size_t every_triggers = 1;
  bool shed_gauge = false;         // fleet: add a shed_requests gauge
  std::vector<std::string> names;  // shard-written before the first tick
  std::uint64_t dropped = 0;       // ticks lost to a full queue
};

// One model a shard hosts: its dataset and its entry in the program.
struct CoreModel {
  const models::Dataset* ds = nullptr;
  const ir::Func* entry = nullptr;
};

struct CoreConfig {
  // What runs: one compiled program (a fleet's merged one, or a single
  // model's) and its weight table; `models` is indexed by Request::model_id.
  const harness::Compiled* compiled = nullptr;
  const harness::Weights* weights = nullptr;
  passes::PipelineConfig pipeline;
  std::vector<CoreModel> models;
  // true: every model shares one engine (one trigger cadence, node table
  // and recycling arena). false: one engine per model, triggered together.
  bool multiplex = true;

  std::int64_t launch_overhead_ns = 0;
  bool time_activities = false;
  bool recycle = true;
  bool sched_memo = true;
  bool collect_outputs = true;  // flatten result tensors into the record

  int shard_index = 0;
  std::int64_t epoch_ns = 0;  // request timestamps are relative to this
  BatchPolicy* policy = nullptr;

  // Observability (DESIGN.md §9). Both may be null. Exemplars are captured
  // only with a tracer: a completion whose latency reaches its class's
  // slow_ns, and a decode step whose inter-token gap reaches step_slow_ns
  // (<= 0 = never).
  trace::Tracer* tracer = nullptr;
  MetricStream* metrics = nullptr;
  std::array<std::int64_t, kNumLatencyClasses> slow_ns{};
  std::int64_t step_slow_ns = 0;
};

// A CoreConfig hosting one prepared model over `ds`.
CoreConfig single_model_core(const harness::Prepared& p, const models::Dataset& ds);

// Transport adapter. Requests are named by adapter-chosen slot ids.
// poll_input appends newly arrived slot ids (and handles any transport
// control traffic: cancels, pings, drain); the adapter has filled the
// slot's request and its ledger's id and arrival_ns by then. From that
// point until emit_done the core owns the ledger; emit_done runs after it
// is fully written (completion, or shed) and the core never touches the
// slot again. input_open answers "can more arrivals still appear?".
// idle_wait yields or polls when there is nothing runnable.
struct CoreIo {
  std::function<const Request&(int)> request;
  std::function<RequestRecord&(int)> record;
  std::function<void(std::deque<int>&)> poll_input;
  std::function<bool()> input_open;
  std::function<void()> idle_wait;
  std::function<void(int slot)> emit_done;
  // May be null. Called at every decode token of a live session.
  std::function<void(int slot, std::uint32_t ordinal)> emit_token;
  // May be null. Transport-side cancel (a dropped connection): checked at
  // token boundaries and for parked sessions; a cancelled session exits
  // through the model's tail, so its output stays valid for its prefix.
  std::function<bool(int slot)> cancelled;
  // May be null = never degraded. While true, the core halves its
  // per-window decode step budget (floor 1) so prefill of already-admitted
  // work outranks token streaming.
  std::function<bool()> degraded;
};

// Runs the shard loop until input is closed and all work has drained.
void run_shard_core(const CoreConfig& cfg, CoreIo& io, ShardReport& report);

// ------------------------------------------------------------ trace replay

// Closed-loop client population (fleet/fleet.h ClosedLoopSpec): client c
// owns request ids [c*per_client, (c+1)*per_client) in issue order.
struct ClosedLoopClients {
  int clients = 0;
  int per_client = 0;
  double think_mean_ms = 0;
  std::uint64_t seed = 0;
};

struct ReplaySpec {
  int shards = 1;
  DispatchKind dispatch = DispatchKind::kRoundRobin;
  // Shard indices eligible per latency class; empty = every shard.
  std::array<std::vector<int>, kNumLatencyClasses> affinity;
  // Template for every shard; replay() fills shard_index, epoch_ns,
  // policy, tracer and metrics per shard.
  CoreConfig core;
  std::function<std::unique_ptr<BatchPolicy>()> make_policy;
  trace::TraceOptions trace;
  bool shed_gauge = false;
  const ClosedLoopClients* closed = nullptr;  // null = open loop
};

struct ReplayOut {
  std::vector<RequestRecord> records;  // indexed by request id
  std::vector<ShardReport> shards;
  trace::TraceDump trace;
};

// Plays `trace` against spec.shards shard threads. Open loop: a dispatcher
// replays arrivals in real time; arrivals never wait for the server.
// Closed loop: each client issues its next request only after the previous
// one completes plus an exponential think time; the issue time is the
// arrival. Either way requests are routed by class affinity, then round-
// robin or least-loaded (ties to the lowest index). The trace contract
// (ids 0..N-1 in order, sorted arrivals for the open loop, model ids and
// input indices inside spec.core.models) is checked loudly first.
ReplayOut replay(const ReplaySpec& spec, const std::vector<Request>& trace);

// Fills what ServeResult and FleetResult share from records and shard
// reports: the latency histogram over completed (non-shed) requests,
// makespan (first arrival to last completion), throughput, and the merged
// token split.
template <class Result>
void summarize(Result& res) {
  LatencyHisto lat, ttft, gap;
  int completed = 0;
  std::int64_t first_arrival = res.records.empty() ? 0 : res.records.front().arrival_ns;
  std::int64_t last_completion = 0;
  for (const RequestRecord& r : res.records) {
    assert(r.completion_ns >= 0 && "every request must complete or shed");
    first_arrival = std::min(first_arrival, r.arrival_ns);
    last_completion = std::max(last_completion, r.completion_ns);
    if (r.shed) continue;
    ++completed;
    lat.add(r.latency_ms());
  }
  res.latency_ms = Percentiles::from(lat);
  res.makespan_ms = static_cast<double>(last_completion - first_arrival) * 1e-6;
  if (res.makespan_ms > 0)
    res.throughput_rps = static_cast<double>(completed) / (res.makespan_ms * 1e-3);
  // Shard-local token histograms merge here (O(1) memory at any request
  // count), so TTFT and inter-token tails are reportable without stored
  // per-token samples.
  for (const ShardReport& s : res.shards) {
    ttft.merge(s.ttft_ms);
    gap.merge(s.inter_token_ms);
    res.tokens += s.tokens;
    res.cancelled += s.cancelled;
  }
  res.ttft_ms = Percentiles::from(ttft);
  res.inter_token_ms = Percentiles::from(gap);
  if (res.makespan_ms > 0)
    res.tokens_per_sec = static_cast<double>(res.tokens) / (res.makespan_ms * 1e-3);
}

}  // namespace acrobat::serve::detail
