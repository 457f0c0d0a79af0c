// Cross-transport differential harness: every transport drives the same
// shard loop (src/shard_core.h), so none of them may change what a request
// computes. One seeded t0 cohort of Decoder sessions runs through
//   (1) serve()                       trace replay, single model
//   (2) serve_fleet()                 trace replay, one-model registry
//   (3) an in-proc NetServer          loopback TCP, shard threads
//   (4) a 2-worker NetServer          loopback TCP, forked --shard-worker
// and every leg must return bitwise-identical outputs and identical
// per-request token counts. The cohort policy (min_batch == max_admit ==
// cohort width) fixes batch composition by construction, so the hermetic
// engine counters (kernel launches, triggers) must also agree between
// serve() and the in-proc NetServer, which host the same single engine.
//
// ACROBAT_TEST_SEED overrides the seed that draws the cohort's inputs.
// Socket legs SKIP (loudly) when the sandbox cannot bind, as in test_net.
#include <cstdio>
#include <cstring>
#include <vector>

#include "fleet/fleet.h"
#include "models/specs.h"
#include "net/client.h"
#include "net/net.h"
#include "serve/server.h"
#include "support/rng.h"
#include "test_util.h"

using namespace acrobat;

namespace {

constexpr int kCohort = 8;
constexpr int kDatasetBatch = 12;
constexpr std::uint64_t kDatasetSeed = 31;

// Holds each trigger until the whole cohort is live. The hold is bounded
// by slo_ns after the oldest arrival, long enough for a loopback burst to
// land and short enough that a server whose input stays open (the net
// legs) does not idle through the decode tail.
serve::PolicyConfig cohort_policy(int width) {
  serve::PolicyConfig pc;
  pc.kind = serve::PolicyKind::kDeadline;
  pc.min_batch = static_cast<std::size_t>(width);
  pc.max_admit = static_cast<std::size_t>(width);
  pc.slo_ns = 50'000'000;
  pc.max_hold_ns = 50'000'000;
  return pc;
}

struct Leg {
  explicit Leg(const char* n) : name(n) {}
  const char* name;
  bool ran = false;
  std::vector<std::vector<float>> outputs;
  std::vector<int> tokens;
};

// Sends the cohort over one connection (streamed) and collects it.
bool run_wire(net::NetServer& srv, const std::vector<serve::Request>& trace, Leg& leg) {
  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  for (const serve::Request& r : trace)
    CHECK(cli.send_request(static_cast<std::uint32_t>(r.id),
                           static_cast<std::uint32_t>(r.input_index)));
  bool ok = true;
  for (const serve::Request& r : trace) {
    net::ClientResponse got;
    CHECK(cli.wait(static_cast<std::uint32_t>(r.id), got));
    if (got.kind != net::ClientResponse::Kind::kDone) {
      CHECK(got.kind == net::ClientResponse::Kind::kDone);
      ok = false;
      continue;
    }
    CHECK(!got.cancelled);
    // Every token crossed the wire as its own frame.
    CHECK_EQ(got.token_recv_ns.size(), static_cast<std::size_t>(got.tokens));
    leg.outputs.push_back(std::move(got.output));
    leg.tokens.push_back(static_cast<int>(got.tokens));
  }
  cli.close();
  srv.shutdown();
  leg.ran = ok;
  return ok;
}

void test_cross_transport() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, kDatasetBatch, kDatasetSeed);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  // The t0 cohort: every request arrives at once, inputs drawn by seed.
  Rng rng(acrobat::test::seed(0xc0407ull));
  std::vector<serve::Request> trace;
  for (int i = 0; i < kCohort; ++i) {
    serve::Request r;
    r.id = i;
    r.input_index = static_cast<std::size_t>(rng.uniform_int(static_cast<int>(ds.inputs.size())));
    trace.push_back(r);
  }

  // (1) serve(): the reference.
  serve::ServeOptions so;
  so.collect_outputs = true;
  so.policy = cohort_policy(kCohort);
  const serve::ServeResult ref = serve::serve(p, ds, trace, so);
  Leg serve_leg("serve");
  serve_leg.ran = true;
  for (const serve::RequestRecord& rec : ref.records) {
    CHECK(!rec.cancelled);
    serve_leg.outputs.push_back(rec.output);
    serve_leg.tokens.push_back(rec.tokens);
  }
  CHECK(ref.tokens > 0);  // the cohort really decoded

  // (2) serve_fleet() on a one-model registry. No class or token deadline:
  // triage admits everything, FIFO, exactly as serve() does.
  fleet::ModelRegistry reg;
  reg.add(spec, false, spec.build_dataset(false, kDatasetBatch, kDatasetSeed));
  reg.prepare();
  fleet::FleetOptions fo;
  fo.collect_outputs = true;
  fo.policy.base = cohort_policy(kCohort);
  fo.policy.deadline_ns = {0, 0, 0};
  const fleet::FleetResult fres = fleet::serve_fleet(reg, trace, fo);
  CHECK_EQ(fres.shed, 0);
  Leg fleet_leg("serve_fleet");
  fleet_leg.ran = true;
  for (const serve::RequestRecord& rec : fres.records) {
    fleet_leg.outputs.push_back(rec.output);
    fleet_leg.tokens.push_back(rec.tokens);
  }

  // (3) In-proc NetServer: one shard thread, the same single engine.
  Leg inproc_leg("net in-proc");
  net::NetOptions io;
  io.policy = cohort_policy(kCohort);
  io.ds_batch = kDatasetBatch;
  io.ds_seed = kDatasetSeed;
  net::NetServer inproc(&p, &ds, io);
  if (inproc.start()) {
    if (run_wire(inproc, trace, inproc_leg)) {
      const net::NetStats& st = inproc.stats();
      CHECK_EQ(st.shards.size(), 1u);
      CHECK_EQ(st.shards.at(0).stats.kernel_launches, ref.shards.at(0).stats.kernel_launches);
      CHECK_EQ(st.shards.at(0).triggers, ref.shards.at(0).triggers);
      CHECK_EQ(st.shards.at(0).tokens, ref.tokens);
    }
  } else {
    std::printf("SKIP net in-proc: %s\n", inproc.error().c_str());
  }

  // (4) Two forked workers rebuild model and dataset from the recipe; the
  // router splits the cohort between them, so each holds for half of it.
  Leg mp_leg("net 2-worker");
  net::NetOptions mo;
  mo.multiprocess = true;
  mo.shards = 2;
  mo.policy = cohort_policy(kCohort / 2);
  mo.ds_batch = kDatasetBatch;
  mo.ds_seed = kDatasetSeed;
  net::NetServer mp(nullptr, nullptr, mo);
  if (mp.start()) {
    CHECK_EQ(mp.worker_pids().size(), 2u);
    if (run_wire(mp, trace, mp_leg)) CHECK_EQ(mp.stats().worker_deaths, 0u);
  } else {
    std::printf("SKIP net 2-worker: %s\n", mp.error().c_str());
  }

  for (const Leg* leg : {&fleet_leg, &inproc_leg, &mp_leg}) {
    if (!leg->ran) continue;
    CHECK_EQ(leg->outputs.size(), serve_leg.outputs.size());
    if (leg->outputs.size() != serve_leg.outputs.size()) continue;
    int mismatches = 0;
    for (std::size_t i = 0; i < serve_leg.outputs.size(); ++i) {
      CHECK_EQ(leg->tokens[i], serve_leg.tokens[i]);
      const std::vector<float>& a = serve_leg.outputs[i];
      const std::vector<float>& b = leg->outputs[i];
      // Bitwise, not approximate.
      if (a.size() != b.size() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
        ++mismatches;
    }
    if (mismatches > 0) std::printf("  %s: %d output(s) differ from serve()\n", leg->name, mismatches);
    CHECK_EQ(mismatches, 0);
  }
  std::printf("cross-transport: %d sessions, %lld tokens, %lld launches, %lld triggers | "
              "fleet %s, in-proc %s, 2-worker %s\n",
              kCohort, ref.tokens, ref.total_launches(), ref.shards.at(0).triggers,
              fleet_leg.ran ? "ok" : "-", inproc_leg.ran ? "ok" : "skipped",
              mp_leg.ran ? "ok" : "skipped");
}

}  // namespace

int main(int argc, char** argv) {
  // Worker host: the multi-process leg re-execs this binary.
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return net::shard_worker_main(argc, argv);
  test_cross_transport();
  return acrobat::test::finish("test_cross_transport");
}
