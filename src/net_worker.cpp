// `--shard-worker` process loop (multi-process fleet, DESIGN.md §10). One
// worker = one shard = one engine, shared-nothing: the process rebuilds the
// prepared model and dataset from the recipe on its command line (both are
// deterministic functions of the recipe, which is what makes wire parity
// hold across the process boundary), then runs the serve layer's one shard
// loop (src/shard_core.h) with the router socketpair as its IO.
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>

#include "fault/fault.h"
#include "models/models.h"
#include "net/frame.h"
#include "net/net.h"
#include "net_slot.h"
#include "support/timer.h"

namespace acrobat::net {
namespace {

// Worker-side fault injector (DESIGN.md §11): one per process, installed
// from --fault before the loop starts. Inert (empty plan) by default.
fault::Injector g_inject;

struct WorkerArgs {
  int fd = -1;
  int shard = 0;
  std::string model = "Decoder";
  bool large = false;
  int ds_batch = 24;
  std::uint64_t ds_seed = 0;
  std::int64_t launch_ns = 0;
  bool recycle = true;
  bool sched_memo = true;
  std::string fault;
  serve::PolicyConfig policy;
};

bool parse_args(int argc, char** argv, WorkerArgs& a) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--fd") a.fd = std::atoi(v);
    else if (k == "--shard") a.shard = std::atoi(v);
    else if (k == "--model") a.model = v;
    else if (k == "--large") a.large = std::atoi(v) != 0;
    else if (k == "--ds-batch") a.ds_batch = std::atoi(v);
    else if (k == "--ds-seed") a.ds_seed = std::strtoull(v, nullptr, 10);
    else if (k == "--launch-ns") a.launch_ns = std::atoll(v);
    else if (k == "--recycle") a.recycle = std::atoi(v) != 0;
    else if (k == "--memo") a.sched_memo = std::atoi(v) != 0;
    else if (k == "--fault") a.fault = v;
    else if (k == "--pol-kind") a.policy.kind = static_cast<serve::PolicyKind>(std::atoi(v));
    else if (k == "--pol-max-batch") a.policy.max_batch = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-min-batch") a.policy.min_batch = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-max-admit") a.policy.max_admit = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-decode-admit") a.policy.decode_admit = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-slo-ns") a.policy.slo_ns = std::atoll(v);
    else if (k == "--pol-hold-ns") a.policy.max_hold_ns = std::atoll(v);
    else return false;
  }
  return a.fd >= 0;
}

bool write_all(int fd, const std::vector<std::uint8_t>& b) {
  std::size_t off = 0;
  while (off < b.size()) {
    std::size_t chunk = b.size() - off;
    // Injected short writes fragment frames without losing bytes: the loop
    // resumes at off + n, so FrameReader reassembly is what gets exercised.
    ACROBAT_FAULT(chunk = g_inject.clamp_write(chunk));
    const ssize_t n = ::send(fd, b.data() + off, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int shard_worker_main(int argc, char** argv) {
  WorkerArgs a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr, "acrobat net worker: bad arguments\n");
    return 2;
  }

  if (!a.fault.empty()) {
    fault::FaultPlan plan;
    std::string perr;
    if (!fault::parse_fault_spec(a.fault, plan, &perr)) {
      std::fprintf(stderr, "acrobat net worker: bad fault spec: %s\n", perr.c_str());
      return 2;
    }
    g_inject.reset(plan);
  }

  const models::ModelSpec& spec = models::model_by_name(a.model);
  const harness::Prepared prep =
      harness::prepare(spec, a.large, passes::PipelineConfig{});
  const models::Dataset ds = spec.build_dataset(a.large, a.ds_batch, a.ds_seed);

  // Slot table, keyed by the router's slot ids. A deque never relocates
  // elements on growth, which the atomics in Slot require; the router's
  // table is bounded (max_sessions), so this is too.
  std::deque<detail::Slot> slots;
  bool drain = false, eof = false, degraded = false;
  FrameReader rd;
  std::vector<std::uint8_t> wire;
  int requests_served = 0;
  const std::int64_t epoch = now_ns();
  const int fd = a.fd;

  const std::unique_ptr<serve::BatchPolicy> policy = serve::make_policy(a.policy);
  serve::detail::CoreConfig cc = serve::detail::single_model_core(prep, ds);
  cc.launch_overhead_ns = a.launch_ns;
  cc.recycle = a.recycle;
  cc.sched_memo = a.sched_memo;
  cc.shard_index = a.shard;
  cc.epoch_ns = epoch;
  cc.policy = policy.get();

  serve::detail::CoreIo io = detail::slot_io(
      [&slots](int i) -> detail::Slot& { return slots[static_cast<std::size_t>(i)]; });
  io.poll_input = [&](std::deque<int>& q) {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        rd.feed(buf, static_cast<std::size_t>(n));
        Frame f;
        while (rd.next(f) == FrameReader::Status::kFrame) {
          switch (f.type) {
            case FrameType::kWorkerReq: {
              RequestFields rf;
              if (!parse_request(f, rf)) break;
              // crash_worker: die before replying — the router sees EOF and
              // fails this request's slot with kError(kWorkerDied).
              ACROBAT_FAULT(if (g_inject.fire_crash()) ::raise(SIGKILL));
              // wedge_shard: stop reading the socket mid-stream; pings go
              // unanswered, which is the liveness timeout's failure mode.
              ACROBAT_FAULT({
                const std::int64_t wns = g_inject.fire_wedge_ns();
                if (wns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wns));
              });
              const std::size_t si = rf.id;
              while (slots.size() <= si) slots.emplace_back();
              detail::Slot& s = slots[si];
              // Router guarantees exclusive reuse: this slot id has no live
              // session here once a new kWorkerReq names it.
              s.cancel_owner.store(0, std::memory_order_relaxed);
              s.conn = 0;
              s.conn_gen = 1;
              s.req_id = rf.id;
              s.stream = rf.stream;
              s.assign(static_cast<int>(si), rf.input_index, rf.latency_class,
                       now_ns() - epoch);
              q.push_back(static_cast<int>(si));
              break;
            }
            case FrameType::kWorkerCancel: {
              if (f.payload.size() < 4) break;
              const std::size_t si = wire::get_u32(f.payload.data());
              if (si < slots.size())
                slots[si].cancel_owner.store(detail::pack_owner(0, 1),
                                             std::memory_order_release);
              break;
            }
            case FrameType::kWorkerPing:
              wire.clear();
              encode_empty(wire, FrameType::kWorkerPong);
              if (!write_all(fd, wire)) eof = true;
              break;
            case FrameType::kWorkerDrain:
              drain = true;
              break;
            case FrameType::kWorkerMode:
              degraded = f.aux != 0;
              break;
            default:
              break;
          }
        }
        continue;
      }
      if (n == 0) {
        eof = true;  // router gone: finish in-flight work and exit
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      eof = true;
      return;
    }
  };
  io.input_open = [&] { return !drain && !eof; };
  io.degraded = [&] { return degraded; };
  io.emit_token = [&](int slot_id, std::uint32_t ord) {
    if (!slots[static_cast<std::size_t>(slot_id)].stream) return;
    wire.clear();
    encode_id_pair(wire, FrameType::kWorkerToken,
                   static_cast<std::uint32_t>(slot_id), ord);
    if (!write_all(fd, wire)) eof = true;
  };
  io.emit_done = [&](int slot_id) {
    ++requests_served;
    const detail::Slot& s = slots[static_cast<std::size_t>(slot_id)];
    wire.clear();
    encode_done(wire, FrameType::kWorkerDone, static_cast<std::uint32_t>(slot_id),
                static_cast<std::uint32_t>(s.rec.tokens), s.rec.cancelled,
                s.rec.output.data(), s.rec.output.size());
    if (!write_all(fd, wire)) eof = true;
  };
  io.idle_wait = [&] {
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 1);
  };

  serve::ShardReport report;
  serve::detail::run_shard_core(cc, io, report);

  if (!eof) {
    std::vector<std::uint8_t> bye_payload;
    wire::put_u32(bye_payload, static_cast<std::uint32_t>(requests_served));
    wire::put_u64(bye_payload, static_cast<std::uint64_t>(report.tokens));
    wire.clear();
    encode_frame(wire, FrameType::kWorkerBye, bye_payload.data(), bye_payload.size());
    write_all(fd, wire);
  }
  ::close(fd);
  return 0;
}

}  // namespace acrobat::net
