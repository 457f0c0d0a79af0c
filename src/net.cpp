#include "net/net.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <set>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "net/frame.h"
#include "net_slot.h"
#include "serve/load.h"
#include "serve/spsc.h"
#include "support/timer.h"

namespace acrobat::net {
namespace {

using serve::SpscQueue;

using serve::detail::config_die;
using serve::detail::relax;

// A request read off a connection, waiting in the event loop for a slot.
struct AdmissionMsg {
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  std::uint32_t input_index = 0;
  std::uint8_t latency_class = 0;
  bool stream = false;
  std::int64_t arrival_ns = 0;
};

// Shard/proxy → event loop (and the event loop's own "no live shard").
struct CompMsg {
  enum Kind : std::uint8_t { kToken, kDone, kError };
  Kind kind = kDone;
  int slot = -1;
  std::uint32_t aux = 0;  // token ordinal / ErrorCode
};

bool set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  return fl >= 0 && ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) == 0;
}

// The one wakeup of the router's sleeping threads (the event loop and each
// worker proxy): an eventfd the sleeper polls next to its sockets. Producers
// ring after every push to the queue the sleeper consumes, and the sleeper
// clears the bell before it looks at that queue, so no ring is lost between
// its last look and its poll. If eventfd fails (fd -1), poll skips the entry
// and the sleeper falls back to the kPollCapMs tick: slower, never stuck.
class Doorbell {
 public:
  Doorbell() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Doorbell() {
    if (fd_ >= 0) ::close(fd_);
  }
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  int fd() const { return fd_; }
  void ring() const { ::eventfd_write(fd_, 1); }
  void clear() const {
    eventfd_t v;
    ::eventfd_read(fd_, &v);
  }

 private:
  int fd_;
};

// A sleeper's poll timeout: milliseconds until the earliest of its own
// timers in `deadlines_ns` (ping, liveness, respawn backoff, drain flush;
// negative = unset), capped so a missed ring costs one tick, never a hang.
constexpr std::int64_t kPollCapMs = 100;
int poll_ms(std::initializer_list<std::int64_t> deadlines_ns) {
  std::int64_t ms = kPollCapMs;
  const std::int64_t now = now_ns();
  for (const std::int64_t d : deadlines_ns)
    if (d >= 0) ms = std::min(ms, std::max<std::int64_t>(0, (d - now + 999'999) / 1'000'000));
  return static_cast<int>(ms);
}

}  // namespace

// ------------------------------------------------------------- NetServer

struct NetServer::Impl {
  NetOptions opts;
  const harness::Prepared* prep = nullptr;
  const models::Dataset* ds = nullptr;
  std::string err;

  std::int64_t epoch = 0;
  int tcp_listen = -1;
  int uds_listen = -1;
  int bound_port = -1;
  std::string uds_path;
  std::size_t n_inputs = 0;

  std::unique_ptr<detail::Slot[]> slots;
  std::size_t n_slots = 0;

  // Per-shard channel: the event loop feeds the inbox (slot ids); the shard
  // thread (or the worker's proxy thread) feeds `out` back to the event
  // loop. The out ring is sized so that even a full slot table streaming
  // tokens rarely fills it; shard-side pushes spin briefly if it does —
  // server-internal flow control against the event loop, never against a
  // client (slow clients are absorbed per-connection, see write buffers).
  struct ShardCh {
    ShardCh(std::size_t sessions, int idx)
        : index(idx), inbox(sessions), out(sessions * 8 + 1024) {}
    int index;
    SpscQueue<int> inbox;
    SpscQueue<CompMsg> out;
    Doorbell bell;  // multiproc: wakes the proxy (inbox push/close, cancel, mode)
    std::atomic<bool> alive{true};
    serve::ShardReport report;
    std::unique_ptr<trace::Tracer> tracer;
    // multiproc: the worker's pid. Written by this shard's proxy thread (at
    // spawn, death and reap), read by worker_pids() on any thread.
    std::atomic<pid_t> pid{-1};
    int fd = -1;  // multiproc: router end of the socketpair
  };
  std::vector<std::unique_ptr<ShardCh>> shards;
  Doorbell ev_bell;  // wakes the event loop: every `out` push, shutdown()

  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> worker_deaths{0};

  // Fault tolerance (DESIGN.md §11). `degraded` is written by the event loop
  // and read by in-proc shard cores (CoreIo::degraded) and the worker
  // proxies (which forward it as kWorkerMode frames). The respawn counters
  // are written by proxy threads, aggregated into stats at shutdown.
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> respawns{0};
  std::atomic<std::uint64_t> respawns_exhausted{0};
  std::size_t degrade_high = 0, degrade_low = 0;  // resolved in start()
  fault::Injector inject;
  std::string fault_spec;  // resolved spec, forwarded to workers via argv

  std::thread ev_thread;
  std::vector<std::thread> shard_threads;

  std::unique_ptr<trace::Tracer> net_tracer;
  NetStats stats;
  bool started = false;
  bool finished = false;

  bool fail(const std::string& what) {
    err = what;
    return false;
  }

  bool setup_listeners();
  bool spawn_worker(ShardCh& ch);
  void shard_main_inproc(ShardCh& ch);
  void proxy_main(ShardCh& ch);
  void event_loop();
};

bool NetServer::Impl::setup_listeners() {
  if (opts.port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0 && set_nonblocking(fd)) {
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
        bound_port = ntohs(bound.sin_port);
        tcp_listen = fd;
      } else {
        ::close(fd);
      }
    }
  }
  if (!opts.uds_path.empty() && opts.uds_path.size() < sizeof(sockaddr_un{}.sun_path)) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      ::unlink(opts.uds_path.c_str());
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, opts.uds_path.c_str(), sizeof addr.sun_path - 1);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0 && set_nonblocking(fd)) {
        uds_listen = fd;
        uds_path = opts.uds_path;
      } else {
        ::close(fd);
      }
    }
  }
  return tcp_listen >= 0 || uds_listen >= 0;
}

bool NetServer::Impl::spawn_worker(ShardCh& ch) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);  // router end must not leak into execs

  const std::string cmd = opts.worker_cmd.empty() ? "/proc/self/exe" : opts.worker_cmd;
  std::vector<std::string> args = {
      cmd, "--shard-worker",
      "--fd", std::to_string(sv[1]),
      "--shard", std::to_string(ch.index),
      "--model", opts.model,
      "--large", opts.large ? "1" : "0",
      "--ds-batch", std::to_string(opts.ds_batch),
      "--ds-seed", std::to_string(opts.ds_seed),
      "--launch-ns", std::to_string(opts.launch_overhead_ns),
      "--recycle", opts.recycle ? "1" : "0",
      "--memo", opts.sched_memo ? "1" : "0",
      "--pol-kind", std::to_string(static_cast<int>(opts.policy.kind)),
      "--pol-max-batch", std::to_string(opts.policy.max_batch),
      "--pol-min-batch", std::to_string(opts.policy.min_batch),
      "--pol-max-admit", std::to_string(opts.policy.max_admit),
      "--pol-decode-admit", std::to_string(opts.policy.decode_admit),
      "--pol-slo-ns", std::to_string(opts.policy.slo_ns),
      "--pol-hold-ns", std::to_string(opts.policy.max_hold_ns),
  };
  if (!fault_spec.empty()) {
    args.push_back("--fault");
    args.push_back(fault_spec);
  }
  // The argv array is fully materialized *before* fork: respawns fork from a
  // proxy thread of a multithreaded process, where the child may only run
  // async-signal-safe code until execv.
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    ::execv(cmd.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(sv[1]);
  ch.pid.store(pid);
  ch.fd = sv[0];
  return true;
}

void NetServer::Impl::shard_main_inproc(ShardCh& ch) {
  const std::unique_ptr<serve::BatchPolicy> policy = serve::make_policy(opts.policy);
  serve::detail::CoreConfig cc = serve::detail::single_model_core(*prep, *ds);
  cc.launch_overhead_ns = opts.launch_overhead_ns;
  cc.recycle = opts.recycle;
  cc.sched_memo = opts.sched_memo;
  cc.shard_index = ch.index;
  cc.epoch_ns = epoch;
  cc.policy = policy.get();
  cc.tracer = ch.tracer.get();

  serve::detail::CoreIo io =
      detail::slot_io([this](int i) -> detail::Slot& { return slots[static_cast<std::size_t>(i)]; });
  io.poll_input = [&ch](std::deque<int>& q) {
    int id;
    while (ch.inbox.pop(id)) q.push_back(id);
  };
  io.input_open = [&ch] { return !(ch.inbox.closed() && ch.inbox.empty_hint()); };
  const auto push_out = [this, &ch](const CompMsg& m) {
    while (!ch.out.push(m)) relax();
    ev_bell.ring();
  };
  io.emit_token = [this, push_out](int slot_id, std::uint32_t ord) {
    if (slots[static_cast<std::size_t>(slot_id)].stream)
      push_out(CompMsg{CompMsg::kToken, slot_id, ord});
  };
  io.emit_done = [push_out](int slot_id) { push_out(CompMsg{CompMsg::kDone, slot_id, 0}); };
  io.idle_wait = relax;
  io.degraded = [this] { return degraded.load(std::memory_order_relaxed); };

  serve::detail::run_shard_core(cc, io, ch.report);
}

// Router-side thread for one worker process: forwards requests and cancels
// to the worker as frames, translates its reply frames into CompMsgs, runs
// liveness (ping/pong + EOF), and drains it on shutdown. A dead worker
// turns every in-flight and still-arriving slot into a kError completion —
// clients always get a terminal frame.
//
// Supervision (DESIGN.md §11): with opts.supervise, a dead worker is re-forked
// under the same recipe after a capped-exponential backoff, within a
// bounded per-shard respawn budget. The shard stays routed-around
// (alive = false) while the respawn is pending, so nothing here changes the
// failure semantics clients observe — recovery only restores capacity. One
// completed request resets the backoff exponent; a crash-looping recipe
// walks the backoff up until the budget is gone, then the shard stays dead.
void NetServer::Impl::proxy_main(ShardCh& ch) {
  FrameReader rd;
  std::vector<std::uint8_t> wire;
  std::set<int> inflight, cancel_sent;
  bool drain_sent = false, bye = false;
  std::int64_t last_ping = now_ns(), last_heard = now_ns();

  int respawns_left = opts.supervise ? opts.respawn_budget : 0;
  int consecutive_failures = 0;   // deaths since the last completed request
  std::int64_t respawn_at = -1;   // -1 = no respawn pending
  bool exhausted_counted = false;
  bool mode_sent = false;  // degraded bit last forwarded (fresh worker = normal)

  const auto push_out = [&](const CompMsg& m) {
    while (!ch.out.push(m)) relax();
    ev_bell.ring();
  };
  const auto schedule_respawn = [&] {
    if (!opts.supervise) return;
    if (respawns_left > 0) {
      ++consecutive_failures;
      respawn_at = now_ns() + respawn_delay_ns(consecutive_failures - 1,
                                               opts.respawn_backoff_ns,
                                               opts.respawn_backoff_cap_ns);
    } else if (!exhausted_counted) {
      respawns_exhausted.fetch_add(1, std::memory_order_relaxed);
      exhausted_counted = true;
    }
  };
  const auto mark_dead = [&](bool unexpected) {
    if (!ch.alive.load(std::memory_order_relaxed)) return;
    ch.alive.store(false, std::memory_order_release);
    if (unexpected) worker_deaths.fetch_add(1, std::memory_order_relaxed);
    for (const int si : inflight)
      push_out(CompMsg{CompMsg::kError, si,
                       static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
    inflight.clear();
    cancel_sent.clear();
    if (ch.fd >= 0) {
      ::close(ch.fd);
      ch.fd = -1;
    }
    // Reap immediately (SIGKILL is belt-and-braces for the wedged case —
    // EOF deaths are already zombies) so a respawn never stacks zombies.
    if (const pid_t pid = ch.pid.load(); pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      ch.pid.store(-1);
    }
    if (unexpected) schedule_respawn();
  };
  const auto wsend = [&](const std::vector<std::uint8_t>& b) {
    if (ch.fd < 0) return false;
    std::size_t off = 0;
    while (off < b.size()) {
      std::size_t chunk = b.size() - off;
      ACROBAT_FAULT(chunk = inject.clamp_write(chunk));
      const ssize_t n = ::send(ch.fd, b.data() + off, chunk, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        mark_dead(true);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  };
  const auto handle_frame = [&](const Frame& f) {
    switch (f.type) {
      case FrameType::kWorkerToken: {
        if (f.payload.size() < 8) break;
        const int si = static_cast<int>(wire::get_u32(f.payload.data()));
        push_out(CompMsg{CompMsg::kToken, si, wire::get_u32(f.payload.data() + 4)});
        break;
      }
      case FrameType::kWorkerDone: {
        DoneFields df;
        if (!parse_done(f, df)) break;
        const int si = static_cast<int>(df.id);
        detail::Slot& s = slots[static_cast<std::size_t>(si)];
        s.rec.output.assign(df.data, df.data + df.n_floats);
        s.rec.tokens = static_cast<int>(df.tokens);
        s.rec.cancelled = df.cancelled;
        inflight.erase(si);
        cancel_sent.erase(si);
        consecutive_failures = 0;  // served work: not a crash loop
        push_out(CompMsg{CompMsg::kDone, si, 0});
        break;
      }
      case FrameType::kWorkerBye: {
        if (f.payload.size() >= 12) {
          ch.report.requests = static_cast<int>(wire::get_u32(f.payload.data()));
          ch.report.tokens = static_cast<long long>(wire::get_u64(f.payload.data() + 4));
        }
        bye = true;
        break;
      }
      case FrameType::kWorkerPong:
      default:
        break;  // last_heard already updated on receipt
    }
  };

  for (;;) {
    // A pending respawn fires once its backoff elapses — unless the server
    // is already draining this shard (inbox closed and empty), in which
    // case restoring capacity is pointless and the drain wins.
    if (respawn_at >= 0) {
      if (ch.inbox.closed() && ch.inbox.empty_hint()) {
        respawn_at = -1;
      } else if (now_ns() >= respawn_at) {
        respawn_at = -1;
        --respawns_left;
        if (spawn_worker(ch)) {
          rd.reset();
          drain_sent = false;
          bye = false;
          mode_sent = false;
          last_ping = last_heard = now_ns();
          respawns.fetch_add(1, std::memory_order_relaxed);
          ch.alive.store(true, std::memory_order_release);
        } else {
          schedule_respawn();  // fork/socketpair failed: counts as a failure
        }
      }
    }
    int si;
    while (ch.inbox.pop(si)) {
      if (!ch.alive.load(std::memory_order_relaxed)) {
        push_out(CompMsg{CompMsg::kError, si,
                         static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
        continue;
      }
      const detail::Slot& s = slots[static_cast<std::size_t>(si)];
      wire.clear();
      std::vector<std::uint8_t> p;
      wire::put_u32(p, static_cast<std::uint32_t>(si));
      wire::put_u32(p, static_cast<std::uint32_t>(s.req.input_index));
      wire::put_u16(p, 0);
      p.push_back(static_cast<std::uint8_t>(s.req.latency_class));
      p.push_back(0);
      encode_frame(wire, FrameType::kWorkerReq, p.data(), p.size(),
                   s.stream ? kFlagStream : 0);
      if (wsend(wire)) {
        inflight.insert(si);
        // kill_worker fault: SIGKILL our own worker right after forwarding
        // the planned request — the EOF path then runs the exact production
        // death/respawn machinery, nothing test-only.
        ACROBAT_FAULT(if (inject.fire_kill(ch.index) && ch.pid.load() > 0)
                          ::kill(ch.pid.load(), SIGKILL));
      } else {
        push_out(CompMsg{CompMsg::kError, si,
                         static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
      }
    }

    // Degraded-mode propagation: workers cannot see the router's admission
    // queue, so the event loop's transitions travel as kWorkerMode frames
    // (idempotent; resent from scratch to a respawned worker).
    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent) {
      const bool degr = degraded.load(std::memory_order_relaxed);
      if (degr != mode_sent) {
        wire.clear();
        encode_frame(wire, FrameType::kWorkerMode, nullptr, 0, 0, degr ? 1 : 0);
        if (wsend(wire)) mode_sent = degr;
      }
    }

    if (ch.alive.load(std::memory_order_relaxed)) {
      for (const int s2 : inflight) {
        if (cancel_sent.count(s2) != 0) continue;
        const detail::Slot& s = slots[static_cast<std::size_t>(s2)];
        if (!detail::slot_cancelled(s)) continue;
        wire.clear();
        encode_id_only(wire, FrameType::kWorkerCancel, static_cast<std::uint32_t>(s2));
        if (!wsend(wire)) break;
        cancel_sent.insert(s2);
      }
    }

    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent && inflight.empty() &&
        ch.inbox.closed() && ch.inbox.empty_hint()) {
      wire.clear();
      encode_empty(wire, FrameType::kWorkerDrain);
      wsend(wire);
      drain_sent = true;
    }

    const std::int64_t tnow = now_ns();
    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent &&
        tnow - last_ping > opts.ping_interval_ns) {
      wire.clear();
      encode_empty(wire, FrameType::kWorkerPing);
      wsend(wire);
      last_ping = tnow;
    }
    if (ch.alive.load(std::memory_order_relaxed) && !inflight.empty() &&
        tnow - last_heard > opts.liveness_timeout_ns) {
      // Unresponsive with work owed (the wedge failure mode): declare dead.
      // mark_dead delivers the SIGKILL and reaps.
      mark_dead(true);
    }

    const bool alive = ch.alive.load(std::memory_order_relaxed);
    const bool worker_finished = (drain_sent && (bye || !alive)) ||
                                 (!alive && ch.inbox.closed() && ch.inbox.empty_hint());
    if (worker_finished) {
      if (ch.fd >= 0) {
        ::close(ch.fd);
        ch.fd = -1;
      }
      // Reap the child: grace for a clean exit, then force.
      if (const pid_t pid = ch.pid.load(); pid > 0) {
        int status = 0;
        const std::int64_t deadline = now_ns() + 2'000'000'000;
        for (;;) {
          const pid_t r = ::waitpid(pid, &status, WNOHANG);
          if (r == pid || r < 0) break;
          if (now_ns() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
          }
          relax();
        }
        ch.pid.store(-1);
      }
      return;
    }

    // Sleep until the worker writes, the bell rings (inbox push or close,
    // cancel, mode change) or this proxy's next timer is due.
    pollfd pfd[2] = {{ch.bell.fd(), POLLIN, 0}, {alive ? ch.fd : -1, POLLIN, 0}};
    ::poll(pfd, 2,
           poll_ms({respawn_at, alive && !drain_sent ? last_ping + opts.ping_interval_ns : -1,
                    alive && !inflight.empty() ? last_heard + opts.liveness_timeout_ns : -1}));
    if (pfd[0].revents != 0) ch.bell.clear();
    if (pfd[1].revents == 0) continue;
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(ch.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        last_heard = now_ns();
        rd.feed(buf, static_cast<std::size_t>(n));
        Frame f;
        while (rd.next(f) == FrameReader::Status::kFrame) handle_frame(f);
        continue;
      }
      if (n == 0) {
        if (drain_sent && bye) {  // clean exit after drain handshake
          ::close(ch.fd);
          ch.fd = -1;
        } else {
          mark_dead(true);
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      mark_dead(true);
      break;
    }
  }
}

void NetServer::Impl::event_loop() {
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 1;
    bool open = false;
    FrameReader rd;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    int live = 0;  // requests admitted for this conn, terminal frame pending
  };
  std::vector<Conn> conns(static_cast<std::size_t>(opts.max_connections));
  int open_count = 0;
  [[maybe_unused]] trace::Tracer* const tr = net_tracer.get();
  bool listeners_open = true;
  bool inboxes_closed = false;
  std::int64_t flush_deadline = -1;
  std::vector<std::uint8_t> scratch;

  // Admission. A request waits in `pending` (at most admission_capacity)
  // until a slot is free, then goes to the least-loaded live shard.
  // load[s] counts the slots routed to shard s and not yet completed;
  // slot_shard[i] is where slot i went (-1: nowhere).
  std::deque<AdmissionMsg> pending;
  std::vector<int> free_list, load(shards.size(), 0), slot_shard(n_slots, -1);
  for (std::size_t i = n_slots; i > 0; --i) free_list.push_back(static_cast<int>(i - 1));

  const auto now_rel = [&] { return now_ns() - epoch; };
  // Proxies see cancels and mode changes only when woken.
  const auto ring_proxies = [&] {
    if (opts.multiprocess)
      for (const auto& ch : shards) ch->bell.ring();
  };

  const auto drop_conn = [&](int ci, bool slow) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    if (!c.open) return;
    const bool owed = c.live > 0 || c.woff < c.wbuf.size();
    ::close(c.fd);
    c.fd = -1;
    c.open = false;
    c.wbuf.clear();
    c.woff = 0;
    c.rd = FrameReader();
    if (owed) {
      ++stats.conn_drops;
      if (slow) ++stats.slow_reader_drops;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetConnDrop, ci, slow ? 1 : 0));
      // Cancel every live session owned by this (conn, gen). Owner-tagged:
      // a slot recycled to a newer generation can never match.
      const std::uint64_t target = detail::pack_owner(ci, c.gen);
      for (std::size_t i = 0; i < n_slots; ++i)
        if (slots[i].owner == target)
          slots[i].cancel_owner.store(target, std::memory_order_release);
      ring_proxies();
    }
    ++c.gen;
    c.live = 0;
    --open_count;
  };

  const auto try_flush = [&](int ci) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop_conn(ci, false);
      return;
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    } else if (c.woff > (1u << 16)) {
      c.wbuf.erase(c.wbuf.begin(), c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.woff));
      c.woff = 0;
    }
  };

  const auto send_to = [&](int ci, const std::vector<std::uint8_t>& bytes) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    if (!c.open) return;
    c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
    const std::size_t backlog = c.wbuf.size() - c.woff;
    stats.write_buf_peak = std::max(stats.write_buf_peak, backlog);
    if (backlog > opts.write_buffer_limit) {
      // Slow reader: its socket stopped draining and the bounded buffer is
      // full. Shed the connection — the shard hot path never waits on it.
      drop_conn(ci, true);
      return;
    }
    try_flush(ci);
  };

  const auto handle_comp = [&](const CompMsg& m) {
    detail::Slot& s = slots[static_cast<std::size_t>(m.slot)];
    const int ci = s.conn;
    const bool ok = ci >= 0 && conns[static_cast<std::size_t>(ci)].open &&
                    conns[static_cast<std::size_t>(ci)].gen == s.conn_gen;
    scratch.clear();
    switch (m.kind) {
      case CompMsg::kToken:
        if (ok) {
          encode_id_pair(scratch, FrameType::kToken, s.req_id, m.aux);
          send_to(ci, scratch);
          ++stats.tokens_streamed;
        }
        return;  // non-terminal: slot stays busy
      case CompMsg::kDone:
        ++stats.completed;
        if (s.rec.cancelled) ++stats.cancelled;
        if (ok) {
          encode_done(scratch, FrameType::kDone, s.req_id,
                      static_cast<std::uint32_t>(s.rec.tokens), s.rec.cancelled,
                      s.rec.output.data(), s.rec.output.size());
          send_to(ci, scratch);
        }
        break;
      case CompMsg::kError:
        ++stats.errors;
        if (ok) {
          encode_id_pair(scratch, FrameType::kError, s.req_id, m.aux);
          send_to(ci, scratch);
        }
        break;
    }
    if (ok && conns[static_cast<std::size_t>(ci)].open)
      --conns[static_cast<std::size_t>(ci)].live;  // send_to may have dropped it
    if (const int sh = std::exchange(slot_shard[static_cast<std::size_t>(m.slot)], -1); sh >= 0)
      --load[static_cast<std::size_t>(sh)];
    s.owner = 0;
    free_list.push_back(m.slot);
  };

  // Backpressure cascade: no free slot → requests wait in `pending` → a
  // full `pending` answers 429. Nothing ever grows.
  const auto dispatch = [&] {
    while (!free_list.empty() && !pending.empty()) {
      const AdmissionMsg m = pending.front();
      pending.pop_front();
      const int si = free_list.back();
      free_list.pop_back();
      detail::Slot& s = slots[static_cast<std::size_t>(si)];
      s.conn = m.conn;
      s.conn_gen = m.conn_gen;
      s.req_id = m.req_id;
      s.stream = m.stream;
      s.assign(si, m.input_index, m.latency_class, m.arrival_ns);
      s.owner = detail::pack_owner(m.conn, m.conn_gen);
      stats.slots_peak = std::max(stats.slots_peak, n_slots - free_list.size());

      std::size_t target = shards.size();
      for (std::size_t k = 0; k < shards.size(); ++k)
        if (shards[k]->alive.load(std::memory_order_acquire) &&
            (target == shards.size() || load[k] < load[target]))
          target = k;
      if (target == shards.size()) {
        handle_comp(CompMsg{CompMsg::kError, si,
                            static_cast<std::uint32_t>(ErrorCode::kUnavailable)});
        continue;
      }
      ++load[target];
      slot_shard[static_cast<std::size_t>(si)] = static_cast<int>(target);
      ShardCh& ch = *shards[target];
      const bool pushed = ch.inbox.push(si);
      assert(pushed && "inbox sized for the whole slot table");
      (void)pushed;
      if (opts.multiprocess) ch.bell.ring();
    }
  };

  const auto pump = [&] {
    CompMsg m;
    for (const auto& ch : shards)
      while (ch->out.pop(m)) handle_comp(m);
    dispatch();
  };

  // Degraded-mode hysteresis: enter at the high watermark, exit at the low
  // one. Evaluated by the event loop only — single writer to the
  // Impl::degraded atomic that shards and worker proxies read.
  bool degraded_mode = false;
  const std::uint16_t want_auth =
      opts.auth_token.empty() ? 0 : auth_token16(opts.auth_token);
  const auto update_degraded = [&] {
    const std::size_t occ = pending.size();
    if (!degraded_mode && occ >= degrade_high) {
      degraded_mode = true;
      degraded.store(true, std::memory_order_relaxed);
      ring_proxies();
      ++stats.degraded_entries;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetDegrade, 1,
                                    static_cast<int>(occ)));
    } else if (degraded_mode && occ <= degrade_low) {
      degraded_mode = false;
      degraded.store(false, std::memory_order_relaxed);
      ring_proxies();
      ++stats.degraded_exits;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetDegrade, 0,
                                    static_cast<int>(occ)));
    }
  };

  const auto handle_request = [&](int ci, const Frame& f) {
    RequestFields rf;
    if (!parse_request(f, rf)) {
      drop_conn(ci, false);
      return;
    }
    ++stats.requests;
    scratch.clear();
    // Authn precedes everything that costs admission space: a client
    // without the shared token cannot even occupy a queue slot.
    if (want_auth != 0 && rf.auth != want_auth) {
      ++stats.auth_rejects;
      ++stats.errors;
      encode_id_pair(scratch, FrameType::kError, rf.id,
                     static_cast<std::uint32_t>(ErrorCode::kUnauthorized));
      send_to(ci, scratch);
      return;
    }
    if (rf.model_id != 0 || rf.input_index >= n_inputs ||
        rf.latency_class >= serve::kNumLatencyClasses) {
      ++stats.errors;
      encode_id_pair(scratch, FrameType::kError, rf.id,
                     static_cast<std::uint32_t>(ErrorCode::kBadRequest));
      send_to(ci, scratch);
      return;
    }
    // Per-connection fairness cap: one connection's admitted-but-unfinished
    // requests cannot fill the shared queue. kRetry, like any other shed —
    // the client backs off; others get the capacity.
    if (opts.max_inflight_per_conn > 0 &&
        conns[static_cast<std::size_t>(ci)].live >= opts.max_inflight_per_conn) {
      ++stats.fairness_rejects;
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    // Degraded mode sheds best-effort-class work at the door: the capacity
    // that remains under overload goes to interactive/batch classes.
    if (degraded_mode &&
        rf.latency_class == static_cast<std::uint8_t>(serve::LatencyClass::kBestEffort)) {
      ++stats.degraded_sheds;
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    // The backpressure contract: a full admission queue (or a draining
    // server) answers 429 immediately.
    if (draining.load(std::memory_order_relaxed) ||
        pending.size() >= opts.admission_capacity) {
      ++stats.rejected_429;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetReject, ci,
                                    static_cast<int>(rf.id)));
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    Conn& c = conns[static_cast<std::size_t>(ci)];
    pending.push_back(AdmissionMsg{ci, c.gen, rf.id, rf.input_index, rf.latency_class,
                                   rf.stream, now_rel()});
    stats.admission_peak = std::max(stats.admission_peak, pending.size());
    ++c.live;
    update_degraded();  // entering on the admit edge catches the high watermark
    dispatch();
  };

  const auto read_conn = [&](int ci) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        c.rd.feed(buf, static_cast<std::size_t>(n));
        Frame f;
        for (;;) {
          const FrameReader::Status st = c.rd.next(f);
          if (st == FrameReader::Status::kNeedMore) break;
          if (st == FrameReader::Status::kError) {
            drop_conn(ci, false);
            return;
          }
          ++stats.frames_in;
          if (f.type == FrameType::kRequest) handle_request(ci, f);
          if (!c.open) return;  // handler may have dropped the conn
        }
        continue;
      }
      if (n == 0) {
        drop_conn(ci, false);  // graceful iff no work owed (no counters then)
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_conn(ci, false);
      return;
    }
  };

  const auto do_accept = [&](int lfd, bool tcp) {
    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) return;
      if (open_count >= opts.max_connections) {
        ::close(fd);  // admission for *connections*: beyond the cap, refuse
        continue;
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      if (tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      if (opts.sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.sndbuf_bytes,
                     sizeof opts.sndbuf_bytes);
      int ci = -1;
      for (std::size_t i = 0; i < conns.size(); ++i)
        if (!conns[i].open) {
          ci = static_cast<int>(i);
          break;
        }
      assert(ci >= 0);
      Conn& c = conns[static_cast<std::size_t>(ci)];
      c.fd = fd;
      c.open = true;
      c.rd = FrameReader();
      c.wbuf.clear();
      c.woff = 0;
      c.live = 0;
      ++open_count;
      ++stats.connections;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetAccept, ci, open_count));
    }
  };

  std::vector<pollfd> pfds;
  std::vector<int> pidx;
  for (;;) {
    const bool drain = draining.load(std::memory_order_acquire);
    if (drain && listeners_open) {
      if (tcp_listen >= 0) ::close(tcp_listen);
      if (uds_listen >= 0) ::close(uds_listen);
      tcp_listen = uds_listen = -1;
      listeners_open = false;
    }
    pump();
    update_degraded();  // exit path: occupancy falls as slots free up

    // Drain: once nothing is pending and every slot is free, no completion
    // is owed, so the shards may finish; what is left is flushing writes.
    if (drain && !inboxes_closed && pending.empty() && free_list.size() == n_slots) {
      for (const auto& ch : shards) ch->inbox.close();
      ring_proxies();
      inboxes_closed = true;
    }
    if (inboxes_closed) {
      bool wpending = false;
      for (const Conn& c : conns)
        if (c.open && c.woff < c.wbuf.size()) wpending = true;
      if (!wpending) break;
      if (flush_deadline < 0) flush_deadline = now_ns() + 2'000'000'000;
      if (now_ns() > flush_deadline) break;
    }

    pfds.assign(1, pollfd{ev_bell.fd(), POLLIN, 0});
    pidx.assign(1, -3);
    if (listeners_open) {
      if (tcp_listen >= 0) {
        pfds.push_back(pollfd{tcp_listen, POLLIN, 0});
        pidx.push_back(-1);
      }
      if (uds_listen >= 0) {
        pfds.push_back(pollfd{uds_listen, POLLIN, 0});
        pidx.push_back(-2);
      }
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i].open) continue;
      short ev = POLLIN;
      if (conns[i].woff < conns[i].wbuf.size()) ev |= POLLOUT;
      pfds.push_back(pollfd{conns[i].fd, ev, 0});
      pidx.push_back(static_cast<int>(i));
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_ms({flush_deadline}));
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const int ix = pidx[k];
      if (ix == -3) {
        ev_bell.clear();  // before the next pump looks at the out rings
      } else if (ix == -1) {
        do_accept(tcp_listen, true);
      } else if (ix == -2) {
        do_accept(uds_listen, false);
      } else {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(ix);
        if (conns[static_cast<std::size_t>(ix)].open &&
            (pfds[k].revents & POLLOUT) != 0)
          try_flush(ix);
      }
    }
  }

  for (std::size_t i = 0; i < conns.size(); ++i)
    if (conns[i].open) drop_conn(static_cast<int>(i), false);
  if (tcp_listen >= 0) ::close(tcp_listen);
  if (uds_listen >= 0) ::close(uds_listen);
  tcp_listen = uds_listen = -1;
}

NetServer::NetServer(const harness::Prepared* p, const models::Dataset* ds,
                     NetOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
  impl_->prep = p;
  impl_->ds = ds;
}

NetServer::~NetServer() {
  if (impl_ && impl_->started) shutdown();
  if (impl_ && !impl_->uds_path.empty()) ::unlink(impl_->uds_path.c_str());
}

const std::string& NetServer::error() const { return impl_->err; }
int NetServer::port() const { return impl_->bound_port; }
const std::string& NetServer::uds_path() const { return impl_->uds_path; }

std::vector<pid_t> NetServer::worker_pids() const {
  std::vector<pid_t> pids;
  for (const auto& ch : impl_->shards)
    if (const pid_t pid = ch->pid.load(); pid > 0) pids.push_back(pid);
  return pids;
}

bool NetServer::start() {
  Impl& im = *impl_;
  if (im.started) return im.fail("start() called twice");
  const NetOptions& o = im.opts;
  if (o.shards <= 0) return im.fail("shards must be > 0");
  if (o.admission_capacity == 0) return im.fail("admission_capacity must be > 0");
  if (o.max_sessions == 0) return im.fail("max_sessions must be > 0");
  if (o.max_connections <= 0) return im.fail("max_connections must be > 0");
  if (!o.multiprocess && (im.prep == nullptr || im.ds == nullptr))
    return im.fail("in-proc shards need a prepared model and dataset");
  // Liveness / supervision knobs are programmer configuration, not runtime
  // inputs: a nonsensical schedule aborts loudly (config_die) rather than
  // degrading into a server that flaps workers or never declares death —
  // its silent misuse would *look* like a fault-tolerance bug (a liveness
  // timeout below the ping interval reads as healthy workers "dying").
  // Plain bad-but-safe options above fail start() with an error string.
  if (o.ping_interval_ns <= 0) config_die("NetOptions.ping_interval_ns must be > 0");
  if (o.liveness_timeout_ns <= o.ping_interval_ns)
    config_die("NetOptions.liveness_timeout_ns must exceed ping_interval_ns");
  if (o.respawn_budget < 0) config_die("NetOptions.respawn_budget must be >= 0");
  if (o.respawn_backoff_ns <= 0) config_die("NetOptions.respawn_backoff_ns must be > 0");
  if (o.respawn_backoff_cap_ns < o.respawn_backoff_ns)
    config_die("NetOptions.respawn_backoff_cap_ns must be >= respawn_backoff_ns");
  // Degradation watermarks: 0 = derive from capacity; explicit values must
  // form a proper hysteresis band inside the queue bound.
  im.degrade_high = o.degrade_high_watermark != 0
                        ? o.degrade_high_watermark
                        : std::max<std::size_t>(1, o.admission_capacity -
                                                       o.admission_capacity / 8);
  im.degrade_low = o.degrade_low_watermark != 0 ? o.degrade_low_watermark
                                                : o.admission_capacity / 4;
  if (im.degrade_high > o.admission_capacity)
    config_die("NetOptions.degrade_high_watermark must be <= admission_capacity");
  if (im.degrade_low >= im.degrade_high)
    config_die("NetOptions.degrade_low_watermark must be < degrade_high_watermark");
  // Fault plan: explicit option wins, else the environment; a spec that
  // does not parse is a hard start() failure, never a silently-inert run.
  {
    std::string spec = o.fault_spec.empty() ? fault::Injector::spec_from_env()
                                            : o.fault_spec;
    if (fault::kCompiledOut) spec.clear();
    if (!spec.empty()) {
      fault::FaultPlan plan;
      std::string perr;
      if (!fault::parse_fault_spec(spec, plan, &perr))
        return im.fail("bad fault spec: " + perr);
      im.inject.reset(plan);
      im.fault_spec = spec;
    }
  }
  if (!im.setup_listeners())
    return im.fail("no listener available (TCP bind and UDS bind both failed)");

  im.epoch = now_ns();
  im.n_inputs = im.ds != nullptr ? im.ds->inputs.size()
                                 : static_cast<std::size_t>(o.ds_batch);
  im.n_slots = o.max_sessions;
  im.slots = std::make_unique<detail::Slot[]>(im.n_slots);
  if (o.trace.enabled) {
    im.net_tracer = std::make_unique<trace::Tracer>(0, o.trace.config);
    im.net_tracer->set_epoch(im.epoch);
  }
  for (int s = 0; s < o.shards; ++s) {
    auto ch = std::make_unique<Impl::ShardCh>(im.n_slots, s);
    if (!o.multiprocess && o.trace.enabled) {
      ch->tracer = std::make_unique<trace::Tracer>(s, o.trace.config);
      ch->tracer->set_epoch(im.epoch);
    }
    im.shards.push_back(std::move(ch));
  }

  // Workers fork before any thread exists (fork+exec from a single-threaded
  // process; nothing to corrupt). A failed spawn marks its shard dead — the
  // event loop routes around it, or errors if none survived.
  if (o.multiprocess) {
    for (const auto& ch : im.shards)
      if (!im.spawn_worker(*ch)) ch->alive.store(false, std::memory_order_release);
  }

  im.started = true;
  im.ev_thread = std::thread([&im] { im.event_loop(); });
  for (const auto& ch : im.shards) {
    Impl::ShardCh& c = *ch;
    if (o.multiprocess)
      im.shard_threads.emplace_back([&im, &c] { im.proxy_main(c); });
    else
      im.shard_threads.emplace_back([&im, &c] { im.shard_main_inproc(c); });
  }
  return true;
}

void NetServer::shutdown() {
  Impl& im = *impl_;
  if (!im.started || im.finished) return;
  im.draining.store(true, std::memory_order_release);
  im.ev_bell.ring();
  for (std::thread& t : im.shard_threads)
    if (t.joinable()) t.join();
  if (im.ev_thread.joinable()) im.ev_thread.join();
  if (!im.uds_path.empty()) ::unlink(im.uds_path.c_str());

  im.stats.worker_deaths = im.worker_deaths.load(std::memory_order_relaxed);
  im.stats.worker_respawns = im.respawns.load(std::memory_order_relaxed);
  im.stats.respawns_exhausted = im.respawns_exhausted.load(std::memory_order_relaxed);
  im.stats.fault_kills = im.inject.kills();
  im.stats.fault_short_writes = im.inject.short_writes();
  for (const auto& ch : im.shards) im.stats.shards.push_back(std::move(ch->report));
  if (im.opts.trace.enabled && im.net_tracer) {
    im.stats.trace.tracks.push_back(trace::dump_track(*im.net_tracer, 0, "net"));
    for (const auto& ch : im.shards)
      if (ch->tracer)
        im.stats.trace.tracks.push_back(trace::dump_track(
            *ch->tracer, ch->index + 1, "shard" + std::to_string(ch->index)));
  }
  im.finished = true;
}

const NetStats& NetServer::stats() const { return impl_->stats; }

}  // namespace acrobat::net
