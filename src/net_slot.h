// Internal to acrobat/net: the slot table entry shared by the router
// (src/net.cpp) and the `--shard-worker` process (src/net_worker.cpp), and
// the CoreIo accessors that let the serve layer's shard loop
// (src/shard_core.h) run requests straight out of it. Not installed;
// include from src/ only.
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/server.h"
#include "shard_core.h"

namespace acrobat::net::detail {

// Owner tag for a slot: which (connection, generation) the result belongs
// to. 0 = free. Cancellation is owner-tagged rather than a plain flag so a
// cancel aimed at a dropped connection can never hit a slot that has since
// been recycled to a new request: the shard compares cancel_owner against
// the slot's *current* pack, and generations never repeat.
inline std::uint64_t pack_owner(int conn, std::uint64_t gen) {
  return (gen << 16) | static_cast<std::uint64_t>(conn + 1);
}

// One admitted-but-not-completed request: the request and its ledger, plus
// wire identity and owner tags. Exactly one thread owns the non-atomic
// fields at any time (event loop → dispatcher → shard → event loop), with
// ownership handed over through SPSC queues; `owner` and `cancel_owner` are
// the only concurrently-touched members.
struct Slot {
  std::atomic<std::uint64_t> owner{0};
  std::atomic<std::uint64_t> cancel_owner{0};

  // Wire identity (dispatcher-written; event loop reads at completion).
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  bool stream = false;

  serve::Request req;
  serve::RequestRecord rec;

  // Hands the slot to a new request arriving at `arrival_ns`.
  void assign(int slot_id, std::uint32_t input_index, std::uint8_t latency_class,
              std::int64_t arrival_ns) {
    req = serve::Request{};
    req.id = slot_id;
    req.input_index = input_index;
    req.arrival_ns = arrival_ns;
    req.latency_class = static_cast<serve::LatencyClass>(latency_class);
    rec = serve::RequestRecord{};
    rec.id = slot_id;
    rec.arrival_ns = arrival_ns;
  }
};

inline bool slot_cancelled(const Slot& s) {
  return s.cancel_owner.load(std::memory_order_acquire) ==
         pack_owner(s.conn, s.conn_gen);
}

// A CoreIo whose request/record/cancel accessors read slot `i` as at(i).
template <class At>
serve::detail::CoreIo slot_io(At at) {
  serve::detail::CoreIo io;
  io.request = [at](int i) -> const serve::Request& { return at(i).req; };
  io.record = [at](int i) -> serve::RequestRecord& { return at(i).rec; };
  io.cancelled = [at](int i) { return slot_cancelled(at(i)); };
  return io;
}

}  // namespace acrobat::net::detail
