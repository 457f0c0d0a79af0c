// Poll-driven load generator on the public wire codec (acrobat/net/frame.h).
//
// NetClient::wait() blocks on one request id, which would turn an open loop
// into a closed one, so this generator owns its sockets: one ppoll() loop
// sends every request at its due time regardless of outstanding work, and
// stamps due time, send time and each token's receive time per request.
// Only outstanding requests are kept; each is folded into its phase's
// statistics when its terminal frame arrives, so the generator's memory does
// not grow with the server's throughput.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "acrobat/net/frame.h"
#include "acrobat/serve/load.h"
#include "common.h"

namespace perfbench {

// Token gaps at 1 µs resolution: a fixed-size count per microsecond (gaps of
// 10 ms and more, past the SLO's gap limit and rare, are stored as
// samples). Ranks are exact; values are truncated to the microsecond. A
// run keeps one per slice, so the table stays small (40 KB).
class GapCounts {
 public:
  void add(double ms);
  std::size_t count() const { return n_; }
  double pct(double q) const;
  std::size_t under_us(int us) const;  // gaps shorter than `us` microseconds

 private:
  static constexpr std::size_t kBins = 10'000;
  std::vector<std::uint32_t> bins_ = std::vector<std::uint32_t>(kBins);
  Samples overflow_ms_;
  std::size_t n_ = 0;
};

// What one phase (a ladder rung or the closed-loop window) measured.
struct PhaseStats {
  Counts counts;
  Samples latency_ms;  // due → done, succeeded requests
  Samples ttft_ms;     // due → first token
  Samples lag_ms;      // due → send (generator lateness)
  GapCounts gap_ms;    // between consecutive tokens of one request
  long long tokens = 0;
  long long slo_met = 0;
  double span_s = 0;      // first due → last terminal frame
  double gen_cpu_ms = 0;  // generator thread CPU
  double proc_cpu_ms = 0; // whole-process CPU
  double worker_cpu_ms = 0;  // forked server workers' CPU, filled by the caller

  double server_cpu_ms() const { return proc_cpu_ms - gen_cpu_ms + worker_cpu_ms; }
};

class WireGen {
 public:
  // `refs[i]` is the solo output for dataset input i.
  explicit WireGen(const std::vector<std::vector<float>>& refs) : refs_(refs) {}
  ~WireGen();
  WireGen(const WireGen&) = delete;
  WireGen& operator=(const WireGen&) = delete;

  bool connect(int port, int conns);

  // Open loop: each request of `trace` is due at `start_ns` (absolute) plus
  // its arrival_ns, with its input_index.
  PhaseStats run_open(std::int64_t start_ns, const std::vector<acrobat::serve::Request>& trace);
  // Closed loop: `k` outstanding requests spread over the connections, each
  // completion issuing the next (due at issue), for `seconds`; inputs cycle
  // through `inputs`.
  PhaseStats run_closed(int k, double seconds, const std::vector<std::uint32_t>& inputs);

 private:
  struct Live {
    std::uint32_t input = 0;
    int conn = 0;
    std::int64_t due_ns = 0;
    std::int64_t send_ns = -1;
    std::int64_t first_token_ns = -1;
    std::int64_t last_token_ns = -1;
    double max_gap_ms = 0;
    int tokens = 0;
  };
  struct Conn {
    int fd = -1;
    acrobat::net::FrameReader reader;
    std::vector<std::uint8_t> out;
    std::vector<std::uint32_t> unsent;  // ids whose bytes sit in `out`
  };
  void send(std::uint32_t input, std::int64_t due_ns, int conn);
  bool flush(Conn& c);
  // Waits up to `timeout_ns` for responses and handles every ready frame.
  // False on a broken connection.
  bool pump(std::int64_t timeout_ns);
  // Folds a frame into the live request; a terminal frame moves the
  // request into the phase statistics.
  void on_frame(const acrobat::net::Frame& f, std::int64_t now);
  PhaseStats end_phase(std::int64_t t0, std::int64_t cpu0, std::int64_t gcpu0);

  const std::vector<std::vector<float>>& refs_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint32_t, Live> live_;  // outstanding, by request id
  std::uint32_t next_id_ = 0;
  PhaseStats phase_;                 // the running phase's accumulators
  std::int64_t last_done_ns_ = 0;
  std::vector<int> freed_conns_;     // connections whose request just finished
};

}  // namespace perfbench
