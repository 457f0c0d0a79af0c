#include "wire_gen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "config.h"

namespace perfbench {

using acrobat::net::Frame;
using acrobat::net::FrameReader;
using acrobat::net::FrameType;

void GapCounts::add(double ms) {
  ++n_;
  const double us = ms * 1000.0;
  if (us < static_cast<double>(kBins))
    ++bins_[static_cast<std::size_t>(us < 0 ? 0 : us)];
  else
    overflow_ms_.add(ms);
}

double GapCounts::pct(double q) const {
  if (n_ == 0) return 0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(n_)));
  double seen = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    seen += bins_[i];
    if (seen >= rank) return static_cast<double>(i) * 1e-3;
  }
  // The rank lies among the overflow samples.
  return overflow_ms_.pct((rank - seen) / static_cast<double>(overflow_ms_.count()));
}

std::size_t GapCounts::under_us(int us) const {
  std::size_t c = 0;
  for (int i = 0; i < us && i < static_cast<int>(kBins); ++i)
    c += bins_[static_cast<std::size_t>(i)];
  return c;
}

WireGen::~WireGen() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

bool WireGen::connect(int port, int conns) {
  for (int i = 0; i < conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns_.emplace_back();
    conns_.back().fd = fd;
  }
  return true;
}

void WireGen::send(std::uint32_t input, std::int64_t due_ns, int conn) {
  const std::uint32_t id = next_id_++;
  Live& r = live_[id];
  r.input = input;
  r.conn = conn;
  r.due_ns = due_ns;
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  acrobat::net::encode_request(c.out, id, input, 0, 0, /*stream=*/true);
  c.unsent.push_back(id);
  flush(c);
}

bool WireGen::flush(Conn& c) {
  std::size_t off = 0;
  while (off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + off, c.out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(off));
  if (c.out.empty()) {
    // Send time: when the request's last byte left the client.
    const std::int64_t now = wall_ns();
    for (const std::uint32_t id : c.unsent) {
      const auto it = live_.find(id);
      if (it != live_.end()) it->second.send_ns = now;
    }
    c.unsent.clear();
  }
  return true;
}

void WireGen::on_frame(const Frame& f, std::int64_t now) {
  if (f.payload.size() < 4) return;
  const std::uint32_t id = acrobat::net::wire::get_u32(f.payload.data());
  const auto it = live_.find(id);
  if (it == live_.end()) return;  // a late frame of a request already given up on
  Live& r = it->second;
  PhaseStats& ps = phase_;
  if (f.type == FrameType::kToken) {
    if (r.first_token_ns < 0) {
      r.first_token_ns = now;
    } else {
      const double gap = static_cast<double>(now - r.last_token_ns) * 1e-6;
      if (gap > r.max_gap_ms) r.max_gap_ms = gap;
      ps.gap_ms.add(gap);
    }
    r.last_token_ns = now;
    ++r.tokens;
    return;
  }
  ++ps.counts.attempted;
  if (r.send_ns >= 0) ps.lag_ms.add(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
  if (now > last_done_ns_) last_done_ns_ = now;
  freed_conns_.push_back(r.conn);
  bool ok = false;
  if (f.type == FrameType::kDone) {
    acrobat::net::DoneFields d;
    ok = acrobat::net::parse_done(f, d) && !d.cancelled &&
         d.tokens == static_cast<std::uint32_t>(r.tokens) &&
         bitwise_equal(d.data, d.n_floats, refs_[r.input]);
    if (!ok) ++ps.counts.mismatched;
  } else if (f.type == FrameType::kRetry) {
    ++ps.counts.refused;
  }
  if (!ok) {
    ++ps.counts.failed;
  } else {
    ++ps.counts.succeeded;
    ps.tokens += r.tokens;
    const std::int64_t first = r.first_token_ns >= 0 ? r.first_token_ns : now;
    const double ttft = static_cast<double>(first - r.due_ns) * 1e-6;
    ps.latency_ms.add(static_cast<double>(now - r.due_ns) * 1e-6);
    ps.ttft_ms.add(ttft);
    if (ttft <= kTtftLimitMs && r.max_gap_ms <= kGapLimitMs) ++ps.slo_met;
  }
  live_.erase(it);
}

bool WireGen::pump(std::int64_t timeout_ns) {
  std::vector<pollfd> pfds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i)
    pfds[i] = pollfd{conns_[i].fd,
                     static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)), 0};
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (ready <= 0) return ready == 0 || errno == EINTR;
  std::uint8_t buf[1 << 16];
  Frame f;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if ((pfds[i].revents & POLLOUT) && !flush(c)) return false;
    if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      // Every frame of one recv arrived together: one receive stamp.
      const std::int64_t now = wall_ns();
      c.reader.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        const FrameReader::Status st = c.reader.next(f);
        if (st == FrameReader::Status::kError) return false;
        if (st == FrameReader::Status::kNeedMore) break;
        on_frame(f, now);
      }
    }
  }
  return true;
}

PhaseStats WireGen::end_phase(std::int64_t t0, std::int64_t cpu0, std::int64_t gcpu0) {
  // Whatever is still outstanding timed out.
  phase_.counts.attempted += static_cast<long long>(live_.size());
  phase_.counts.failed += static_cast<long long>(live_.size());
  live_.clear();
  for (Conn& c : conns_) c.unsent.clear();
  PhaseStats ps = std::move(phase_);
  phase_ = PhaseStats{};
  ps.proc_cpu_ms = static_cast<double>(process_cpu_ns() - cpu0) * 1e-6;
  ps.gen_cpu_ms = static_cast<double>(thread_cpu_ns() - gcpu0) * 1e-6;
  ps.span_s = static_cast<double>(std::max(last_done_ns_, t0) - t0) * 1e-9;
  return ps;
}

PhaseStats WireGen::run_open(std::int64_t start_ns,
                             const std::vector<acrobat::serve::Request>& trace) {
  const auto due = [&](std::size_t i) { return start_ns + trace[i].arrival_ns; };
  const std::int64_t t0 = trace.empty() ? wall_ns() : due(0);
  const std::int64_t cpu0 = process_cpu_ns(), gcpu0 = thread_cpu_ns();
  last_done_ns_ = t0;
  const std::int64_t give_up = (trace.empty() ? t0 : due(trace.size() - 1)) +
                               static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
  std::size_t next = 0;
  bool alive = true;
  while (alive && (next < trace.size() || !live_.empty())) {
    std::int64_t now = wall_ns();
    while (next < trace.size() && due(next) <= now) {
      send(static_cast<std::uint32_t>(trace[next].input_index), due(next),
           static_cast<int>(next % conns_.size()));
      ++next;
      now = wall_ns();
    }
    if (now > give_up) break;
    // Sleep until the next due time or a response, at most 1 ms.
    const std::int64_t wait = next < trace.size() ? due(next) - now : 1'000'000;
    freed_conns_.clear();  // an open loop does not reissue on completion
    alive = pump(std::clamp<std::int64_t>(wait, 0, 1'000'000));
  }
  // Requests never sent (a connection broke) failed too.
  const auto unsent = static_cast<long long>(trace.size() - next);
  phase_.counts.attempted += unsent;
  phase_.counts.failed += unsent;
  freed_conns_.clear();
  return end_phase(t0, cpu0, gcpu0);
}

PhaseStats WireGen::run_closed(int k, double seconds, const std::vector<std::uint32_t>& inputs) {
  const std::int64_t t0 = wall_ns();
  const std::int64_t cpu0 = process_cpu_ns(), gcpu0 = thread_cpu_ns();
  last_done_ns_ = t0;
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t give_up = stop + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
  std::size_t cursor = 0;
  const auto issue = [&](int conn) { send(inputs[cursor++ % inputs.size()], wall_ns(), conn); };
  for (int i = 0; i < k; ++i) issue(i % static_cast<int>(conns_.size()));
  bool alive = true;
  while (alive && !live_.empty() && wall_ns() < give_up) {
    freed_conns_.clear();
    alive = pump(1'000'000);
    if (wall_ns() < stop)
      for (const int conn : freed_conns_) issue(conn);
  }
  freed_conns_.clear();
  return end_phase(t0, cpu0, gcpu0);
}

}  // namespace perfbench
