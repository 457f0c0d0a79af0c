#include "common.h"

#include <cstring>
#include <filesystem>
#include <ctime>
#include <sched.h>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unistd.h>

#include "acrobat/tensor/ops.h"
#include "acrobat/support/rng.h"

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// "VmHWM:   12345 kB" from /proc/<pid>/status.
double status_hwm_mb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

}  // namespace

std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double self_peak_rss_mb() { return status_hwm_mb("/proc/self/status"); }

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double pid_peak_rss_mb(int pid) {
  return status_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

std::int64_t pid_cpu_ns(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t rp = all.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream rest(all.substr(rp + 2));
  std::string f;
  long long utime = 0, stime = 0;
  for (int field = 3; rest >> f; ++field) {
    if (field == 14) utime = std::atoll(f.c_str());
    if (field == 15) {
      stime = std::atoll(f.c_str());
      break;
    }
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000 / (hz > 0 ? hz : 100));
}

double Samples::pct(double q) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(v_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v_.size());
  return v_[rank - 1];
}

std::size_t Samples::beyond(double q) const {
  if (v_.empty()) return 0;
  const double p = pct(q);
  return static_cast<std::size_t>(v_.end() - std::upper_bound(v_.begin(), v_.end(), p));
}

void log_pct(const char* what, const Samples& s, double q) {
  std::printf("  %-28s p%-5g = %10.4f  (n=%zu, %zu beyond)\n", what, q * 100, s.pct(q),
              s.count(), s.beyond(q));
}

void log_counts(const char* what, const Counts& c) {
  std::printf("  %-28s attempted=%lld succeeded=%lld refused=%lld failed=%lld mismatched=%lld\n",
              what, c.attempted, c.succeeded, c.refused, c.failed, c.mismatched);
}

void add_counts(Counts& into, const Counts& c) {
  into.attempted += c.attempted;
  into.succeeded += c.succeeded;
  into.refused += c.refused;
  into.failed += c.failed;
  into.mismatched += c.mismatched;
}

void log_setup(const std::vector<double>& setup_s) {
  std::printf("  set-up s:");
  for (const double s : setup_s) std::printf(" %.6f", s);
  std::printf("  (median %.6f)\n", median(setup_s));
}

double slice_quantile(const char* what, const std::vector<double>& per_slice, double q) {
  Samples s;
  for (const double v : per_slice) s.add(v);
  const double x = s.pct(q);
  std::printf("  %-28s p%-4g = %10.4f  over %zu slices:", what, q * 100, x, per_slice.size());
  for (const double v : per_slice) std::printf(" %.4g", v);
  std::printf("\n");
  return x;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// The CPUs use_cpus chose; pin_threads places threads on these even after
// the calling thread itself was pinned to one of them.
std::vector<int> g_cpus;

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  return cpus;
}

std::vector<int> thread_ids() {
  std::vector<int> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(std::atoi(e.path().filename().c_str()));
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

bool use_cpus(int n) {
  const std::vector<int> allowed = allowed_cpus();
  if (static_cast<int>(allowed.size()) < n) return false;
  cpu_set_t use;
  CPU_ZERO(&use);
  std::printf("  running on CPUs");
  for (int i = 0; i < n; ++i) {
    CPU_SET(allowed[static_cast<std::size_t>(i)], &use);
    g_cpus.push_back(allowed[static_cast<std::size_t>(i)]);
    std::printf(" %d", allowed[static_cast<std::size_t>(i)]);
  }
  std::printf("\n");
  return sched_setaffinity(0, sizeof use, &use) == 0;
}

std::size_t thread_count() { return thread_ids().size(); }

bool pin_threads(int skip_tid) {
  const std::vector<int>& cpus = g_cpus;
  if (cpus.empty()) return false;
  std::vector<int> tids = thread_ids();
  std::erase(tids, skip_tid);
  std::printf("  threads pinned (tid:cpu):");
  for (std::size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    const int cpu = cpus[i % cpus.size()];
    CPU_SET(cpu, &one);
    if (sched_setaffinity(tids[i], sizeof one, &one) != 0) return false;
    std::printf(" %d:%d", tids[i], cpu);
  }
  std::printf("\n");
  return true;
}

bool unpin_self() {
  cpu_set_t use;
  CPU_ZERO(&use);
  for (const int cpu : g_cpus) CPU_SET(cpu, &use);
  return sched_setaffinity(0, sizeof use, &use) == 0;
}

double host_spin_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = wall_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const std::int64_t t1 = wall_ns();
    // Keep the loop observable so it cannot be folded away.
    if (x == 0) std::printf("spin state 0\n");
    t.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  return median(t);
}

std::pair<long long, long long> host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 1; field <= 8 && in >> v; ++field) {
    total += v;
    if (field == 8) steal = v;
  }
  return {steal, total};
}

std::vector<std::vector<float>> solo_references(const acrobat::harness::Prepared& p,
                                                const acrobat::models::Dataset& ds) {
  std::vector<std::vector<float>> out;
  out.reserve(ds.inputs.size());
  for (std::size_t i = 0; i < ds.inputs.size(); ++i) {
    acrobat::models::Dataset one;
    one.pool = ds.pool;
    one.tensors = ds.tensors;
    one.inputs.push_back(ds.inputs[i]);
    acrobat::harness::RunOptions o;
    o.collect_outputs = true;
    out.push_back(acrobat::harness::run_acrobat(p, one, o).outputs.at(0));
  }
  return out;
}

bool bitwise_equal(const float* a, std::size_t n, const std::vector<float>& b) {
  return n == b.size() && (n == 0 || std::memcmp(a, b.data(), n * sizeof(float)) == 0);
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return bitwise_equal(a.data(), a.size(), b);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},          {"ok_share", "share"},        {"peak_rss_mb", "MB"},
      {"cpu_ms_per_op", "ms"},   {"ops_per_s", "1/s"},         {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},  {"tokens_per_s", "1/s"},      {"ttft_p50_ms", "ms"},
      {"ttft_p99_ms", "ms"},     {"itl_p99_ms", "ms"},         {"slo_attainment", "share"},
      {"slo_rps", "1/s"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"tensor.kernel_ms", "ms"},
      {"tensor.dense_gflops", "GFLOP/s"},
      {"tensor.tanh_ns_per_elem", "ns"},
      {"engine.dfg_ms", "ms"},
      {"engine.sched_ms", "ms"},
      {"engine.gather_ms", "ms"},
      {"engine.launch_ms", "ms"},
      {"engine.unattributed_ms", "ms"},
      {"engine.launches", "count"},
      {"engine.fused_share", "share"},
      {"engine.memo_hit_rate", "share"},
      {"engine.arena_peak_kb", "KiB"},
      {"engine.node_table_peak", "count"},
      {"engine.session_buffers_peak", "count"},
      {"runtime.triggers_per_op", "count"},
      {"runtime.stacks_allocated", "count"},
      {"models.treelstm.batch_ms_p50", "ms"},
      {"models.birnn.batch_ms_p50", "ms"},
      {"models.drnn.batch_ms_p50", "ms"},
      {"models.berxit.batch_ms_p50", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.max_live", "count"},
      {"fleet.shed_share", "share"},
      {"fleet.attainment.interactive", "share"},
      {"fleet.attainment.batch", "share"},
      {"fleet.attainment.best_effort", "share"},
      {"net.ingress_ttft_ms", "ms"},
      {"net.burst_share", "share"},
      {"net.idle_cpu_pct", "%"},
      {"net.rejected_429", "count"},
      {"net.admission_peak", "count"},
      {"net.write_buf_peak", "B"},
      {"net.worker_deaths", "count"},
      {"net.worker_respawns", "count"},
      {"net.worker_rss_mb", "MB"},
      {"setup.prepare_s", "s"},
      {"setup.registry_s", "s"},
      {"setup.start_s", "s"},
      {"gen.lag_p99_ms", "ms"},
      {"host.spin_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

void add_stats(acrobat::ActivityStats& into, const acrobat::ActivityStats& s) {
  into.dfg_construction.add(s.dfg_construction.ns);
  into.scheduling.add(s.scheduling.ns);
  into.gather_copy.add(s.gather_copy.ns);
  into.kernel_exec.add(s.kernel_exec.ns);
  into.launch_overhead.add(s.launch_overhead.ns);
  into.kernel_launches += s.kernel_launches;
  into.flat_batches += s.flat_batches;
  into.stacked_batches += s.stacked_batches;
  into.sched_cache_hits += s.sched_cache_hits;
  into.sched_cache_misses += s.sched_cache_misses;
}

void set_engine_layers(Report& rep, const acrobat::ActivityStats& s, double ops) {
  rep.set("tensor.kernel_ms", s.kernel_exec.ms() / ops);
  rep.set("engine.dfg_ms", s.dfg_construction.ms() / ops);
  rep.set("engine.sched_ms", s.scheduling.ms() / ops);
  rep.set("engine.gather_ms", s.gather_copy.ms() / ops);
  rep.set("engine.launch_ms", s.launch_overhead.ms() / ops);
  rep.set("engine.launches", static_cast<double>(s.kernel_launches) / ops);
  rep.set("engine.fused_share",
          s.kernel_launches > 0
              ? static_cast<double>(s.flat_batches + s.stacked_batches) / s.kernel_launches
              : 0.0);
  const long long probes = s.sched_cache_hits + s.sched_cache_misses;
  rep.set("engine.memo_hit_rate",
          probes > 0 ? static_cast<double>(s.sched_cache_hits) / probes : 0.0);
}

void set_shard_layers(Report& rep, const std::vector<acrobat::serve::ShardReport>& shards,
                      double ops) {
  long long triggers = 0, stacks = 0;
  std::size_t max_live = 0, arena = 0, nodes = 0, sessions = 0;
  for (const acrobat::serve::ShardReport& sh : shards) {
    triggers += sh.triggers;
    stacks += sh.stacks_allocated;
    max_live = std::max(max_live, sh.max_live);
    arena = std::max(arena, sh.mem.arena_high_water_bytes);
    nodes = std::max(nodes, sh.mem.node_table_size);
    sessions = std::max(sessions, sh.mem.session_buffers_peak);
  }
  rep.set("engine.arena_peak_kb", static_cast<double>(arena) / 1024.0);
  rep.set("engine.node_table_peak", static_cast<double>(nodes));
  rep.set("engine.session_buffers_peak", static_cast<double>(sessions));
  rep.set("runtime.triggers_per_op", static_cast<double>(triggers) / ops);
  rep.set("runtime.stacks_allocated", static_cast<double>(stacks));
  rep.set("serve.max_live", static_cast<double>(max_live));
}

void tensor_probe(Report& rep) {
  using namespace acrobat;
  // BiRNN-large at batch 64: the stacked GRU dense is (64, 2h) x (3h, 2h)^T
  // with h = 40, and the batched elementwise tail runs over (64, h).
  const int h = models::hidden_dim(true);
  const int m = 64, k = 2 * h, n = 3 * h;
  Rng rng(0x5eed);
  TensorPool pool;
  const Tensor x = pool.alloc_random(Shape(m, k), rng, 1.0f);
  const Tensor w = pool.alloc_random(Shape(n, k), rng, 1.0f);
  Tensor y = pool.alloc(Shape(m, n));
  const Tensor t_in = pool.alloc_random(Shape(m, h), rng, 2.0f);
  Tensor t_out = pool.alloc(Shape(m, h));

  const auto time_op = [&](OpKind kind, const Tensor* const* ins, int n_ins, Tensor& out) {
    const float* ptrs[4];
    Shape shapes[4];
    for (int i = 0; i < n_ins; ++i) {
      ptrs[i] = ins[i]->data;
      shapes[i] = ins[i]->shape;
    }
    const int variant = op_num_variants(kind) - 1;  // the default schedule
    std::vector<double> per_call_ns;
    for (int rep_i = 0; rep_i < 9; ++rep_i) {
      const int calls = 400;
      const std::int64_t t0 = wall_ns();
      for (int c = 0; c < calls; ++c)
        run_op(kind, variant, ptrs, shapes, out.data, out.shape, 0);
      per_call_ns.push_back(static_cast<double>(wall_ns() - t0) / calls);
    }
    return median(per_call_ns);
  };

  const Tensor* dense_ins[2] = {&x, &w};
  const double dense_ns = time_op(OpKind::kDense, dense_ins, 2, y);
  const Tensor* tanh_ins[1] = {&t_in};
  const double tanh_ns = time_op(OpKind::kTanh, tanh_ins, 1, t_out);
  // FLOPs from the shapes: one multiply and one add per (m, n, k) triple.
  const double flops = 2.0 * m * n * k;
  rep.set("tensor.dense_gflops", flops / dense_ns);
  rep.set("tensor.tanh_ns_per_elem", tanh_ns / (m * h));
  std::printf("  tensor probe: dense (%d,%d)x(%d,%d)^T %.0f ns/call, %.0f FLOP, %.0f bytes read; "
              "tanh (%d,%d) %.0f ns/call\n",
              m, k, n, k, dense_ns, flops, 4.0 * (m * k + n * k), m, h, tanh_ns);
}

}  // namespace perfbench
