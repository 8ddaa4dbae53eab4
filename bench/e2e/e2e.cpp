#include "e2e.hpp"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

#include "common/aligned_buffer.hpp"
#include "machine/instrumentation.hpp"
#include "threading/thread_pool.hpp"
#include "timed_backend.hpp"
#include "trace.hpp"

namespace e2e {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

void add_latency_metrics(Metrics& metrics, const std::vector<double>& op_seconds,
                         std::vector<double> tail,
                         double measured_seconds) {
  metrics["solve_s"] = {median(op_seconds), "s"};
  std::sort(tail.begin(), tail.end());
  const std::size_t beyond = std::min<std::size_t>(10, tail.size() / 10);
  metrics["latency_tail_ms"] = {
      tail.empty() ? 0.0 : 1e3 * tail[tail.size() - 1 - beyond], "ms"};
  metrics["throughput_sps"] = {
      measured_seconds > 0.0
          ? static_cast<double>(op_seconds.size()) / measured_seconds
          : 0.0,
      "1/s"};
}

void add_kernel_layers(Metrics& m, const std::vector<BackendTimes>& ranks,
                       double runs, double run_seconds) {
  const double n = std::max(1.0, runs);
  const BackendTimes& root = ranks.front();
  const double triad = m["host.triad_gbs"].value;
  double root_calls = 0.0;
  for (int k = 0; k < kNumKernels; ++k) {
    // Ranks run concurrently: the slowest rank's time, everyone's bytes.
    double seconds = 0.0;
    double bytes = 0.0;
    for (const BackendTimes& rank : ranks) {
      seconds = std::max(seconds, rank.kernels[k].seconds / n);
      bytes += rank.kernels[k].bytes / n;
    }
    const double gbs = seconds > 0.0 ? bytes / seconds * 1e-9 : 0.0;
    const std::string base = std::string("kernel.") + kKernelNames[k];
    m[base + ".calls"] = {root.kernels[k].calls / n, "count"};
    m[base + ".s"] = {seconds, "s"};
    m[base + ".gbs"] = {gbs, "GB/s"};
    m[base + ".roof_frac"] = {triad > 0.0 ? gbs / triad : 0.0, "ratio"};
    root_calls += root.kernels[k].calls;
  }
  m["kernel.us_per_call"] = {
      root_calls > 0.0 ? 1e6 * root.kernel_seconds() / root_calls : 0.0, "us"};
  m["driver.setup_s"] = {root.setup_seconds / n, "s"};
  m["driver.self_s"] = {
      (run_seconds - root.setup_seconds - root.kernel_seconds()) / n, "s"};

  // Rank-level view of a decomposed run: the slowest rank's exchange and
  // dot time (a dot waits in its allreduce for the slowest rank), and the
  // spread of purely local compute.  A single backend has no ranks.
  if (ranks.size() < 2) return;
  double halo = 0.0, dot = 0.0, local_max = 0.0, local_sum = 0.0;
  for (const BackendTimes& rank : ranks) {
    halo = std::max(halo, rank.halo_seconds / n);
    dot = std::max(dot,
                   rank.kernels[static_cast<int>(Kernel::kDot)].seconds / n);
    double local = 0.0;
    for (Kernel k : {Kernel::kAxpy, Kernel::kZaxpy, Kernel::kSmoothUpdate}) {
      local += rank.kernels[static_cast<int>(k)].seconds;
    }
    local_max = std::max(local_max, local);
    local_sum += local;
  }
  const double local_mean = local_sum / static_cast<double>(ranks.size());
  m["halo.s"] = {halo, "s"};
  m["halo.dot_s"] = {dot, "s"};
  m["rank.imbalance"] = {
      local_mean > 0.0 ? local_max / local_mean - 1.0 : 0.0, "ratio"};
}

void add_counter_layers(Metrics& m, const machine::Counters& c,
                        double iterations, double runs,
                        double iters_vs_serial) {
  const double iters = std::max(1.0, iterations);
  m["solver.iters"] = {iterations / std::max(1.0, runs), "count"};
  m["solver.iters_vs_serial"] = {iters_vs_serial, "count"};
  m["counters.launches_per_iter"] = {c.kernel_launches / iters, "count"};
  m["counters.bytes_per_iter"] = {c.total_bytes() / iters, "B"};
  m["counters.flops_per_iter"] = {c.flops / iters, "flop"};
  m["counters.reductions_per_iter"] = {c.reductions / iters, "count"};
  m["halo.messages_per_iter"] = {c.messages / iters, "count"};
  m["halo.bytes_per_iter"] = {c.message_bytes / iters, "B"};
}

void zero_fill_per_layer(Metrics& metrics) {
  struct Entry {
    std::string name;
    const char* unit;
  };
  std::vector<Entry> entries;
  for (const char* kernel : kKernelNames) {
    const std::string base = std::string("kernel.") + kernel;
    entries.push_back({base + ".calls", "count"});
    entries.push_back({base + ".s", "s"});
    entries.push_back({base + ".gbs", "GB/s"});
    entries.push_back({base + ".roof_frac", "ratio"});
  }
  const Entry rest[] = {
      {"kernel.us_per_call", "us"},
      {"threading.fork_join_us.p50", "us"},
      {"threading.fork_join_us.p90", "us"},
      {"host.triad_gbs", "GB/s"},
      {"counters.launches_per_iter", "count"},
      {"counters.bytes_per_iter", "B"},
      {"counters.flops_per_iter", "flop"},
      {"counters.reductions_per_iter", "count"},
      {"solver.iters", "count"},
      {"solver.iters_vs_serial", "count"},
      {"driver.setup_s", "s"},
      {"driver.self_s", "s"},
      {"halo.messages_per_iter", "count"},
      {"halo.bytes_per_iter", "B"},
      {"halo.s", "s"},
      {"halo.dot_s", "s"},
      {"rank.imbalance", "ratio"},
      {"service.queue_ms.p50", "ms"},
      {"service.queue_ms.p99", "ms"},
      {"service.solve_ms.p50", "ms"},
      {"service.solve_ms.p99", "ms"},
      {"service.batch_frac", "ratio"},
      {"service.arena_reuse_frac", "ratio"},
      {"service.busy_per_req", "ratio"},
      {"net.wire_ms.p50", "ms"},
      {"net.wire_ms.p99", "ms"},
      {"net.codec_us", "us"},
      {"net.bytes_per_req", "B"},
      {"trace.overhead_frac", "ratio"},
  };
  entries.insert(entries.end(), std::begin(rest), std::end(rest));
  for (const Entry& entry : entries) {
    metrics.emplace(entry.name, Metric{0.0, entry.unit});
  }
}

void write_trace(Outcome& out, const TraceLog& trace, const std::string& path) {
  trace.write(path);
  out.info.push_back("trace: " + path + " (" + std::to_string(trace.size()) +
                     " spans, " + std::to_string(trace.dropped()) +
                     " dropped)");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// STREAM triad a = b + s c over `cells` doubles on `pool`; median GB/s
/// counting 24 bytes per cell.
double triad_gbs(tlp::ThreadPool& pool, long cells, double budget_seconds) {
  const auto n = static_cast<std::size_t>(cells);
  tl::AlignedBuffer<double> a(n, tl::uninitialized);
  tl::AlignedBuffer<double> b(n, tl::uninitialized);
  tl::AlignedBuffer<double> c(n, tl::uninitialized);
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
  // First touch on the pool, as the backends place their fields.
  pool.parallel_for(0, cells, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  std::vector<double> rates;
  const Clock::time_point stop = plus_seconds(Clock::now(), budget_seconds);
  while (rates.size() < 5 || Clock::now() < stop) {
    const Clock::time_point start = Clock::now();
    pool.parallel_for(0, cells, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    rates.push_back(24.0 * static_cast<double>(cells) /
                    seconds_between(start, Clock::now()) * 1e-9);
  }
  return median(rates);
}

/// Empty parallel_for round trips on `pool`, in microseconds.
std::vector<double> fork_join_us(tlp::ThreadPool& pool, int samples) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point start = Clock::now();
    pool.parallel_for(0, pool.size(), [](long, long) {});
    out.push_back(1e6 * seconds_between(start, Clock::now()));
  }
  return out;
}

}  // namespace

void add_host_probes(Metrics& metrics, tlp::ThreadPool& pool, long field_cells,
                     bool quick) {
  metrics["host.triad_gbs"] = {
      triad_gbs(pool, field_cells, quick ? 0.01 : 0.3), "GB/s"};
  const std::vector<double> fork_join = fork_join_us(pool, quick ? 200 : 5000);
  metrics["threading.fork_join_us.p50"] = {median(fork_join), "us"};
  metrics["threading.fork_join_us.p90"] = {percentile(fork_join, 0.90), "us"};
}

}  // namespace e2e
