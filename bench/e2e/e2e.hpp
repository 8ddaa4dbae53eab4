// e2e.hpp — shared pieces of the end-to-end benchmark (bench_e2e): the
// metric record every workload fills, the run parameters, sample statistics
// and the same-run probes.  The workloads (solve_workloads.cpp,
// net_workload.cpp) measure the library only through its public entry
// points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace machine {
struct Counters;
}
namespace tlp {
class ThreadPool;
}

namespace e2e {

struct BackendTimes;
class TraceLog;

/// Compute threads (or ranks) every workload uses: the paper's node is
/// driven at full width, and the benchmark host has four cores.
inline constexpr int kThreads = 4;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// How long and how large one run is.  `seconds` is the measuring budget; a
/// workload keeps measuring until it is used up and the workload has its
/// minimum number of operations.
struct RunParams {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;  // tiny inputs for the --quick self-check
  std::string trace_path;  // Chrome trace written here when `trace`
};

/// What one workload run reports.  `end_to_end` is filled on untraced runs,
/// `per_layer` on traced ones; `info` lines are printed but not part of the
/// JSON record.
struct Outcome {
  Metrics end_to_end;
  Metrics per_layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> info;
  std::vector<std::string> errors;  // one line per failed check

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

using Workload = Outcome (*)(const RunParams&);

Outcome run_cg_1000(const RunParams& params);
Outcome run_ppcg_128(const RunParams& params);
Outcome run_mpi_1000(const RunParams& params);
Outcome run_net_mix(const RunParams& params);

// --- sample statistics --------------------------------------------------------

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> samples);
/// Nearest-rank percentile, q in (0, 1]: the slowest sample when fewer than
/// 1/(1-q) samples exist.
double percentile(std::vector<double> samples, double q);

/// Metrics every workload shares: the per-operation latency view of the
/// end-to-end record.  solve_s is the median of all `op_seconds`;
/// latency_tail_ms is taken over `tail`, the times of a set of operations of
/// fixed size that every run of the workload completes (so a faster build
/// is not read at a different percentile): the sample with ten samples
/// beyond it, or a tenth of them when there are fewer than 100 (the slowest
/// one below 10); throughput_sps counts all operations over
/// `measured_seconds`.
void add_latency_metrics(Metrics& metrics, const std::vector<double>& op_seconds,
                         std::vector<double> tail, double measured_seconds);

/// kernel.*, driver.* and, for more than one rank, halo.s, halo.dot_s and
/// rank.imbalance, per driver run, from the per-rank TimedBackend totals of
/// `runs` traced runs that took `run_seconds` in all on rank 0.
/// kernel.<k>.roof_frac needs host.triad_gbs already in `metrics`.
void add_kernel_layers(Metrics& metrics, const std::vector<BackendTimes>& ranks,
                       double runs, double run_seconds);

/// solver.*, counters.* and halo.*_per_iter from the exact counters of
/// `runs` driver runs that took `iterations` solver iterations in all.
void add_counter_layers(Metrics& metrics, const machine::Counters& counters,
                        double iterations, double runs, double iters_vs_serial);

/// Per-layer metrics of layers a workload does not exercise read 0, so every
/// traced run emits the same metric set.
void zero_fill_per_layer(Metrics& metrics);

/// Write `trace` as Chrome trace JSON to `path` and note it in `out.info`.
void write_trace(Outcome& out, const TraceLog& trace, const std::string& path);

// --- same-run probes ------------------------------------------------------------

/// Set-ups per run behind setup_s: one set-up takes tens of microseconds,
/// so a single sample is mostly scheduling noise, and the median of a few
/// dozen still moved by 15% between runs.
inline constexpr int kSetupRepeats = 2001;

/// Median over `repeats` of the wall time of `setup()` (the value returned,
/// in seconds).  Used for the setup_s metric.
template <typename SetupFn>
double median_setup_seconds(int repeats, SetupFn&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) samples.push_back(setup());
  return median(samples);
}

/// Peak resident set of this process in MB (ru_maxrss).
double peak_rss_mb();

/// host.triad_gbs (a STREAM triad over three arrays of `field_cells`
/// doubles) and threading.fork_join_us.{p50,p90} (empty parallel_for round
/// trips) on `pool`.
void add_host_probes(Metrics& metrics, tlp::ThreadPool& pool, long field_cells,
                     bool quick);

}  // namespace e2e
