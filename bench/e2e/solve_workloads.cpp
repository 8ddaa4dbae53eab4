// solve_workloads.cpp — the three whole-solve workloads.  One operation is
// one full TeaDriver run as its caller sees it: backend construction,
// allocation and painting, the time-marching loop and teardown.
//
//   cg_1000   the paper's Fig. 1 problem (tea_bm geometry, 1000^2, CG,
//             2 steps) on manual-omp over a 4-thread pool: streaming
//             kernels over 104 MB of fields.
//   ppcg_128  PPCG at 128^2 for 60 steps on the same pool: 130 KB fields,
//             so fork-join cost dominates each kernel.
//   mpi_1000  cg_1000's deck on manual-mpi over a 2x2 minimpi world: the
//             difference from cg_1000 is decomposition, halo exchange and
//             the allreduce in every dot.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/backends/manual_host.hpp"
#include "core/driver.hpp"
#include "e2e.hpp"
#include "minimpi/comm.hpp"
#include "threading/thread_pool.hpp"
#include "timed_backend.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

// The tea_bm benchmark deck (TeaLeaf's tea_bm_*.in geometry).
constexpr const char* kTeaBmDeck = R"(*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=10.0 ymin=0.0 ymax=2.0
x_cells=1000
y_cells=1000
xmin=0.0 xmax=10.0 ymin=0.0 ymax=10.0
initial_timestep=0.004
end_step=2
tl_max_iters=10000
tl_use_cg
tl_eps=1.0d-15
*endtea
)";

// The tea_ppcg_precon deck (PPCG, 12 inner steps, density-proportional
// conduction) at 128^2.  Its dt = 0.004 converges every step inside the 30
// CG pre-steps, so PPCG's smoothing would never run; dt = 0.256 makes about
// two thirds of the operator applications polynomial smoothing.  PPCG does
// not apply the deck's jac_diag preconditioner, so the deck leaves it out.
constexpr const char* kPpcgDeck = R"(*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=10.0 ymin=0.0 ymax=2.0
x_cells=128
y_cells=128
xmin=0.0 xmax=10.0 ymin=0.0 ymax=10.0
initial_timestep=0.256
end_step=60
tl_max_iters=10000
tl_use_ppcg
tl_ppcg_inner_steps=12
tl_coefficient_density
tl_eps=1.0d-15
*endtea
)";

// Timed solves every run makes, however fast the build: latency_tail_ms is
// read over these first ones.  cg_1000 and mpi_1000 fit 6 solves of ~2.8 s
// in a 20 s budget; ppcg_128 needs 100 for a p90 with ten solves beyond it.
constexpr std::size_t kMinTimed = 6;
constexpr std::size_t kPpcgMinTimed = 100;

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

tl::ProblemConfig deck(const char* text, int quick_cells, int quick_steps,
                       bool quick) {
  tl::ProblemConfig problem = tl::Config::parse(text).problem();
  if (quick) {
    problem.x_cells = problem.y_cells = quick_cells;
    problem.end_step = quick_steps;
  }
  return problem;
}

/// The correctness oracle of the solve workloads: every solve converges,
/// volume and mass are unchanged across steps, and iterations and final
/// temperature match the first solve bit for bit.
class SolveChecker {
 public:
  void check(const tea::RunResult& result, Outcome& out, long op) {
    ++out.attempted;
    const std::string label = "solve " + std::to_string(op);
    if (!result.all_converged()) return out.fail(label + ": did not converge");
    for (const tea::StepResult& step : result.steps) {
      if (step.summary.vol != result.steps.front().summary.vol ||
          step.summary.mass != result.steps.front().summary.mass) {
        return out.fail(label + ": volume or mass changed at step " +
                        std::to_string(step.step));
      }
    }
    if (!have_reference_) {
      have_reference_ = true;
      iterations_ = result.total_iterations;
      temperature_ = result.final_summary.temp;
    } else if (result.total_iterations != iterations_ ||
               result.final_summary.temp != temperature_) {
      out.fail(label + ": iterations or temperature differ from solve 0");
    }
  }

 private:
  bool have_reference_ = false;
  long iterations_ = 0;
  double temperature_ = 0.0;
};

/// Timed and traced operation samples of one run.
struct Samples {
  std::size_t min_timed = kMinTimed;  // of each kind; 1 on --quick
  std::vector<double> untraced;
  std::vector<double> traced;
  double traced_total = 0.0;
  Clock::time_point begin = Clock::now();
  Clock::time_point last = begin;  // end of the latest operation
  // Peak RSS once the warm-up and the first timed solve are done: a fixed
  // amount of work, so the number does not depend on how many solves fit in
  // the budget.  From the third solve on, a long-lived minimpi world keeps a
  // varying number of freed rank slabs resident (see README).
  double peak_rss = 0.0;

  /// The run has used its budget and has enough samples of each kind.
  bool done(const RunParams& params) const {
    return seconds_since(begin) >= params.seconds &&
           untraced.size() >= min_timed &&
           (!params.trace || traced.size() >= min_timed);
  }
  void add(bool traced_op, double seconds) {
    (traced_op ? traced : untraced).push_back(seconds);
    if (traced_op) traced_total += seconds;
    last = Clock::now();
    if (untraced.size() + traced.size() == 1) peak_rss = peak_rss_mb();
  }
  double wall_seconds() const { return seconds_between(begin, last); }
};

/// Operation `op` is traced on a traced run when it is even; op 0 is the
/// untraced warm-up, so traced and untraced solves alternate after it.
bool is_traced(const RunParams& params, long op) {
  return params.trace && op > 0 && op % 2 == 0;
}

void finish_run(Outcome& out, const RunParams& params,
                const tl::ProblemConfig& problem, const tea::RunResult& warm,
                const std::vector<BackendTimes>& ranks, const Samples& samples,
                double setup_s, tlp::ThreadPool& probe_pool,
                const TraceLog& trace) {
  out.info.push_back("timed solves: " + std::to_string(samples.untraced.size()) +
                     " untraced, " + std::to_string(samples.traced.size()) +
                     " traced, plus 1 warm-up");
  std::string listing = "untraced solve seconds:";
  for (double s : samples.untraced) listing += " " + std::to_string(s);
  out.info.push_back(listing);
  out.info.push_back("solver iterations per solve: " +
                     std::to_string(warm.total_iterations));
  if (!params.trace) {
    const std::vector<double> first(
        samples.untraced.begin(),
        samples.untraced.begin() + static_cast<long>(samples.min_timed));
    add_latency_metrics(out.end_to_end, samples.untraced, first,
                        samples.wall_seconds());
    out.end_to_end["setup_s"] = {setup_s, "s"};
    out.end_to_end["peak_rss_mb"] = {samples.peak_rss, "MB"};
    return;
  }
  Metrics& m = out.per_layer;
  add_host_probes(m, probe_pool,
                  static_cast<long>(problem.x_cells) * problem.y_cells,
                  params.quick);
  add_kernel_layers(m, ranks, static_cast<double>(samples.traced.size()),
                    samples.traced_total);
  tea::ManualHostBackend serial("serial", nullptr, nullptr);
  const long serial_iters = tea::TeaDriver(problem).run(serial).total_iterations;
  out.info.push_back("serial reference iterations: " +
                     std::to_string(serial_iters));
  // The warm-up ran undecorated, so its counters come from the backend's
  // own counter window.
  add_counter_layers(m, warm.counters,
                     static_cast<double>(warm.total_iterations), 1.0,
                     std::fabs(static_cast<double>(warm.total_iterations -
                                                   serial_iters)));
  const double untraced = median(samples.untraced);
  m["trace.overhead_frac"] = {
      untraced > 0.0 ? median(samples.traced) / untraced - 1.0 : 0.0, "ratio"};
  zero_fill_per_layer(m);
  write_trace(out, trace, params.trace_path);
}

/// cg_1000 and ppcg_128: manual-omp on a kThreads pool.
Outcome run_shared(const tl::ProblemConfig& problem, const RunParams& params,
                   std::size_t min_timed) {
  Outcome out;
  const tea::TeaDriver driver(problem);

  // Set-up ends when every worker has answered one (empty) region, as the
  // minimpi world's ends at its first barrier.
  std::unique_ptr<tlp::ThreadPool> pool;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    pool.reset();
    const Clock::time_point start = Clock::now();
    pool = std::make_unique<tlp::ThreadPool>(kThreads);
    pool->parallel_region([](int, int) {});
    return seconds_since(start);
  });

  std::vector<BackendTimes> times(1);
  TraceLog trace;
  trace.name_track(0, "driver");
  const auto solve = [&](long op) {
    const bool traced_op = is_traced(params, op);
    const Clock::time_point start = Clock::now();
    tea::RunResult result;
    {
      tea::ManualHostBackend backend("manual-omp", pool.get(), nullptr);
      if (traced_op) {
        TimedBackend timed(backend, times[0], &trace, 0, op);
        result = driver.run(timed);
      } else {
        result = driver.run(backend);
      }
    }
    if (traced_op) trace.add("solve", 0, op, start, Clock::now());
    return std::make_pair(std::move(result), seconds_since(start));
  };

  SolveChecker checker;
  const tea::RunResult warm = solve(0).first;
  checker.check(warm, out, 0);
  Samples samples;
  samples.min_timed = params.quick ? 1 : min_timed;
  for (long op = 1; !samples.done(params); ++op) {
    const auto [result, seconds] = solve(op);
    checker.check(result, out, op);
    samples.add(is_traced(params, op), seconds);
  }
  finish_run(out, params, problem, warm, times, samples, setup_s, *pool, trace);
  return out;
}

}  // namespace

Outcome run_cg_1000(const RunParams& params) {
  return run_shared(deck(kTeaBmDeck, 64, 2, params.quick), params, kMinTimed);
}

Outcome run_ppcg_128(const RunParams& params) {
  return run_shared(deck(kPpcgDeck, 32, 5, params.quick), params,
                    kPpcgMinTimed);
}

/// mpi_1000: manual-mpi, one single-threaded rank per core.  Every solve of
/// the run happens inside one minimpi world, so world construction is
/// set-up, not part of any solve.
Outcome run_mpi_1000(const RunParams& params) {
  Outcome out;
  const tl::ProblemConfig problem = deck(kTeaBmDeck, 64, 2, params.quick);
  const tea::TeaDriver driver(problem);

  // All but the last world only measure their construction; the last one
  // runs the workload.
  std::vector<double> setup_samples;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    minimpi::run_world(kThreads, [&](minimpi::Comm& comm) {
      comm.barrier();
      if (comm.rank() == 0) setup_samples.push_back(seconds_since(start));
    });
  }

  std::vector<BackendTimes> times(kThreads);
  std::vector<TraceLog> traces(kThreads, TraceLog(100000 / kThreads));
  SolveChecker checker;
  tea::RunResult warm;
  Samples samples;
  samples.min_timed = params.quick ? 1 : kMinTimed;
  const Clock::time_point world_start = Clock::now();
  minimpi::run_world(kThreads, [&](minimpi::Comm& comm) {
    const int rank = comm.rank();
    comm.barrier();
    if (rank == 0) setup_samples.push_back(seconds_since(world_start));
    traces[rank].name_track(rank, "rank " + std::to_string(rank));
    for (long op = 0;; ++op) {
      const bool traced_op = is_traced(params, op);
      comm.barrier();
      const Clock::time_point start = Clock::now();
      tea::RunResult result;
      {
        tea::ManualHostBackend backend("manual-mpi", nullptr, &comm);
        if (traced_op) {
          TimedBackend timed(backend, times[rank], &traces[rank], rank, op);
          result = driver.run(timed);
        } else {
          result = driver.run(backend);
        }
      }
      comm.barrier();
      double stop = 0.0;
      if (rank == 0) {
        const double seconds = seconds_since(start);
        if (traced_op) traces[0].add("solve", 0, op, start, Clock::now());
        checker.check(result, out, op);
        if (op == 0) {
          warm = result;
          samples.begin = Clock::now();
        } else {
          samples.add(traced_op, seconds);
        }
        stop = op > 0 && samples.done(params) ? 1.0 : 0.0;
      }
      if (comm.allreduce(stop, minimpi::ReduceOp::kMax) > 0.0) break;
    }
  });

  TraceLog trace;
  for (const TraceLog& rank_trace : traces) trace.append(rank_trace);
  tlp::ThreadPool probe_pool(kThreads);
  finish_run(out, params, problem, warm, times, samples, median(setup_samples),
             probe_pool, trace);
  return out;
}

}  // namespace e2e
