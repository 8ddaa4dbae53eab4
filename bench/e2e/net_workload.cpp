// net_workload.cpp — net_mix: the solve daemon over its wire protocol.
//
// An in-process net::Server listens on a Unix socket in front of a
// SolveService in portable mode (no tuning: tuned winners differ run to
// run).  The benchmark's own closed-loop client drives it through
// net::Client: 8 connections, each a caller that waits for its reply before
// sending the next request, so 8 requests are in flight.
//
// The deck population is fixed — gen::generate(11, 32) plus 8 converging
// --stress decks — so the latency distribution is the same for every seed;
// the seed shuffles the request order.  Each round of 80 requests holds
// every deck once (cold keys) and 10 requests for each of 4 hot decks, so
// half the traffic repeats a key and exercises same-key batching and arena
// reuse, and the heavy stress decks set the tail.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "common/rng.hpp"
#include "core/backends/manual_host.hpp"
#include "core/driver.hpp"
#include "e2e.hpp"
#include "gen/generator.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "threading/thread_pool.hpp"
#include "timed_backend.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

constexpr std::uint64_t kPopulationSeed = 11;
constexpr int kGeneratedDecks = 32;
// The first 8 decks of gen --stress --seed 11 that converge; the others hit
// their iteration cap, which the benchmark would count as failures.
constexpr int kStressDecks[] = {6, 9, 11, 13, 14, 19, 20, 25};
// Hot decks, one per solver family: cg, jacobi, ppcg, chebyshev.
constexpr int kHotDecks[] = {4, 6, 9, 19};
constexpr int kHotRepeats = 10;  // per hot deck per round
constexpr int kConnections = 8;
constexpr int kShardThreads = 1;
constexpr long kMinRequests = 1500;
constexpr long kQuickRequests = 40;

struct Deck {
  std::string name;
  tl::ProblemConfig problem;       // as the server parses it off the wire
  service::SolveResponse golden;   // in-process solve on the shard setup
};

std::vector<Deck> population() {
  std::vector<Deck> decks;
  const auto add = [&](const gen::GeneratedDeck& generated) {
    Deck deck;
    deck.name = generated.name;
    deck.problem = net::request_problem(
        net::make_request(0, generated.name, generated.problem));
    decks.push_back(std::move(deck));
  };
  gen::GenOptions options;
  options.seed = kPopulationSeed;
  options.count = kGeneratedDecks;
  for (const gen::GeneratedDeck& d : gen::generate(options)) add(d);
  options.stress = true;
  options.count = *std::max_element(std::begin(kStressDecks),
                                    std::end(kStressDecks)) + 1;
  const std::vector<gen::GeneratedDeck> stress = gen::generate(options);
  for (int index : kStressDecks) add(stress[static_cast<std::size_t>(index)]);
  return decks;
}

service::SolveResponse golden_fields(const tea::RunResult& result) {
  service::SolveResponse r;
  r.converged = result.all_converged();
  r.iterations = result.total_iterations;
  for (const tea::StepResult& step : result.steps)
    r.inner_iterations += step.solve.inner_iterations;
  if (!result.steps.empty()) {
    r.initial_rr = result.steps.front().solve.initial_rr;
    r.final_rr = result.steps.back().solve.final_rr;
  }
  r.final_temperature = result.final_summary.temp;
  return r;
}

bool same_golden(const service::SolveResponse& a,
                 const service::SolveResponse& b) {
  return a.converged == b.converged && a.iterations == b.iterations &&
         a.inner_iterations == b.inner_iterations &&
         a.initial_rr == b.initial_rr && a.final_rr == b.final_rr &&
         a.final_temperature == b.final_temperature;
}

/// The request order: round r is a seeded shuffle of the round multiset.
std::vector<int> request_sequence(std::uint64_t seed, std::size_t decks,
                                  std::size_t length) {
  std::vector<int> round;
  for (std::size_t i = 0; i < decks; ++i) round.push_back(static_cast<int>(i));
  for (int hot : kHotDecks) round.insert(round.end(), kHotRepeats, hot);
  tl::Rng rng(seed);
  std::vector<int> sequence;
  while (sequence.size() < length) {
    for (std::size_t i = round.size() - 1; i > 0; --i) {
      std::swap(round[i], round[rng.next_below(i + 1)]);
    }
    sequence.insert(sequence.end(), round.begin(), round.end());
  }
  return sequence;
}

/// One service + server + its client connections: the set-up a deployment
/// pays before serving.  Owns the server's event-loop thread.
class Stack {
 public:
  Stack(const std::string& address, int connections) {
    service::ServiceOptions options;
    options.workers = 2;
    options.threads_per_worker = kShardThreads;
    options.queue_capacity = 8;
    options.max_batch = 4;
    options.enable_tuning = false;
    service_ = std::make_unique<service::SolveService>(options);
    net::ServerOptions server_options;
    server_options.address = address;
    server_ = std::make_unique<net::Server>(*service_, server_options);
    server_->open();
    loop_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        loop_error_ = e.what();
      }
    });
    try {
      for (int i = 0; i < connections; ++i) {
        clients_.push_back(
            std::make_unique<net::Client>(server_->address().to_string()));
      }
      clients_.front()->stats();  // the event loop is serving
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~Stack() { shutdown(); }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  net::Client& client(int i) { return *clients_[static_cast<std::size_t>(i)]; }

  /// Close the connections, drain the server and the service; returns the
  /// event loop's error, if it failed.  Idempotent.
  std::string shutdown() {
    clients_.clear();
    if (loop_.joinable()) {
      server_->request_stop();
      loop_.join();
    }
    service_->shutdown();
    return loop_error_;
  }

 private:
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::string loop_error_;
  std::thread loop_;
};

struct Request {
  int deck = 0;
  Clock::time_point submitted;  // first submission
  Clock::time_point replied;
  service::SolveResponse response;
};

struct ConnectionResult {
  std::vector<Request> requests;
  long busy = 0;
  std::string error;
};

/// One closed-loop caller: submit, wait for the reply (resubmitting on
/// BUSY), repeat, taking this connection's share of the sequence, until the
/// budget and the minimum count are used up.  One request in flight per
/// connection: net::Client::wait reads replies for a given id, so a
/// pipelined caller would charge a slow reply's wait to every request
/// queued behind it on the connection.
void drive_connection(net::Client& client, int connection,
                      const std::vector<Deck>& decks,
                      const std::vector<int>& sequence, Clock::time_point stop,
                      long min_requests, ConnectionResult& out) {
  try {
    for (long next = 0; next < min_requests || Clock::now() < stop; ++next) {
      Request request;
      request.deck = sequence[static_cast<std::size_t>(
                                  next * kConnections + connection) %
                              sequence.size()];
      const Deck& deck = decks[static_cast<std::size_t>(request.deck)];
      request.submitted = Clock::now();
      net::WireReply reply = client.solve(deck.problem, deck.name);
      while (reply.busy) {
        ++out.busy;
        reply = client.solve(deck.problem, deck.name);
      }
      request.replied = Clock::now();
      request.response = std::move(reply.response);
      out.requests.push_back(std::move(request));
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// Mean microseconds of one request's trip through the public codec calls
/// (client encode, server decode and parse, server encode, client decode),
/// and the mean bytes both frames put on the wire, over the round multiset.
void add_codec_metrics(Metrics& m, const std::vector<Deck>& decks,
                       const std::vector<int>& round, int repeats) {
  double bytes = 0.0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    for (int index : round) {
      const Deck& deck = decks[static_cast<std::size_t>(index)];
      const std::string request = net::encode_request(
          net::make_request(1, deck.name, deck.problem));
      const tl::ProblemConfig parsed =
          net::request_problem(net::decode_request(request));
      const std::string response = net::encode_response(1, deck.golden);
      const net::WireReply reply =
          net::decode_reply(net::Frame{net::FrameType::kResponse, response});
      if (parsed.x_cells != deck.problem.x_cells || reply.id != 1) {
        throw tl::Error("codec round trip changed " + deck.name);
      }
      if (rep == 0) {
        bytes += static_cast<double>(
            net::encode_frame(net::FrameType::kRequest, request).size() +
            net::encode_frame(net::FrameType::kResponse, response).size());
      }
    }
  }
  const double calls = static_cast<double>(repeats) * round.size();
  m["net.codec_us"] = {1e6 * seconds_between(start, Clock::now()) / calls,
                       "us"};
  m["net.bytes_per_req"] = {bytes / round.size(), "B"};
}

}  // namespace

Outcome run_net_mix(const RunParams& params) {
  Outcome out;

  // Inputs and the oracle, outside every timed region: each distinct deck
  // solved in-process on manual-omp at the shard's thread count (traced
  // runs time those solves kernel by kernel).
  std::vector<Deck> decks = population();
  std::vector<BackendTimes> oracle_times(1);
  // The oracle's kernel spans get their own, smaller log so they cannot
  // crowd the request spans out of the trace.
  TraceLog oracle_trace(50000);
  const int oracle_track = kConnections;
  oracle_trace.name_track(oracle_track, "in-process oracle");
  machine::Counters counters;
  double iterations = 0.0, oracle_seconds = 0.0, iters_vs_serial = 0.0;
  {
    tlp::ThreadPool shard_pool(kShardThreads);
    for (std::size_t i = 0; i < decks.size(); ++i) {
      Deck& deck = decks[i];
      const tea::TeaDriver driver(deck.problem);
      const Clock::time_point start = Clock::now();
      tea::RunResult result;
      {
        tea::ManualHostBackend backend("manual-omp", &shard_pool, nullptr);
        if (params.trace) {
          TimedBackend timed(backend, oracle_times[0], &oracle_trace,
                             oracle_track, static_cast<long>(i));
          result = driver.run(timed);
        } else {
          result = driver.run(backend);
        }
      }
      oracle_seconds += seconds_between(start, Clock::now());
      deck.golden = golden_fields(result);
      counters += result.counters;
      iterations += static_cast<double>(result.total_iterations);
      if (params.trace) {
        tea::ManualHostBackend serial("serial", nullptr, nullptr);
        iters_vs_serial += std::fabs(static_cast<double>(
            result.total_iterations - driver.run(serial).total_iterations));
      }
    }
  }

  // In the working directory: a socket path must fit in sun_path (108
  // bytes), which a path through a deep checkout or build directory may not.
  // The server removes the file when it stops.
  const std::string address =
      "unix:e2e-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = std::make_unique<Stack>(address, kConnections);
    return seconds_between(start, Clock::now());
  });

  // Requests every connection sends, however fast the build: the tail is
  // read over these.
  const long per_connection =
      ((params.quick ? kQuickRequests : kMinRequests) + kConnections - 1) /
      kConnections;
  const std::vector<int> sequence =
      request_sequence(params.seed, decks.size(), 64000);
  std::vector<ConnectionResult> results(kConnections);
  const Clock::time_point begin = Clock::now();
  const Clock::time_point stop = plus_seconds(begin, params.seconds);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(drive_connection, std::ref(stack->client(c)), c,
                           std::cref(decks), std::cref(sequence), stop,
                           per_connection, std::ref(results[c]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  const service::ServiceStats stats = stack->client(0).stats();
  const std::string loop_error = stack->shutdown();
  stack.reset();
  if (!loop_error.empty()) out.fail("server event loop: " + loop_error);

  // Check every reply against the oracle and gather the samples.  Traced
  // runs build the request spans afterwards from timestamps every run
  // records, so tracing adds nothing to the measured path here.
  TraceLog trace;
  std::vector<double> latency, first_latency, queue, solve, wire;
  long busy = 0;
  Clock::time_point last = begin;
  for (int c = 0; c < kConnections; ++c) {
    const ConnectionResult& result = results[c];
    busy += result.busy;
    if (!result.error.empty()) out.fail("connection " + std::to_string(c) +
                                        ": " + result.error);
    trace.name_track(c, "connection " + std::to_string(c));
    for (std::size_t k = 0; k < result.requests.size(); ++k) {
      const Request& request = result.requests[k];
      const service::SolveResponse& response = request.response;
      const Deck& deck = decks[static_cast<std::size_t>(request.deck)];
      ++out.attempted;
      if (!response.ok()) {
        out.fail(deck.name + ": " + response.error);
      } else if (!same_golden(response, deck.golden)) {
        out.fail(deck.name + ": reply differs from the in-process solve");
      }
      const double rtt = seconds_between(request.submitted, request.replied);
      latency.push_back(rtt);
      if (static_cast<long>(k) < per_connection) first_latency.push_back(rtt);
      queue.push_back(response.queue_seconds);
      solve.push_back(response.solve_seconds);
      wire.push_back(rtt - response.latency_seconds);
      last = std::max(last, request.replied);
      if (!params.trace) continue;
      const long op = static_cast<long>(k) * kConnections + c;
      trace.add("request", c, op, request.submitted, request.replied);
      // Server phases, placed inside the request span from the reply's own
      // durations (half the wire time on each side).
      const auto at = [&](double seconds) {
        return plus_seconds(request.submitted, seconds);
      };
      const double queued = 0.5 * (rtt - response.latency_seconds);
      const double solving = queued + response.queue_seconds;
      trace.add("service.queue", c, op, at(queued), at(solving));
      trace.add("service.solve", c, op, at(solving),
                at(solving + response.solve_seconds));
    }
  }
  out.info.push_back("requests: " + std::to_string(latency.size()) + " over " +
                     std::to_string(decks.size()) + " decks, " +
                     std::to_string(busy) + " BUSY retries");

  if (!params.trace) {
    add_latency_metrics(out.end_to_end, latency, first_latency,
                        seconds_between(begin, last));
    out.end_to_end["setup_s"] = {setup_s, "s"};
    out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
  }

  Metrics& m = out.per_layer;
  m["service.queue_ms.p50"] = {1e3 * median(queue), "ms"};
  m["service.queue_ms.p99"] = {1e3 * percentile(queue, 0.99), "ms"};
  m["service.solve_ms.p50"] = {1e3 * median(solve), "ms"};
  m["service.solve_ms.p99"] = {1e3 * percentile(solve, 0.99), "ms"};
  const double completed = std::max(1.0, static_cast<double>(stats.completed));
  m["service.batch_frac"] = {stats.batched_solves / completed, "ratio"};
  const double slabs =
      static_cast<double>(stats.arena.allocated + stats.arena.reused);
  m["service.arena_reuse_frac"] = {
      slabs > 0.0 ? stats.arena.reused / slabs : 0.0, "ratio"};
  m["service.busy_per_req"] = {busy / completed, "ratio"};
  m["net.wire_ms.p50"] = {1e3 * median(wire), "ms"};
  m["net.wire_ms.p99"] = {1e3 * percentile(wire, 0.99), "ms"};
  const std::vector<int> round = request_sequence(params.seed, decks.size(), 1);
  add_codec_metrics(m, decks, round, params.quick ? 2 : 50);

  {
    tlp::ThreadPool probe_pool(kThreads);
    long cells = 0;
    for (const Deck& deck : decks) {
      cells = std::max<long>(cells, static_cast<long>(deck.problem.x_cells) *
                                        deck.problem.y_cells);
    }
    add_host_probes(m, probe_pool, cells, params.quick);
  }
  const double runs = static_cast<double>(decks.size());
  add_kernel_layers(m, oracle_times, runs, oracle_seconds);
  add_counter_layers(m, counters, iterations, runs, iters_vs_serial);
  zero_fill_per_layer(m);  // trace.overhead_frac is 0: see above
  trace.append(oracle_trace);
  write_trace(out, trace, params.trace_path);
  return out;
}

}  // namespace e2e
