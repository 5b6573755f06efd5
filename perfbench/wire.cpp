// wire: a forked serving fleet -- spx_front over two spx_shard processes
// with one worker each -- driven over loopback by two closed-loop
// connections.  Each connection runs sessions on small repeated patterns
// (grid2d 16^2..32^2): factorize, four solves, and with probability 0.3 a
// refactorize of drifted values followed by one more solve.  Compute is
// tiny, so framing, the event loops, ring routing and the front hop are
// most of each RPC.  The benchmark encodes and decodes the frames itself
// (spx::net protocol functions) and sends them with
// net::BlockingClient::call, so the client-side codec is timed on its own.
//
// The benchmark process and the fleet it forks share one CPU
// (pin_to_one_cpu), so what is measured is the CPU cost of the request
// path.
#include <csignal>
#include <cstring>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hpp"
#include "layers.hpp"
#include "mat/generators.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "workloads.hpp"

#ifndef SPX_SHARD_BIN
#define SPX_SHARD_BIN "spx_shard"
#endif
#ifndef SPX_FRONT_BIN
#define SPX_FRONT_BIN "spx_front"
#endif

namespace pb {

namespace net = spx::net;
using spx::Factorization;

namespace {

constexpr int kClients = 2;
constexpr int kSolvesPerSession = 4;
constexpr double kRefactorProb = 0.3;
constexpr index_t kGrids[] = {16, 20, 24, 28, 32};

struct Child {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
};

/// fork + exec `bin --print-ports args...`; reads "port http_port".
Child spawn(const char* bin, std::vector<std::string> args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  args.insert(args.begin(), bin);
  args.push_back("--print-ports");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // The fleet never outlives the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin, argv.data());
    std::fprintf(stderr, "execv(%s): %s\n", bin, std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char ch = 0;
  while (::read(fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  ::close(fds[0]);
  Child c;
  c.pid = pid;
  if (std::sscanf(line.c_str(), "%hu %hu", &c.port, &c.http_port) != 2) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error(std::string(bin) + " did not report its ports");
  }
  return c;
}

/// The front plus its shards; stopped (SIGKILL + wait) on destruction.
class Fleet {
 public:
  Fleet() {
    try {
      for (int i = 0; i < 2; ++i) {
        shards_.push_back(spawn(SPX_SHARD_BIN,
                                {"--name", "s" + std::to_string(i),
                                 "--workers", "1"}));
      }
      std::vector<std::string> args;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        args.push_back("--shard");
        args.push_back("s" + std::to_string(i) + ":127.0.0.1:" +
                       std::to_string(shards_[i].port));
      }
      front_ = spawn(SPX_FRONT_BIN, args);
      wait_ready();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::uint16_t port() const { return front_.port; }
  std::string metrics() const {
    return net::http_get("127.0.0.1", front_.http_port, "/metrics");
  }
  /// Peak RSS of the fleet's processes (MiB), read before they stop.
  double peak_rss_mb() const {
    double total = pb::peak_rss_mb(front_.pid);
    for (const Child& s : shards_) total += pb::peak_rss_mb(s.pid);
    return total;
  }

 private:
  void wait_ready() {
    const double deadline = now_s() + 20;
    while (now_s() < deadline) {
      int status = 0;
      try {
        net::http_get("127.0.0.1", front_.http_port, "/readyz", &status, 1.0);
      } catch (const std::exception&) {
        status = 0;
      }
      if (status == 200) return;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("fleet did not become ready");
  }

  void stop() {
    std::vector<Child*> all;
    for (Child& s : shards_) all.push_back(&s);
    all.push_back(&front_);
    for (Child* c : all) {
      if (c->pid > 0) ::kill(c->pid, SIGKILL);
    }
    for (Child* c : all) {
      if (c->pid > 0) ::waitpid(c->pid, nullptr, 0);
      c->pid = -1;
    }
  }

  std::vector<Child> shards_;
  Child front_;
};

struct Pattern {
  Matrix matrix;
  std::uint64_t digest = 0;
  double flops = 0;
};

/// What one connection measured.
struct ClientStats {
  Samples rpc;        ///< client-observed RPC seconds (encode .. decode)
  Samples overhead;   ///< rpc minus the shard-reported phases
  Samples queue;      ///< shard-reported admission-queue wait
  Samples analyze;    ///< shard-reported phases, seconds
  Samples factorize;
  Samples refactorize;
  Samples solve;
  Samples batched_rhs;
  double cache_hits = 0;
  double cache_lookups = 0;
  double retries = 0;
  Samples session;
  Samples tts;        ///< factorize + first solve
  Samples encode;
  Samples decode;
  Samples req_bytes;
  Samples resp_bytes;
  RuntimeTotals runtime;
  double flops = 0;
  double factor_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  double worst_be = 0;
  std::string first_error;
};

/// Shard-side phase seconds of one response (RequestStats JSON).
struct Phases {
  double total = 0;
  double queue = 0;
  double analyze = 0;
  double factorize = 0;
  double solve = 0;
  std::string cache;   ///< analysis-cache outcome of a factorize
  double batched_rhs = 0;
  double attempts = 0;
  spx::RunStats run;
};

Phases parse_phases(const std::string& stats_json) {
  Phases p;
  if (stats_json.empty()) return p;
  const spx::json::Value v = spx::json::Value::parse(stats_json);
  p.queue = v.number_or("queue_wait_s", 0);
  p.analyze = v.number_or("analyze_s", 0);
  p.factorize = v.number_or("factorize_s", 0);
  p.solve = v.number_or("solve_s", 0);
  p.total = p.queue + p.analyze + p.factorize + p.solve;
  p.cache = v.string_or("cache", "");
  p.batched_rhs = v.number_or("batched_rhs", 0);
  p.attempts = v.number_or("attempts", 0);
  if (const spx::json::Value* run = v.find("run")) {
    p.run.makespan = run->number_or("makespan_s", 0);
    p.run.tasks_cpu = static_cast<index_t>(run->number_or("tasks_cpu", 0));
    const double busy = run->number_or("busy_fraction", 0);
    p.run.busy = {busy * p.run.makespan};
    if (const spx::json::Value* c = run->find("contention")) {
      p.run.contention.lock_wait = {c->number_or("lock_wait_s", 0)};
      p.run.contention.idle_wait = {c->number_or("idle_wait_s", 0)};
      p.run.contention.steals = {
          static_cast<index_t>(c->number_or("steals", 0))};
    }
  }
  return p;
}

class Connection {
 public:
  Connection(std::uint16_t port, int id, std::uint64_t seed,
             const std::vector<Pattern>& patterns)
      : id_(id), tenant_("c" + std::to_string(id)), rng_(seed),
        patterns_(patterns) {
    client_.connect("127.0.0.1", port);
  }

  /// Closed-loop sessions until `seconds` have passed.
  ClientStats run(double seconds) {
    st_ = ClientStats{};
    const double start = now_s();
    do {
      session();
    } while (now_s() - start < seconds);
    return st_;
  }

 private:
  enum class Op { Factorize, Refactorize, Solve };

  /// One RPC: encode, call, decode, then the shard-reported phases.
  /// False on a transport error, an error frame or a failed status.
  template <typename Encode, typename Decode>
  bool rpc(Op op, const Encode& encode, const Decode& decode, double& t_rpc) {
    const std::uint64_t corr = next_corr_++;
    ++st_.attempted;
    Span span("net.rpc", static_cast<std::int64_t>(corr));
    const double t0 = now_s();
    const std::vector<std::uint8_t> frame = encode(corr);
    const double t1 = now_s();
    net::FrameParser::Frame resp;
    try {
      resp = client_.call(frame, corr);
    } catch (const std::exception& e) {
      return failed(e.what());
    }
    const double t2 = now_s();
    std::string stats_json;
    std::uint8_t status = 0;
    try {
      if (resp.header.type == net::FrameType::Error) {
        return failed("error frame: " +
                      net::decode_error(resp.payload).message);
      }
      decode(resp, status, stats_json);
    } catch (const std::exception& e) {
      return failed(e.what());
    }
    const double t3 = now_s();
    t_rpc = t3 - t0;
    st_.rpc.add(t_rpc);
    st_.encode.add(t1 - t0);
    st_.decode.add(t3 - t2);
    st_.req_bytes.add(static_cast<double>(frame.size()));
    st_.resp_bytes.add(static_cast<double>(resp.payload.size() +
                                           net::kHeaderBytes));
    if (status != 0) return failed("request status " + std::to_string(status));
    const Phases ph = parse_phases(stats_json);
    st_.overhead.add(t_rpc - ph.total);
    st_.queue.add(ph.queue);
    if (op == Op::Solve) {
      st_.solve.add(ph.solve);
      st_.batched_rhs.add(ph.batched_rhs);
    } else {
      st_.factor_s += ph.factorize;
      (op == Op::Factorize ? st_.factorize : st_.refactorize).add(ph.factorize);
      if (ph.analyze > 0) st_.analyze.add(ph.analyze);
      if (ph.attempts > 1) st_.retries += ph.attempts - 1;
      if (op == Op::Factorize && !ph.cache.empty()) {
        ++st_.cache_lookups;
        if (ph.cache == "hit") ++st_.cache_hits;
      }
      if (ph.run.makespan > 0) st_.runtime.add(ph.run);
    }
    // The shard-reported phases, laid out from the moment the request went.
    record_service_phases(span.context(), t1, t2,
                          {ph.queue, ph.analyze, ph.factorize, ph.solve,
                           op == Op::Refactorize},
                          static_cast<std::int64_t>(corr));
    return true;
  }

  bool failed(const std::string& what) {
    ++st_.failed;
    if (st_.first_error.empty()) st_.first_error = what;
    return false;
  }

  bool solve(const Matrix& a, std::uint64_t digest, std::uint64_t factor,
             double& t_rpc) {
    net::SolveRequestFrame req;
    req.pattern_digest = digest;
    req.factor_id = factor;
    req.tenant = tenant_;
    req.rhs = make_rhs(a.nrows(), 1, rng_);
    std::vector<real_t> x;
    const bool ok = rpc(
        Op::Solve,
        [&](std::uint64_t corr) { return net::encode_solve_request(corr, req); },
        [&](const net::FrameParser::Frame& f, std::uint8_t& status,
            std::string& stats) {
          net::SolveResponseFrame r = net::decode_solve_response(f.payload);
          status = r.status;
          stats = std::move(r.stats_json);
          x = std::move(r.x);
        },
        t_rpc);
    if (!ok) return false;
    Span span("loadgen.check");
    const double be = backward_error(a, x, req.rhs);
    st_.worst_be = std::max(st_.worst_be, be);
    if (!(be <= kMaxBackwardError)) {
      ++st_.wrong;
      return failed("wrong solution");
    }
    return true;
  }

  bool factorize_like(Op op, const Matrix& a, const Pattern& p,
                      std::uint64_t& factor, double& t_rpc) {
    net::FactorizeResponseFrame out;
    const auto decode = [&](const net::FrameParser::Frame& f,
                            std::uint8_t& status, std::string& stats) {
      out = op == Op::Factorize ? net::decode_factorize_response(f.payload)
                                : net::decode_refactorize_response(f.payload);
      status = out.status;
      stats = out.stats_json;
    };
    bool ok = false;
    if (op == Op::Factorize) {
      net::FactorizeRequestFrame req;
      req.pattern_digest = p.digest;
      req.kind = Factorization::LLT;
      req.tenant = tenant_;
      ok = rpc(
          op,
          [&](std::uint64_t corr) {
            return net::encode_factorize_request(corr, req, a);
          },
          decode, t_rpc);
    } else {
      net::RefactorizeRequestFrame req;
      req.pattern_digest = p.digest;
      req.factor_id = factor;
      req.tenant = tenant_;
      req.values.assign(a.values().begin(), a.values().end());
      ok = rpc(
          op,
          [&](std::uint64_t corr) {
            return net::encode_refactorize_request(corr, req);
          },
          decode, t_rpc);
    }
    if (ok) {
      factor = out.factor_id;
      st_.flops += p.flops;
    }
    return ok;
  }

  void session() {
    const Pattern& p = patterns_[rng_.next_below(std::size(kGrids))];
    Span span("loadgen.session", id_);
    const double t0 = now_s();
    std::uint64_t factor = 0;
    double t_fact = 0;
    double t_rpc = 0;
    if (!factorize_like(Op::Factorize, p.matrix, p, factor, t_fact)) return;
    for (int i = 0; i < kSolvesPerSession; ++i) {
      if (!solve(p.matrix, p.digest, factor, t_rpc)) return;
      if (i == 0) st_.tts.add(t_fact + t_rpc);
    }
    if (rng_.next_double() < kRefactorProb) {
      const Matrix a = drift(p.matrix, rng_, 1.0);
      if (!factorize_like(Op::Refactorize, a, p, factor, t_rpc)) return;
      if (!solve(a, p.digest, factor, t_rpc)) return;
    }
    st_.session.add(now_s() - t0);
  }

  int id_;
  std::string tenant_;
  spx::Rng rng_;
  const std::vector<Pattern>& patterns_;
  net::BlockingClient client_;
  std::uint64_t next_corr_ = 1;
  ClientStats st_;
};

/// Values of a Prometheus series (name or name{labels}), one per label set.
std::vector<double> prom_values(const std::string& text,
                                const std::string& series) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(series, 0) == 0 && line.size() > series.size() &&
        (line[series.size()] == ' ' || line[series.size()] == '{')) {
      out.push_back(std::atof(line.c_str() + line.rfind(' ') + 1));
    }
  }
  return out;
}

}  // namespace

Report run_wire(const Args& args) {
  Report rep;
  pin_to_one_cpu();
  std::vector<Pattern> patterns;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kLightSetupReps;
  for (int i = 0; i < reps; ++i) {
    fleet.reset();  // tearing down the previous repetition is not set-up
    const double t0 = now_s();
    {
      Span s("mat.generate");
      patterns.clear();
      for (const index_t g : kGrids) {
        Pattern p{spx::gen::grid2d_laplacian(g, g)};
        p.digest = spx::pattern_digest(p.matrix);
        p.flops = spx::analyze(p.matrix).total_flops(Factorization::LLT);
        patterns.push_back(std::move(p));
      }
    }
    fleet = std::make_unique<Fleet>();
    setups.push_back(now_s() - t0);
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<Connection>(
        fleet->port(), c, args.seed * 1000 + static_cast<std::uint64_t>(c),
        patterns));
  }
  ClientStats all;
  double elapsed = 0;
  const auto loop = [&](double seconds) {
    std::vector<ClientStats> per(kClients);
    std::vector<std::thread> threads;
    const double start = now_s();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] { per[c] = conns[c]->run(seconds); });
    }
    for (std::thread& t : threads) t.join();
    elapsed = now_s() - start;
    all = ClientStats{};
    for (const ClientStats& s : per) {
      all.rpc.append(s.rpc);
      all.overhead.append(s.overhead);
      all.queue.append(s.queue);
      all.analyze.append(s.analyze);
      all.factorize.append(s.factorize);
      all.refactorize.append(s.refactorize);
      all.solve.append(s.solve);
      all.batched_rhs.append(s.batched_rhs);
      all.cache_hits += s.cache_hits;
      all.cache_lookups += s.cache_lookups;
      all.retries += s.retries;
      all.session.append(s.session);
      all.tts.append(s.tts);
      all.encode.append(s.encode);
      all.decode.append(s.decode);
      all.req_bytes.append(s.req_bytes);
      all.resp_bytes.append(s.resp_bytes);
      all.runtime.makespan.append(s.runtime.makespan);
      all.runtime.busy.append(s.runtime.busy);
      all.runtime.idle_share.append(s.runtime.idle_share);
      all.runtime.lock_share.append(s.runtime.lock_share);
      all.runtime.steals.append(s.runtime.steals);
      all.runtime.tasks.append(s.runtime.tasks);
      all.flops += s.flops;
      all.factor_s += s.factor_s;
      all.attempted += s.attempted;
      all.failed += s.failed;
      all.wrong += s.wrong;
      all.worst_be = std::max(all.worst_be, s.worst_be);
      if (!s.first_error.empty()) {
        std::fprintf(stderr, "wire: %s\n", s.first_error.c_str());
      }
    }
    rep.attempted += all.attempted;
    rep.failed += all.failed;
    if (all.wrong > 0) rep.wrong("wire solve residual");
    return static_cast<double>(all.rpc.size()) / elapsed;
  };

  if (!args.trace) {
    loop(args.seconds);
    const double thr = static_cast<double>(all.rpc.size()) / elapsed;
    rep.set("setup_s", median_of(setups), setups.size(),
            "generate + fork front and 2 shards -> ready");
    rep.set("time_to_solution_p50_s", all.tts.median(), all.tts.size(),
            "factorize RPC + first solve RPC");
    rep.set("step_p50_s", all.session.median(), all.session.size(),
            "session: factorize, 4 solves, maybe refactorize + solve");
    rep.set("factor_gflops",
            all.factor_s > 0 ? all.flops / all.factor_s * 1e-9 : 0, 0,
            "total_flops / shard-reported factorize_s");
    rep.set("req_p50_ms", all.rpc.median() * 1e3, all.rpc.size(),
            "client-observed RPC");
    rep.set("req_p99_ms", all.rpc.tail() * 1e3, all.rpc.size(),
            "p" + std::to_string(static_cast<int>(all.rpc.tail_q() * 100)));
    rep.set("throughput_rps", thr, all.rpc.size(), "RPCs per second, 2 conns");
    rep.set("max_rate_rps", thr, all.rpc.size(),
            "closed loop: the rate the 2 connections sustain");
    rep.set("peak_rss_mb", peak_rss_mb() + fleet->peak_rss_mb(), 0,
            "VmHWM of benchmark + front + 2 shards");
    return rep;
  }

  const SpanSummary s = traced_halves(args, loop, rep);
  const std::string metrics = fleet->metrics();
  double rerouted = 0;
  for (const double v : prom_values(metrics, "spx_front_rerouted_total")) {
    rerouted += v;
  }
  const std::vector<double> routed =
      prom_values(metrics, "spx_front_routed_total");
  double lo = 0;
  double hi = 0;
  if (!routed.empty()) {
    lo = *std::min_element(routed.begin(), routed.end());
    hi = *std::max_element(routed.begin(), routed.end());
  }
  rep.set("net.rpc_overhead_p50_ms", all.overhead.median() * 1e3,
          all.overhead.size(), "RPC time minus shard-reported phases");
  rep.set("net.encode_us", all.encode.median() * 1e6, all.encode.size(),
          "median request encode");
  rep.set("net.decode_us", all.decode.median() * 1e6, all.decode.size(),
          "median response decode");
  rep.set("net.request_bytes_mean", all.req_bytes.mean(), all.req_bytes.size());
  rep.set("net.response_bytes_mean", all.resp_bytes.mean(),
          all.resp_bytes.size());
  rep.set("net.front_retries", rerouted, 0, "spx_front_rerouted_total");
  rep.set("net.shard_balance", hi > 0 ? lo / hi : 0, routed.size(),
          "min / max routed per shard");
  all.runtime.report(rep);
  rep.set("core.factorize_s", s.median("core.factorize"));
  rep.set("core.refactorize_s", s.median("core.refactorize"));
  rep.set("core.solve1_s", s.median("core.solve"));
  rep.set("core.backward_error_max", all.worst_be);
  rep.set("service.queue_wait_p50_ms", all.queue.median() * 1e3,
          all.queue.size(), "shard-reported");
  rep.set("service.queue_wait_p99_ms", all.queue.tail() * 1e3,
          all.queue.size(),
          "p" + std::to_string(static_cast<int>(all.queue.tail_q() * 100)));
  rep.set("service.analyze_ms", all.analyze.median() * 1e3,
          all.analyze.size(), "shard cache misses");
  rep.set("service.factorize_ms", all.factorize.median() * 1e3,
          all.factorize.size());
  rep.set("service.refactorize_ms", all.refactorize.median() * 1e3,
          all.refactorize.size());
  rep.set("service.solve_ms", all.solve.median() * 1e3, all.solve.size());
  rep.set("service.cache_hit_ratio",
          all.cache_lookups > 0 ? all.cache_hits / all.cache_lookups : 0,
          static_cast<std::size_t>(all.cache_lookups));
  rep.set("service.batch_rhs_mean", all.batched_rhs.mean(),
          all.batched_rhs.size(), "RHS per shard solve call");
  rep.set("service.retries", all.retries);
  report_self_time(s, rep);
  std::vector<Problem> problems;
  for (const Pattern& p : patterns) problems.push_back({&p.matrix, Factorization::LLT});
  const auto analyses = probe_analysis(problems, rep);
  replay_kernels(analyses, problems, rep);
  return rep;
}

}  // namespace pb
