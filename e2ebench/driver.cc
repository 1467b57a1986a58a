// End-to-end benchmark driver: graph -> spanner -> sketches -> artifact ->
// mpcspand -> answer on the wire, plus the paper's distributed builds (MPC,
// in-process and sharded) and the Congested Clique APSP, on one seeded input
// per workload. Every call into the library is timed from outside; the
// daemon is a real mpcspand process read through its STATS op.
//
//   e2e_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir>
//
// The seed makes the graph; the algorithms' own seeds are fixed, so a seed
// changes the input and nothing else. After set-up the run repeats rounds
// until --seconds is used up. A round runs one timed section of every phase:
// build, load, in-process MPC, sharded MPC, clique APSP, floor, deadline,
// reload. A section lasts at least kSectionS, and a phase's metric is the
// median over its sections. End-to-end times and rates are scaled to a
// nominal host speed, which a fixed reference kernel measures before every
// section (RefKernel). See README.md.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. A failed output check prints correct=false and exits 1.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "cclique/apsp_cc.hpp"
#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "query/audit.hpp"
#include "query/build.hpp"
#include "serve/client.hpp"
#include "spanner/tradeoff.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

#include "harness.hpp"

#ifndef MPCSPAND_PATH
#error "MPCSPAND_PATH must name the mpcspand binary (set by CMakeLists.txt)"
#endif

using namespace mpcspan;
using namespace e2ebench;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  std::size_t n;
  double avgDeg;
  int deadlineMs;  // D of the deadline phase
  // peak_rss_mb is the VmHWM of the process that does the workload's own
  // work: mpcspand (true) or the driver (false). mpcspand's is taken after
  // each set-up start (see main): over the whole run, RELOADs included, it
  // was bimodal over ten graphs (51-56 MB in seven runs, 66-72 MB in three).
  bool daemonRss;
};

// Spanner k = 6 throughout: the dense input's average degree (100) is ~4x
// k * n^(1/k), so the spanner keeps about a sixth of the edges; at the
// sparse input's degree (14) it keeps nearly all of them. Each workload's D
// sits above the p99 of its exact tier's latency, so the deadline phase
// counts late answers without the met fraction swinging with machine speed.
const Workload kWorkloads[] = {
    // Dense weighted G(n,m): the spanner sparsifies it, so the artifact
    // build, the distributed builds and the clique APSP do the work the
    // paper is about.
    {"build-dense", 4000, 100.0, 10, false},
    // Sparse weighted G(n,m): an exact tier of a few milliseconds, so
    // serving is wire-bound at deadline 0 and Dijkstra-bound at D.
    {"serve-mixed", 10000, 14.0, 15, true},
};

constexpr std::uint32_t kSpannerK = 6;
constexpr std::uint32_t kSketchK = 3;
// The algorithms' seeds are fixed, so --seed changes the graph and nothing
// else. The sketches' work and size depend on where their few top-level
// centres fall in the graph (about n^(1/3) of them): over graphs, one
// sketch seed's relaxation count spreads 11% (quartile distance over
// median), the median over three seeds' 3%. So each run builds artifacts
// with kSketchSeeds sketch seeds, and every section of the phases that
// build, load or reload an artifact goes through all of them.
constexpr std::uint64_t kAlgoSeed = 1;
constexpr std::size_t kSketchSeeds = 3;
constexpr std::size_t kLoadConns = 2;  // closed-loop load connections
// Threads the reference kernel runs on before a section (see RefKernel):
// as many as the section keeps busy. Phases whose timed work runs on one
// thread (build, load, the daemon's RELOAD, set-up) get one, the MPC and
// clique phases all their lanes (Context::lanes). Serving gets two: a load
// connection's client and session threads take turns, so the two
// connections keep about two threads busy.
constexpr std::size_t kRefSerial = 1;
constexpr std::size_t kRefServe = 2;
constexpr double kSectionS = 0.5;      // shortest timed section
constexpr double kFloorSliceS = 0.5;
// The floor's rate, p50 and p90 are those of each 0.1 s window of a
// slice's answers (about 5,000 at the wire-bound rate), median over the
// run's windows. A window needs 100 answers, so its p90 has ten beyond it.
constexpr double kFloorWindowS = 0.1;
constexpr std::size_t kFloorWindowMin = 100;
constexpr double kDeadlineSliceS = 2.0;
constexpr int kRewarmQueries = 40;  // unbounded queries after a reload
// Set-up generates the graph and starts mpcspand this many times each;
// setup_s is the sum of the two medians.
constexpr int kSetupReps = 7;

// ---------------------------------------------------------------------------
// Timing and host speed

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Repeats `op` until at least `minS` seconds have passed; returns the
/// seconds per call.
template <typename Op>
double repeatFor(double minS, Op&& op) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  double el = 0;
  do {
    op(calls++);
    el = secondsSince(t0);
  } while (el < minS);
  return el / static_cast<double>(calls);
}

/// A fixed computation that calls none of the library, timed before every
/// section to measure the speed the shared machine gives this run: binary-
/// heap Dijkstra over a seeded CSR graph (4096 vertices, 32 arcs each, about
/// 1 MB), from a different source each call, on as many threads at once as
/// the section that follows keeps busy (kRefSerial, kRefServe, lanes). Over
/// ten runs (two workloads, five graphs each), the build, load and reload
/// times spread 4-10% (quartile distance over median) scaled by a
/// one-thread kernel, and 9-17% scaled by one on four lanes.
class RefKernel {
 public:
  RefKernel() {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t u = 0; u < kN; ++u) {
      off_.push_back(static_cast<std::uint32_t>(to_.size()));
      for (std::uint32_t j = 0; j < kArcs; ++j) {
        x = mix64(x + u * kArcs + j);
        to_.push_back(static_cast<std::uint32_t>(x % kN));
        w_.push_back(1 + static_cast<std::uint32_t>((x >> 32) % 100));
      }
    }
    off_.push_back(static_cast<std::uint32_t>(to_.size()));
  }

  /// Seconds per call: the median over `threads` threads that each call
  /// the kernel for at least kMeasureS at the same time.
  double measure(std::size_t threads) {
    std::vector<double> per(threads);
    std::vector<std::thread> th;
    for (std::size_t t = 0; t < threads; ++t)
      th.emplace_back([&, t] {
        std::uint64_t sink = 0;
        per[t] = repeatFor(kMeasureS, [&](std::size_t i) {
          sink += call(static_cast<std::uint32_t>((i * threads + t) % kN));
        });
        sink_ += sink;
      });
    for (std::thread& x : th) x.join();
    return median(per);
  }

  /// The kernel's time per call on one thread of the machine the benchmark
  /// was tuned on (4-vCPU Xeon VM): end-to-end times are scaled by this
  /// over the run's median time (see Phase::setTime).
  static constexpr double kNominalS = 0.002;

 private:
  static constexpr std::uint32_t kN = 4096, kArcs = 32;
  static constexpr double kMeasureS = 0.05;

  std::uint64_t call(std::uint32_t src) const {
    std::vector<std::uint64_t> dist(kN, ~0ull);
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;
      for (std::uint32_t a = off_[u]; a < off_[u + 1]; ++a)
        if (d + w_[a] < dist[to_[a]]) {
          dist[to_[a]] = d + w_[a];
          pq.push({dist[to_[a]], to_[a]});
        }
    }
    return dist[(src + 1) % kN];
  }

  std::vector<std::uint32_t> off_, to_, w_;
  std::atomic<std::uint64_t> sink_{0};
};

// ---------------------------------------------------------------------------
// Run context

struct Context {
  explicit Context(bool traced) : trace(traced), spans(traced) {}

  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace;
  std::string workdir;
  // Lanes of the MPC and clique runs: half the machine's, at most 2. The
  // MPC rounds wait for their slowest lane at every barrier. With all four
  // lanes of a shared 4-vCPU host busy, a lane the host had descheduled
  // stalled every round: over ten runs of serve-mixed while other guests
  // kept the host busy, the in-process build took 1.4-4x its quiet time
  // and spread 75% (quartile distance over median) scaled by a four-lane
  // reference kernel.
  std::size_t lanes = 2;

  MetricSet e2e;
  MetricSet layer;
  SpanRecorder spans;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Traced and untraced medians of the same sections, per phase.
  std::vector<std::tuple<std::string, double, double, std::string>> overhead;
  RefKernel ref;
  // The reference kernel's times in this run, by how many threads ran it.
  std::map<std::size_t, std::vector<double>> refS;
  // ... on one thread before each set-up step, which scale setup_s: set-up
  // runs before the rounds, and the host's speed drifts over a run.
  std::vector<double> setupRefS;

  /// How much slower than nominal this run's machine was for work on
  /// `threads` threads at once (see RefKernel).
  double slowdown(std::size_t threads) const {
    auto it = refS.find(threads);
    return it == refS.end() ? 1.0 : median(it->second) / RefKernel::kNominalS;
  }

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t graphDigest(const Graph& g) {
  std::uint64_t h = g.numVertices();
  for (const Edge& e : g.edges()) {
    std::uint64_t w;
    std::memcpy(&w, &e.w, sizeof w);
    h = mix64(h ^ (static_cast<std::uint64_t>(e.u) << 32 | e.v));
    h = mix64(h ^ w);
  }
  return h;
}

/// VmHWM of a process in MB (0 if unreadable).
double peakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

/// utime + stime of a process in seconds (0 if unreadable).
double cpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(in)), {});
  const auto close = s.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(s.substr(close + 2));
  std::string f;
  double ticks = 0;
  for (int i = 0; fields >> f && i <= 12; ++i)
    if (i == 11 || i == 12) ticks += std::stod(f);  // fields 14, 15
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// RAII span; a no-op when the recorder is disabled or `on` is false.
class Scope {
 public:
  Scope(SpanRecorder& r, const std::string& name, bool on = true)
      : r_(r), parent_(current_) {
    if (!on) return;
    id_ = r_.begin(name, parent_);
    if (id_ >= 0) current_ = id_;
  }
  ~Scope() {
    r_.end(id_);
    if (id_ >= 0) current_ = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& r_;
  std::int64_t parent_;
  std::int64_t id_ = -1;
  static thread_local std::int64_t current_;
};
thread_local std::int64_t Scope::current_ = -1;

/// A timed phase: one section per round. In a traced run, sections of odd
/// rounds run with spans on and the others with spans off, so the traced
/// and untraced medians give the tracing overhead of the same work.
struct Phase {
  Phase(Context& c, const char* phaseName, std::size_t refThreads = kRefSerial)
      : ctx(c), name(phaseName), threads(refThreads) {}
  virtual ~Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Runs one section; returns the value it adds to the phase's median
  /// (seconds per operation, or a serving slice's answer rate).
  virtual double section(bool traced) = 0;
  /// Records metrics and runs output checks after the last round.
  virtual void finish() = 0;
  virtual const char* unit() const { return "s"; }

  struct Sample {
    double value;
    bool traced;
  };

  /// Values of `xs` whose sections ran with spans on (`tracedSections`) or off.
  static std::vector<double> valuesOf(const std::vector<Sample>& xs,
                                      bool tracedSections) {
    std::vector<double> out;
    for (const Sample& x : xs)
      if (x.traced == tracedSections) out.push_back(x.value);
    return out;
  }
  std::vector<double> values(bool tracedSections) const {
    return valuesOf(samples, tracedSections);
  }
  /// The phase's metric: median over the sections whose spans match the run.
  double med() const { return median(values(ctx.trace)); }
  /// The metric of a phase that times single passes over the artifacts:
  /// their median over the sections whose spans match the run.
  double opMed() const { return median(valuesOf(ops, ctx.trace)); }
  /// An end-to-end time of this phase, normalised to the nominal machine
  /// speed, so that a slow stretch of a shared host does not read as a
  /// change.
  void setTime(const std::string& metric, double wall, const char* unit) {
    ctx.e2e.set(metric, wall / ctx.slowdown(threads), unit);
  }

  /// Counts one operation of this phase (and of the run).
  void count(bool ok) {
    ++attempted;
    ++ctx.attempted;
    if (!ok) {
      ++failed;
      ++ctx.failed;
    }
  }

  Context& ctx;
  const char* name;
  const std::size_t threads;  // threads of the reference kernel before a section
  std::vector<Sample> samples;
  std::vector<Sample> ops;  // seconds per artifact of single passes (see opMed)
  std::uint64_t attempted = 0, failed = 0;
};

/// Runs rounds while another one would, on average, end less than half a
/// round after ctx.seconds (at least two rounds, so a traced run has a
/// traced and an untraced section of each phase). Round-robin order makes
/// each median sample the whole run, so a slow stretch of a shared machine
/// moves a few sections of every phase, not every section of one.
void runRounds(Context& ctx, const std::vector<Phase*>& phases) {
  const auto t0 = Clock::now();
  std::size_t rounds = 0;
  for (double roundsS = 0;
       rounds < 2 || secondsSince(t0) + 0.5 * roundsS / static_cast<double>(rounds) <=
                         ctx.seconds;
       ++rounds) {
    const auto r0 = Clock::now();
    const bool traced = ctx.trace && rounds % 2 == 1;
    for (Phase* p : phases) {
      ctx.refS[p->threads].push_back(ctx.ref.measure(p->threads));
      p->samples.push_back({p->section(traced), traced});
    }
    roundsS += secondsSince(r0);
  }
  std::fprintf(stderr, "%zu rounds in %.1f s\n", rounds, secondsSince(t0));
  for (const auto& [threads, times] : ctx.refS)
    std::fprintf(stderr,
                 "reference kernel on %zu thread(s): median %.4f ms, %.3fx its "
                 "nominal time (the end-to-end times of phases on %zu thread(s) "
                 "are divided by this; stderr shows wall values)\n",
                 threads, median(times) * 1e3, ctx.slowdown(threads), threads);
  for (Phase* p : phases) {
    std::vector<double> all;
    for (const Phase::Sample& x : p->samples) all.push_back(x.value);
    std::fprintf(stderr,
                 "phase %-8s %2zu sections  median %.6g %s  min %.6g  max %.6g  "
                 "ops attempted %llu succeeded %llu failed %llu\n",
                 p->name, all.size(), median(all), p->unit(),
                 percentile(all, 0), percentile(all, 1),
                 static_cast<unsigned long long>(p->attempted),
                 static_cast<unsigned long long>(p->attempted - p->failed),
                 static_cast<unsigned long long>(p->failed));
    if (ctx.trace)
      ctx.overhead.emplace_back(p->name, median(p->values(true)),
                                median(p->values(false)), p->unit());
  }
}

// ---------------------------------------------------------------------------
// Daemon process

/// A real mpcspand serving one artifact on an ephemeral port. Stopped (and
/// reaped) by the destructor; killed with the driver via PDEATHSIG.
class Daemon {
 public:
  explicit Daemon(const std::string& artifact, std::size_t threads) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string threadsArg = std::to_string(threads);
    std::vector<std::string> argv = {MPCSPAND_PATH, "--artifact", artifact,
                                     "--port", "0", "--threads", threadsArg};
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    try {
      port_ = readPort();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM, then SIGKILL after 10 s; returns true on a clean exit 0.
  bool stop() {
    if (pid_ <= 0) return cleanExit_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) break;
      if (secondsSince(t0) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    cleanExit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    ::close(out_);
    return cleanExit_;
  }

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  /// Parses the startup banner "... listening on 127.0.0.1:<port>". Blocks
  /// until the daemon has loaded its artifact and bound, or has exited.
  std::uint16_t readPort() {
    std::string text;
    while (text.find('\n') == std::string::npos) {
      char buf[256];
      const ssize_t got = ::read(out_, buf, sizeof buf);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("mpcspand exited at startup");
      text.append(buf, static_cast<std::size_t>(got));
    }
    const auto colon = text.rfind(':', text.find('\n'));
    if (colon == std::string::npos)
      throw std::runtime_error("mpcspand: unexpected banner: " + text);
    return static_cast<std::uint16_t>(std::stoi(text.substr(colon + 1)));
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  bool cleanExit_ = false;
};

serve::ClientOptions clientOptions(std::uint16_t port, std::uint64_t seed) {
  serve::ClientOptions o;
  o.port = port;
  o.maxRetries = 0;  // count every shed and transport fault, retry none
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------------------
// Closed-loop load

struct WireSample {
  VertexId u = 0, v = 0;
  serve::WireAnswer ans;
  std::size_t artifact = 0;  // index of the artifact mpcspand served
};

struct LoadResult {
  std::vector<double> latUs;  // answered queries
  std::vector<double> endS;   // ... when each was answered, from the load's start
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t met = 0, exact = 0;  // answered within D (by exact tier)
  std::vector<WireSample> samples;
  std::vector<double> connectMs;
  double elapsedS = 0;
  double qps() const {
    return elapsedS > 0 ? static_cast<double>(latUs.size()) / elapsedS : 0;
  }
  void merge(const LoadResult& r) {
    latUs.insert(latUs.end(), r.latUs.begin(), r.latUs.end());
    endS.insert(endS.end(), r.endS.begin(), r.endS.end());
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    connectMs.insert(connectMs.end(), r.connectMs.begin(), r.connectMs.end());
    attempted += r.attempted;
    failed += r.failed;
    met += r.met;
    exact += r.exact;
    elapsedS += r.elapsedS;
  }
};

/// `kLoadConns` closed-loop connections querying random pairs with deadline
/// `deadlineMs` until `stop` is set. When `traced`, every 64th request gets
/// a "serve.query" span under `parent`; every 97th answer is kept for checks.
LoadResult runLoad(Context& ctx, std::uint16_t port, std::size_t n,
                   std::uint64_t deadlineMs, int exactTier,
                   std::atomic<bool>& stop, std::uint64_t stream,
                   std::int64_t parent, bool traced) {
  std::vector<LoadResult> per(kLoadConns);
  std::vector<std::thread> th;
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;  // published to the connections by `go`
  const double limitUs = static_cast<double>(deadlineMs) * 1000.0;
  for (std::size_t c = 0; c < kLoadConns; ++c) {
    th.emplace_back([&, c] {
      LoadResult& r = per[c];
      serve::ServeClient cl(clientOptions(port, ctx.seed * 131 + stream + c));
      const auto c0 = Clock::now();
      try {
        (void)cl.serverInfo();
        r.connectMs.push_back(secondsSince(c0) * 1e3);
      } catch (const serve::ServeError&) {
        ++r.failed;
      }
      Rng rng(ctx.seed * 7919 + stream * 31 + c);
      ++ready;
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto u = static_cast<VertexId>(rng.next(n));
        const auto v = static_cast<VertexId>(rng.next(n));
        const std::uint64_t req = (stream << 40) | (c << 32) | i;
        const std::int64_t sp =
            (traced && i % 64 == 0)
                ? ctx.spans.begin("serve.query", parent, req,
                                  static_cast<std::uint32_t>(c + 1))
                : -1;
        ++r.attempted;
        const auto t0 = Clock::now();
        try {
          const serve::WireAnswer a = cl.query(u, v, deadlineMs);
          const double us = secondsSince(t0) * 1e6;
          ctx.spans.end(sp);
          r.latUs.push_back(us);
          r.endS.push_back(secondsSince(start));
          if (us <= limitUs) {
            ++r.met;
            if (a.tier == exactTier && !a.degraded) ++r.exact;
          }
          if (i % 97 == 0) r.samples.push_back({u, v, a});
        } catch (const serve::ServeError&) {  // shed or transport fault
          ctx.spans.end(sp);
          ++r.failed;
          cl.close();
        }
      }
    });
  }
  while (ready.load() < kLoadConns) std::this_thread::yield();
  start = Clock::now();
  go = true;
  for (std::thread& t : th) t.join();
  LoadResult all;
  for (const LoadResult& r : per) all.merge(r);
  all.elapsedS = secondsSince(start);
  return all;
}

// ---------------------------------------------------------------------------
// Input and set-up

/// The input graph and the artifacts built from it in set-up, one per
/// sketch seed; mpcspand starts on artifact 0.
struct Input {
  Graph g;
  std::vector<std::string> paths;            // artifact files
  std::vector<std::size_t> digests, sizes;  // of their bytes
  std::optional<query::QueryArtifact> artifact;  // the last loaded one
  std::size_t loaded = 0;                         // ... its index
  query::QueryPlane plane;                        // assembled from it
};

query::BuildPlan buildPlan(std::size_t sketchSeed) {
  query::BuildPlan p;
  p.algo = "tradeoff";
  p.k = kSpannerK;
  p.seed = kAlgoSeed;
  p.sketchK = kSketchK;
  p.sketchSeed = kAlgoSeed + 1 + sketchSeed;
  return p;
}

std::size_t digest(const std::string& bytes) {
  return std::hash<std::string>{}(bytes);
}

/// Generates the graph kSetupReps times from the seed (all must be
/// identical); returns the median generation time.
double setupGraph(Context& ctx, Input& in) {
  std::vector<double> times;
  std::uint64_t digest = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    ctx.setupRefS.push_back(ctx.ref.measure(kRefSerial));
    Scope s(ctx.spans, "graph.makeFamily");
    const auto t0 = Clock::now();
    Rng rng(ctx.seed);
    Graph g = makeFamily(Family::kGnm, ctx.w->n, ctx.w->avgDeg, rng,
                         WeightSpec{WeightModel::kUniform, 100.0});
    times.push_back(secondsSince(t0));
    const std::uint64_t d = graphDigest(g);
    if (i == 0) digest = d;
    ctx.check(d == digest, "graph generation is deterministic for a seed");
    in.g = std::move(g);
  }
  ctx.layer.set("graph.generate_s", median(times), "s");
  ctx.layer.set("graph.edges", static_cast<double>(in.g.numEdges()), "count");
  return median(times);
}

int tierIndex(const query::TieredOracle& t, const std::string& name) {
  for (std::size_t i = 0; i < t.numTiers(); ++i)
    if (t.tier(i).name() == name) return static_cast<int>(i);
  return -1;
}

/// The mpcspand serving the workload's artifact and its control connection.
struct ServeSession {
  ServeSession(Context& c, Input& i) : ctx(c), in(i) {}

  /// Starts the daemon on artifact `artifact` of the set-up build, then
  /// seeds its tier latency estimates (rewarm).
  void start(std::size_t artifact) {
    Scope span(ctx.spans, "serve.daemonStart");
    daemon = std::make_unique<Daemon>(in.paths[artifact], 4);
    served = artifact;
    ctl.emplace(clientOptions(daemon->port(), ctx.seed));
    exactTier = tierIndex(*in.plane.tiered, "exact");
    rewarm(0x3a3aull);
  }

  /// Untimed unbounded queries on the control connection. Tier admission
  /// compares the budget with each tier's mean latency so far, and a tier
  /// whose mean exceeds the budget is not tried again under it; so after
  /// start and after each reload (which restarts the estimates) the exact
  /// tier's mean is seeded from unbounded queries, not from a few
  /// deadline-bound ones.
  void rewarm(std::uint64_t stream) {
    Rng rng(ctx.seed ^ stream);
    const std::size_t n = in.g.numVertices();
    for (int i = 0; i < kRewarmQueries; ++i) {
      const auto u = static_cast<VertexId>(rng.next(n));
      const auto v = static_cast<VertexId>(rng.next(n));
      (void)ctl->query(u, v, serve::kDeadlineDefault);
    }
  }

  Context& ctx;
  Input& in;
  std::unique_ptr<Daemon> daemon;
  std::optional<serve::ServeClient> ctl;
  int exactTier = -1;
  std::size_t served = 0;  // index of the artifact mpcspand serves
};

// ---------------------------------------------------------------------------
// Phases

/// buildArtifact + saveArtifactFile. Traced sections make the same calls
/// buildArtifact makes, one layer at a time, so each gets a span.
struct BuildPhase final : Phase {
  BuildPhase(Context& c, Input& i) : Phase(c, "build"), in(i) {}

  /// One build with sketch seed `seed`, saved to `path`. Untimed in
  /// set-up; timed in sections.
  query::QueryArtifact buildAndSave(std::size_t seed, const std::string& path,
                                    bool traced) {
    const query::BuildPlan plan = buildPlan(seed);
    std::optional<query::QueryArtifact> a;
    {
      Scope top(ctx.spans, "query.build", traced);
      if (!traced) {
        a.emplace(query::buildArtifact(in.g, plan));
      } else {
        auto t0 = Clock::now();
        SpannerResult sr;
        {
          Scope s(ctx.spans, "spanner.buildTradeoffSpanner");
          sr = buildTradeoffSpanner(in.g, {plan.k, plan.t, plan.seed});
        }
        spannerS.push_back(secondsSince(t0));
        Graph h;
        {
          Scope s(ctx.spans, "graph.subgraph");
          h = subgraph(in.g, sr.edges);
        }
        t0 = Clock::now();
        const SketchParams sp{plan.sketchK, plan.sketchSeed};
        std::optional<DistanceSketches> sk;
        {
          Scope s(ctx.spans, "apsp.DistanceSketches");
          sk.emplace(h, sp);
        }
        sketchS.push_back(secondsSince(t0));
        nsPerRelax.push_back(
            sketchS.back() * 1e9 /
            static_cast<double>(std::max<std::size_t>(1, sk->preprocessingRelaxations())));
        Scope s(ctx.spans, "query.assembleArtifact");
        const double stretch = sr.stretchBound > 0 ? sr.stretchBound : 1.0;
        const double composed = sk->stretchBound() * stretch;
        a.emplace(query::QueryArtifact{in.g, std::move(sr.edges), plan.algo,
                                       plan.k, sr.t, stretch, sp, composed,
                                       std::move(*sk), plan.cacheSources, 0,
                                       0});
      }
    }
    const auto t0 = Clock::now();
    {
      Scope s(ctx.spans, "query.saveArtifactFile", traced);
      query::saveArtifactFile(*a, path);
    }
    if (traced) saveS.push_back(secondsSince(t0));
    return std::move(*a);
  }

  /// Set-up: the artifacts mpcspand serves and the load phase loads, one
  /// per sketch seed. The per-layer counts are artifact 0's.
  void buildArtifacts() {
    for (std::size_t i = 0; i < kSketchSeeds; ++i) {
      in.paths.push_back(ctx.workdir + "/" + ctx.w->name + "." +
                         std::to_string(i) + ".mpqa");
      const query::QueryArtifact a = buildAndSave(i, in.paths[i], false);
      const std::string bytes = readFile(in.paths[i]);
      in.digests.push_back(digest(bytes));
      in.sizes.push_back(bytes.size());
      if (i > 0) continue;
      hostSpanner = a.spannerEdges;
      relax = a.sketches.preprocessingRelaxations();
      bunch = a.sketches.totalBunchEntries();
      // The load phase's first section replaces this plane; the daemon's
      // session needs one to name the tiers.
      in.plane = query::makeQueryPlane(a);
    }
  }

  /// Builds every sketch seed's artifact in turn, so every section does the
  /// same work; returns the seconds per build.
  double section(bool traced) override {
    return repeatFor(kSectionS, [&](std::size_t) {
             for (std::size_t seed = 0; seed < kSketchSeeds; ++seed) {
               // Each build goes to a fresh file that is deleted before
               // writeback; rewriting one file in place would make ext4
               // flush every version to disk mid-run.
               const std::string path = in.paths[seed] + ".rep";
               (void)buildAndSave(seed, path, traced);
               // Every build (traced or not) must write its set-up build's
               // bytes.
               const bool same = digest(readFile(path)) == in.digests[seed];
               ctx.check(same, "rebuilt artifact is byte-identical");
               count(same);
               std::remove(path.c_str());
             }
           }) /
           kSketchSeeds;
  }

  void finish() override {
    const double bytes = static_cast<double>(in.sizes[0]);
    std::vector<double> sizes(in.sizes.begin(), in.sizes.end());
    setTime("build_s", med(), "s");
    ctx.e2e.set("artifact_mb", median(sizes) / 1e6, "MB");
    const double kept = static_cast<double>(hostSpanner.size());
    ctx.layer.set("spanner.edges", kept, "count");
    ctx.layer.set("spanner.kept_frac",
                  kept / static_cast<double>(std::max<std::size_t>(1, in.g.numEdges())),
                  "fraction");
    ctx.layer.set("apsp.relaxations", static_cast<double>(relax), "count");
    ctx.layer.set("apsp.bunch_entries", static_cast<double>(bunch), "count");
    ctx.layer.set("query.artifact_bytes", bytes, "bytes");
    if (!ctx.trace) return;
    ctx.layer.set("spanner.build_s", median(spannerS), "s");
    ctx.layer.set("apsp.sketch_build_s", median(sketchS), "s");
    ctx.layer.set("apsp.ns_per_relaxation", median(nsPerRelax), "ns");
    ctx.layer.set("query.save_s", median(saveS), "s");
  }

  Input& in;
  std::vector<EdgeId> hostSpanner;
  std::vector<double> spannerS, sketchS, nsPerRelax, saveS;
  std::size_t relax = 0, bunch = 0;
};

/// loadArtifactFile + makeQueryPlane (a daemon cold start), then the
/// re-save and envelope checks on what was loaded.
struct LoadPhase final : Phase {
  LoadPhase(Context& c, Input& i) : Phase(c, "load"), in(i) {}

  /// Loads every artifact in turn, ending with artifact 0 (the one
  /// mpcspand serves between reload sections); returns the seconds per load.
  /// load_s is the median over single passes over the three artifacts, as
  /// reload_s is.
  double section(bool traced) override {
    return repeatFor(kSectionS, [&](std::size_t) {
             const auto p0 = Clock::now();
             for (std::size_t j = 1; j <= kSketchSeeds; ++j) {
               in.loaded = j % kSketchSeeds;
               const auto t0 = Clock::now();
               {
                 Scope s(ctx.spans, "query.loadArtifactFile", traced);
                 in.artifact.emplace(query::loadArtifactFile(in.paths[in.loaded]));
               }
               const double loaded = secondsSince(t0);
               {
                 Scope s(ctx.spans, "query.makeQueryPlane", traced);
                 in.plane = query::makeQueryPlane(*in.artifact);
               }
               if (traced) {
                 loadS.push_back(loaded);
                 assembleS.push_back(secondsSince(t0) - loaded);
               }
               count(true);
             }
             ops.push_back({secondsSince(p0) / kSketchSeeds, traced});
           }) /
           kSketchSeeds;
  }

  void finish() override {
    setTime("load_s", opMed(), "s");
    if (ctx.trace) {
      ctx.layer.set("query.load_s", median(loadS), "s");
      ctx.layer.set("query.assemble_s", median(assembleS), "s");
    }

    const std::string resaved =
        ctx.workdir + "/" + ctx.w->name + ".resaved.mpqa";
    query::saveArtifactFile(*in.artifact, resaved);
    ctx.check(digest(readFile(resaved)) == in.digests[in.loaded],
              "loaded artifact re-saves to identical bytes");
    std::remove(resaved.c_str());

    Rng rng(ctx.seed ^ 0xa0d17ull);
    std::vector<query::QueryPair> pairs;
    std::vector<Weight> answers;
    for (int i = 0; i < 24; ++i) {
      const auto u = static_cast<VertexId>(rng.next(in.g.numVertices()));
      const auto v = static_cast<VertexId>(rng.next(in.g.numVertices()));
      pairs.push_back({u, v});
      answers.push_back(in.plane.tiered->query(u, v));
    }
    const query::AuditReport audit = query::auditEnvelope(
        in.g, pairs, answers, in.artifact->composedStretch, pairs.size());
    ctx.check(audit.ok() && audit.audited > 0,
              "sampled tiered answers stay within the composed stretch");
  }

  Input& in;
  std::vector<double> loadS, assembleS;
};

/// buildDistributedTradeoff on a fresh simulator, in-process (1 shard,
/// `lanes` lanes) or on 2 shards (the lanes split between them).
struct MpcPhase final : Phase {
  MpcPhase(Context& c, Input& i, bool shardedRun)
      : Phase(c, shardedRun ? "sharded" : "inproc", c.lanes), in(i),
        sharded(shardedRun) {}

  double section(bool traced) override {
    const MpcConfig cfg = MpcConfig::forInput(
        8 * std::max<std::size_t>(in.g.numEdges(), 8), 0.5, 3.0);
    const std::size_t shards = sharded ? 2 : 1;
    const std::size_t threads =
        sharded ? std::max<std::size_t>(1, ctx.lanes / 2) : ctx.lanes;
    return repeatFor(kSectionS, [&](std::size_t) {
      const auto t0 = Clock::now();
      std::optional<MpcSimulator> sim;
      {
        Scope s(ctx.spans, "mpc.MpcSimulator", traced);
        sim.emplace(cfg, threads, shards);
      }
      if (traced) setupS.push_back(secondsSince(t0));
      DistSpannerResult r;
      {
        Scope s(ctx.spans, "mpc.buildDistributedTradeoff", traced);
        r = buildDistributedTradeoff(*sim, in.g, kSpannerK, 0, kAlgoSeed);
      }
      count(true);
      edges = std::move(r.edges);
      rounds = sim->rounds();
      words = sim->totalWordsSent();
      maxRoundWords = sim->maxRoundWords();
      Scope s(ctx.spans, sharded ? "runtime.shard.shutdown" : "mpc.~MpcSimulator",
              traced);
      sim.reset();
    });
  }

  void finish() override {
    setTime(sharded ? "mpc_sharded_s" : "mpc_spanner_s", med(), "s");
    if (ctx.trace)
      ctx.layer.set(std::string("mpc.sim_setup_s.") + name, median(setupS), "s");
    ctx.layer.set(std::string("runtime.ns_per_word.") + name,
                  med() * 1e9 / static_cast<double>(std::max<std::size_t>(1, words)),
                  "ns");
  }

  Input& in;
  const bool sharded;
  std::vector<double> setupS;
  std::vector<EdgeId> edges;
  std::size_t rounds = 0, words = 0, maxRoundWords = 0;
};

struct CcPhase final : Phase {
  CcPhase(Context& c, Input& i) : Phase(c, "cc", c.lanes), in(i) {}

  double section(bool traced) override {
    return repeatFor(kSectionS, [&](std::size_t) {
      Scope s(ctx.spans, "cclique.runCcApsp", traced);
      res = runCcApsp(in.g, {0, 0, kAlgoSeed, ctx.lanes});
      count(true);
    });
  }

  void finish() override {
    setTime("cc_apsp_s", med(), "s");
    ctx.layer.set("cclique.spanner_rounds", static_cast<double>(res.spannerRounds), "count");
    ctx.layer.set("cclique.collect_rounds", static_cast<double>(res.collectRounds), "count");
    ctx.layer.set("cclique.spanner_edges", static_cast<double>(res.spanner.edges.size()), "count");

    Rng rng(ctx.seed ^ 0xcc0ull);
    bool ok = true;
    for (int i = 0; i < 2; ++i) {
      const auto src = static_cast<VertexId>(rng.next(in.g.numVertices()));
      const std::vector<Weight> approx = res.distancesFrom(in.g, src);
      const std::vector<Weight> exact = dijkstra(in.g, src);
      for (std::size_t v = 0; v < exact.size(); ++v) {
        if (exact[v] == kInfDist) {
          ok = ok && approx[v] == kInfDist;
          continue;
        }
        ok = ok && approx[v] >= exact[v] * (1 - 1e-9) &&
             approx[v] <= res.approxBound * exact[v] * (1 + 1e-9);
      }
    }
    ctx.check(ok, "sampled clique-APSP distances stay within approxBound");
  }

  Input& in;
  CcApspResult res;
};

/// What one serving phase accumulates over its sections: client-side
/// results and the daemon's STATS and CPU deltas across each section.
struct ServeAccum {
  struct Tier {
    std::string name;
    std::uint64_t attempts = 0, hits = 0, nanos = 0;
  };
  LoadResult load;
  double cpuS = 0;
  std::uint64_t shed = 0, slowDrops = 0, malformed = 0;
  std::uint64_t queries = 0, degraded = 0;
  std::vector<Tier> tiers;

  void addStats(const serve::ServeStats& a, const serve::ServeStats& b) {
    shed += b.shedQueueFull - a.shedQueueFull;
    slowDrops += b.slowClientDrops - a.slowClientDrops;
    malformed += b.malformedFrames - a.malformedFrames;
    queries += b.queries - a.queries;
    degraded += b.degraded - a.degraded;
    tiers.resize(std::max(tiers.size(), b.tiers.size()));
    for (std::size_t i = 0; i < b.tiers.size(); ++i) {
      const bool same = i < a.tiers.size() && a.tiers[i].name == b.tiers[i].name;
      tiers[i].name = b.tiers[i].name;
      tiers[i].attempts += b.tiers[i].attempts - (same ? a.tiers[i].attempts : 0);
      tiers[i].hits += b.tiers[i].hits - (same ? a.tiers[i].hits : 0);
      tiers[i].nanos += b.tiers[i].nanos - (same ? a.tiers[i].nanos : 0);
    }
  }
};

/// A serving phase: each section is closed-loop load at one deadline,
/// measured from the client and from the daemon's STATS and /proc.
struct ServePhase : Phase {
  ServePhase(ServeSession& s, const char* phase, std::uint64_t deadline,
             std::uint64_t streamBase, std::size_t refThreads = kRefServe)
      : Phase(s.ctx, phase, refThreads), session(s), deadlineMs(deadline),
        stream(streamBase) {}

  const char* unit() const override { return "1/s"; }

  /// Load for as long as `during` runs (a timer, or the reloads), folded
  /// into `acc`. The load's queries count toward this phase's operations.
  template <typename During>
  LoadResult loadWhile(bool traced, During&& during) {
    Daemon& d = *session.daemon;
    const std::size_t served = session.served;
    const serve::ServeStats before = session.ctl->stats();
    const double cpu0 = cpuSeconds(d.pid());
    const std::int64_t ph =
        traced ? ctx.spans.begin(std::string("bench.") + name, -1) : -1;
    std::atomic<bool> stop{false};
    std::thread timer([&] {
      during(ph);
      stop = true;
    });
    LoadResult r = runLoad(ctx, d.port(), session.in.g.numVertices(),
                           deadlineMs, session.exactTier, stop,
                           stream + samples.size(), ph, traced);
    timer.join();
    for (WireSample& x : r.samples) x.artifact = served;
    ctx.spans.end(ph);
    acc.cpuS += cpuSeconds(d.pid()) - cpu0;
    acc.addStats(before, session.ctl->stats());
    acc.load.merge(r);
    attempted += r.attempted;
    failed += r.failed;
    return r;
  }

  /// Per-phase serve counters and, unless tier counters restarted during
  /// the phase, the daemon's per-tier counters.
  void serveMetrics(bool withTiers) {
    const LoadResult& r = acc.load;
    const std::string phase = name;
    ctx.attempted += r.attempted;
    ctx.failed += r.failed;
    ctx.layer.set("serve.attempted." + phase, static_cast<double>(r.attempted), "count");
    ctx.layer.set("serve.failed." + phase, static_cast<double>(r.failed), "count");
    ctx.layer.set("serve.shed." + phase, static_cast<double>(acc.shed), "count");
    ctx.layer.set("serve.slow_drops." + phase, static_cast<double>(acc.slowDrops), "count");
    ctx.layer.set("serve.malformed." + phase, static_cast<double>(acc.malformed), "count");
    ctx.layer.set("serve.cpu_us_per_query." + phase,
                  acc.cpuS * 1e6 / static_cast<double>(std::max<std::size_t>(1, r.latUs.size())),
                  "us");
    if (!withTiers) return;
    ctx.layer.set("query.degraded_frac." + phase,
                  static_cast<double>(acc.degraded) /
                      static_cast<double>(std::max<std::uint64_t>(1, acc.queries)),
                  "fraction");
    for (const ServeAccum::Tier& t : acc.tiers) {
      const std::string p = "query.tier." + t.name + ".";
      ctx.layer.set(p + "attempts." + phase, static_cast<double>(t.attempts), "count");
      ctx.layer.set(p + "hits." + phase, static_cast<double>(t.hits), "count");
      ctx.layer.set(p + "mean_us." + phase,
                    t.attempts ? static_cast<double>(t.nanos) / 1e3 / static_cast<double>(t.attempts) : 0.0,
                    "us");
    }
  }

  ServeSession& session;
  const std::uint64_t deadlineMs;
  const std::uint64_t stream;  // seeds the load connections' query pairs
  ServeAccum acc;
};

/// Fixed-length slices of load at `deadlineMs`.
struct SlicePhase : ServePhase {
  SlicePhase(ServeSession& s, const char* phase, std::uint64_t deadline,
             std::uint64_t streamBase, double sliceS)
      : ServePhase(s, phase, deadline, streamBase), sliceSeconds(sliceS) {}

  double section(bool traced) override {
    slices.push_back(loadWhile(traced, [&](std::int64_t) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sliceSeconds));
    }));
    return slices.back().qps();
  }

  /// Slices whose spans match the run (see Phase::values).
  std::vector<const LoadResult*> ownSlices() const {
    std::vector<const LoadResult*> out;
    for (std::size_t i = 0; i < slices.size(); ++i)
      if (samples[i].traced == ctx.trace) out.push_back(&slices[i]);
    return out;
  }

  const double sliceSeconds;
  std::vector<LoadResult> slices;  // parallel to samples
};

/// Phase 1: deadline 0, answered by the sketch floor; wire-bound. The
/// rate, p50 and p90 are those of 0.1 s windows, median over the run's
/// windows; the p99 is each slice's, median over slices. Only the p50 is
/// an end-to-end metric. Each floor query waits for two cross-thread
/// wake-ups, and when other guests keep the host busy, a wake-up waits for
/// the host to run the vCPU: in five runs of build-dense in such a
/// stretch, the rate fell to 13-40k/s from 50k/s and spread 117% (quartile
/// distance over median, scaled to host speed) and the p90 83%, while the
/// p50 spread 8%. The rate, p90 and p99 are the per-layer serve.floor_qps,
/// serve.floor_p90_us and serve.floor_p99_us.
struct FloorPhase final : SlicePhase {
  explicit FloorPhase(ServeSession& s) : SlicePhase(s, "floor", 0, 1000, kFloorSliceS) {}

  void finish() override {
    serveMetrics(true);
    std::vector<double> qps, p50, p90, p99;
    auto windows = [](const LoadResult& r, double q, std::vector<double>& out) {
      const std::vector<double> w =
          windowPercentiles(r.latUs, r.endS, kFloorWindowS, q, kFloorWindowMin);
      out.insert(out.end(), w.begin(), w.end());
    };
    for (const LoadResult* r : ownSlices()) {
      const std::vector<double> w = windowRates(r->endS, kFloorWindowS, r->elapsedS);
      qps.insert(qps.end(), w.begin(), w.end());
      windows(*r, 0.5, p50);
      windows(*r, 0.9, p90);
      p99.push_back(percentile(r->latUs, 0.99));
    }
    wallP50Us = median(p50);
    setTime("floor_p50_us", wallP50Us, "us");
    ctx.layer.set("serve.floor_qps", median(qps), "1/s");
    ctx.layer.set("serve.floor_p90_us", median(p90), "us");
    ctx.layer.set("serve.floor_p99_us", median(p99), "us");
    std::fprintf(stderr,
                 "floor: %zu windows of %.1f s; median %.0f answers/s, latency "
                 "us p50 %.2f p90 %.2f p99 %.2f (wall)\n",
                 qps.size(), kFloorWindowS, median(qps), wallP50Us, median(p90),
                 median(p99));
    ctx.layer.set("serve.connect_ms", median(acc.load.connectMs), "ms");
  }

  double wallP50Us = 0;
};

/// Phase 2: deadline D; the exact tier's Dijkstra dominates. The fractions
/// pool the answers of every slice; the latency is each slice's p90, median
/// over slices (about 1,500 answers each on a quiet host). The end-to-end
/// tail is the p90, not the p99: in ten runs of build-dense of which five met
/// other guests busy on the host, the p99 scaled to host speed spread 45%
/// (quartile distance over median) and the p90 of the same answers 13%.
/// The p99 is the per-layer serve.deadline_p99_ms.
struct DeadlinePhase final : SlicePhase {
  explicit DeadlinePhase(ServeSession& s)
      : SlicePhase(s, "deadline", static_cast<std::uint64_t>(s.ctx.w->deadlineMs),
                   2000, kDeadlineSliceS) {}

  void finish() override {
    serveMetrics(true);
    LoadResult dl;
    std::vector<double> p90, p99;
    for (const LoadResult* r : ownSlices()) {
      dl.merge(*r);
      p90.push_back(percentile(r->latUs, 0.9));
      p99.push_back(percentile(r->latUs, 0.99));
    }
    const double att = static_cast<double>(std::max<std::uint64_t>(1, dl.attempted));
    ctx.e2e.set("deadline_met_frac", static_cast<double>(dl.met) / att, "fraction");
    ctx.e2e.set("deadline_exact_frac", static_cast<double>(dl.exact) / att, "fraction");
    setTime("deadline_p90_ms", median(p90) / 1e3, "ms");
    ctx.layer.set("serve.deadline_p99_ms", median(p99) / 1e3, "ms");
    std::size_t smallest = dl.latUs.size();
    for (const LoadResult* r : ownSlices()) smallest = std::min(smallest, r->latUs.size());
    std::fprintf(stderr,
                 "deadline: %zu answered of %llu, pooled latency ms p50 %.2f "
                 "p90 %.2f p99 %.2f; per-slice p90 median %.2f ms, p99 median "
                 "%.2f ms over %zu slices, smallest slice %zu answers (p99 %s "
                 "by >= 10 answers beyond it)\n",
                 dl.latUs.size(), static_cast<unsigned long long>(dl.attempted),
                 percentile(dl.latUs, 0.5) / 1e3, percentile(dl.latUs, 0.9) / 1e3,
                 percentile(dl.latUs, 0.99) / 1e3, median(p90) / 1e3,
                 median(p99) / 1e3, p99.size(),
                 smallest,
                 supportedPercentile(smallest) >= 0.99 ? "supported" : "NOT supported");
  }
};

/// Phase 3: RELOADs on the control connection while floor load runs beside
/// them (writes beside reads). A section reloads every artifact in turn,
/// ending with the one served before it, until kSectionS has passed; then
/// it rewarms the snapshot's tier estimates, untimed, for the next
/// deadline slice. reload_s is the median over single passes over the
/// three artifacts, per artifact. The artifacts' costs differ, so a median
/// over single RELOADs or loads jumps between them: over ten graphs of
/// build-dense, load_s spread 22% (quartile distance over median) as the
/// median over single loads and 14% as the median over sections.
struct ReloadPhase final : ServePhase {
  explicit ReloadPhase(ServeSession& s)
      : ServePhase(s, "reload", 0, 3000, kRefSerial) {}

  const char* unit() const override { return "s"; }

  double section(bool traced) override {
    std::vector<double> times;
    const serve::ServeStats st0 = session.ctl->stats();
    floorDuring.merge(loadWhile(traced, [&](std::int64_t ph) {
      const auto t0 = Clock::now();
      do {
        double pass = 0;  // seconds of this pass's RELOADs
        bool passOk = true;  // a pass with a failed RELOAD is not timed
        for (std::size_t j = 0; j < kSketchSeeds; ++j) {
          const std::size_t next = (session.served + 1) % kSketchSeeds;
          const std::int64_t sp = ctx.spans.begin("serve.reload", ph);
          const auto r0 = Clock::now();
          try {
            (void)session.ctl->reload(session.in.paths[next]);
            times.push_back(secondsSince(r0));
            pass += times.back();
            session.served = next;
          } catch (const serve::ServeError&) {
            ++reloadsFailed;
            ++ctx.failed;
            passOk = false;
          }
          ++ctx.attempted;
          ctx.spans.end(sp);
        }
        if (passOk) ops.push_back({pass / kSketchSeeds, traced});
      } while (secondsSince(t0) < kSectionS);
    }));
    ctx.check(session.ctl->stats().reloadsOk - st0.reloadsOk == times.size(),
              "every RELOAD the client saw succeed was counted by the daemon");
    session.rewarm(0x4e10adull + samples.size());
    return median(times);
  }

  void finish() override {
    serveMetrics(false);  // tier counters restart with each snapshot
    setTime("reload_s", opMed(), "s");
    ctx.layer.set("serve.floor_qps_during_reload", floorDuring.qps(), "1/s");
    std::fprintf(stderr,
                 "reload: %zu passes of %zu RELOADs succeeded, %llu RELOADs "
                 "failed, median %.4f s per RELOAD\n",
                 ops.size(), kSketchSeeds,
                 static_cast<unsigned long long>(reloadsFailed), opMed());
  }

  LoadResult floorDuring;
  std::uint64_t reloadsFailed = 0;
};

/// The local query plane, one thread: TieredOracle::query and the
/// deadline-0 queryBudgeted the daemon's floor phase runs. Traced runs only.
void measureLocalQuery(Context& ctx, Input& in) {
  const std::size_t n = in.g.numVertices();
  Rng rng(ctx.seed ^ 0x10ca1ull);
  std::vector<query::QueryPair> pairs(1 << 16);
  for (auto& p : pairs)
    p = {static_cast<VertexId>(rng.next(n)), static_cast<VertexId>(rng.next(n))};
  auto perCallS = [&](const char* name, auto&& call) {
    Scope s(ctx.spans, name);
    double sink = 0;
    const double t = repeatFor(kSectionS, [&](std::size_t i) {
      for (std::size_t j = 0; j < 1024; ++j)
        sink += call(pairs[(i * 1024 + j) % pairs.size()]);
    });
    if (sink < 0) std::fprintf(stderr, "%g\n", sink);
    return t / 1024;
  };
  const double q = perCallS("query.TieredOracle.query", [&](const query::QueryPair& p) {
    return in.plane.tiered->query(p.first, p.second);
  });
  ctx.layer.set("query.local_qps", 1.0 / q, "1/s");
  const double f = perCallS("query.TieredOracle.queryBudgeted", [&](const query::QueryPair& p) {
    return in.plane.tiered->queryBudgeted(p.first, p.second, util::DeadlineBudget(0)).dist;
  });
  ctx.layer.set("query.floor_ns", f * 1e9, "ns");
}

/// Checks sampled wire answers against the driver's own plane of the
/// artifact mpcspand served: floor answers equal local deadline-0
/// queryBudgeted answers; every deadline answer equals its tier's local
/// answer. Sampled answers of both phases, degraded ones among them, are
/// audited against Dijkstra: each stays within the stretch it certified.
void checkWire(Context& ctx, Input& in, const LoadResult& floorRun,
               const LoadResult& deadlineRun) {
  std::size_t compared = 0, deadlineAudited = 0, degraded = 0;
  bool same = true, tierSame = true, within = true;
  auto audit = [&](const WireSample& s) {
    degraded += s.ans.degraded;
    const Weight exact = dijkstraPair(in.g, s.u, s.v);
    if (exact == kInfDist || exact == 0) return;
    within = within && s.ans.dist >= exact * (1 - 1e-9) &&
             s.ans.dist <= s.ans.stretch * exact * (1 + 1e-9);
  };
  for (std::size_t i = 0; i < kSketchSeeds; ++i) {
    const query::QueryPlane plane =
        query::makeQueryPlane(query::loadArtifactFile(in.paths[i]));
    const query::TieredOracle& t = *plane.tiered;
    for (const WireSample& s : floorRun.samples) {
      if (s.artifact != i) continue;
      const query::BudgetedAnswer a =
          t.queryBudgeted(s.u, s.v, util::DeadlineBudget(0));
      same = same && a.dist == s.ans.dist && a.tier == s.ans.tier;
      // Floor answers are degraded: audit the first 16.
      if (compared++ < 16) audit(s);
    }
    for (const WireSample& s : deadlineRun.samples) {
      if (s.artifact != i) continue;
      if (s.ans.tier < 0 || static_cast<std::size_t>(s.ans.tier) >= t.numTiers()) {
        tierSame = false;
        continue;
      }
      const Weight local =
          t.tier(static_cast<std::size_t>(s.ans.tier)).tryQuery(s.u, s.v);
      if (local != query::kNoAnswer) tierSame = tierSame && local == s.ans.dist;
      // Audit the first 16 deadline answers, and degraded ones until 32
      // degraded answers in all are audited.
      if (deadlineAudited < 16 || (s.ans.degraded && degraded < 32)) {
        ++deadlineAudited;
        audit(s);
      }
    }
  }
  ctx.check(same && compared > 0,
            "floor wire answers equal local deadline-0 queryBudgeted answers");
  ctx.check(tierSame && !deadlineRun.samples.empty(),
            "deadline wire answers equal their tier's local answers");
  ctx.check(within && degraded > 0,
            "sampled wire answers, degraded ones among them, stay within "
            "their certified stretch");
}

// ---------------------------------------------------------------------------

const std::vector<std::string> kEndToEnd = {
    "setup_s",         "peak_rss_mb",     "build_s",
    "load_s",          "artifact_mb",     "mpc_spanner_s",
    "mpc_sharded_s",   "cc_apsp_s",       "floor_p50_us",
    "deadline_met_frac",
    "deadline_exact_frac", "deadline_p90_ms", "reload_s"};

void printTraceReport(Context& ctx) {
  const std::vector<Span> spans = ctx.spans.spans();
  const std::string path = ctx.workdir + "/trace-" + ctx.w->name + "-" +
                           std::to_string(ctx.seed) + ".json";
  ctx.check(writeChromeTrace(spans, path), "trace file written");
  std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::printf("%-16s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s");
  for (const auto& [layer, t] : layerTimes(spans)) {
    std::printf("%-16s %8zu %12.4f %12.4f\n", layer.c_str(), t.spans,
                t.totalS, t.selfS);
    std::string name = layer;
    std::replace(name.begin(), name.end(), '/', '.');
    ctx.layer.set(name + ".self_s", t.selfS, "s");
  }
  std::printf("tracing overhead (traced - untraced sections, same run):\n");
  for (const auto& [name, on, off, unit] : ctx.overhead)
    std::printf("  %-10s traced %.6g  untraced %.6g  overhead %+.6g %s (%+.2f%%)\n",
                name.c_str(), on, off, on - off, unit.c_str(),
                off != 0 ? 100.0 * (on - off) / off : 0.0);
  std::printf("end-to-end metrics of this traced run:\n");
  for (const std::string& n : kEndToEnd)
    if (ctx.e2e.has(n))
      std::printf("  %-20s %.6g %s\n", n.c_str(), ctx.e2e.at(n).value,
                  ctx.e2e.at(n).unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || args.size() != 5 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace") || !args.count("--workdir"))
    return usage();
  Context ctx(args["--trace"] == "1");
  ctx.workdir = args["--workdir"];
  try {
    ctx.seed = std::stoull(args["--seed"]);
    ctx.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  for (const Workload& w : kWorkloads)
    if (args["--workload"] == w.name) ctx.w = &w;
  if (!ctx.w || ctx.seconds <= 0) return usage();
  ctx.lanes = std::clamp<std::size_t>(std::thread::hardware_concurrency() / 2, 1, 2);

  try {
    // Set-up: the graph (median of kSetupReps generations), the served
    // artifact, and mpcspand with its warm-up queries (median of
    // kSetupReps starts). setup_s leaves out the artifact build: it is the call
    // build_s times, and one build is too noisy to count on its own.
    Input in;
    const double graphS = setupGraph(ctx, in);
    BuildPhase build(ctx, in);
    ServeSession ss(ctx, in);
    const auto s0 = Clock::now();
    build.buildArtifacts();
    const double artifactS = secondsSince(s0);
    // The starts go through the artifacts in turn, ending on artifact 0.
    // The daemon's VmHWM repeats for an artifact but differs between them
    // (29.7, 30.2 and 36.2 MB for one graph), so peak_rss_mb on serve-mixed
    // is the median over the three, as artifact_mb is.
    std::vector<double> starts;
    std::vector<std::vector<double>> startRss(kSketchSeeds);
    for (int i = 0; i < kSetupReps; ++i) {
      if (ss.daemon) ctx.check(ss.daemon->stop(), "mpcspand shuts down cleanly");
      ctx.setupRefS.push_back(ctx.ref.measure(kRefSerial));
      const std::size_t artifact = static_cast<std::size_t>(i) % kSketchSeeds;
      const auto d0 = Clock::now();
      ss.start(artifact);
      starts.push_back(secondsSince(d0));
      startRss[artifact].push_back(peakRssMb(std::to_string(ss.daemon->pid())));
    }
    std::vector<double> artifactRss;
    for (const std::vector<double>& r : startRss) artifactRss.push_back(median(r));
    std::fprintf(stderr,
                 "setup: graph %.4f s, artifact %.4f s, daemon start + "
                 "warm-up %.4f s, reference kernel %.4f ms\n",
                 graphS, artifactS, median(starts), median(ctx.setupRefS) * 1e3);

    LoadPhase load(ctx, in);
    MpcPhase local(ctx, in, false), shard(ctx, in, true);
    CcPhase cc(ctx, in);
    FloorPhase floorP(ss);
    DeadlinePhase deadlineP(ss);
    ReloadPhase reloadP(ss);
    const std::vector<Phase*> phases = {&build,  &load,      &local,  &shard,
                                        &cc,     &floorP,    &deadlineP, &reloadP};
    runRounds(ctx, phases);
    ctx.e2e.set("setup_s",
                (graphS + median(starts)) * RefKernel::kNominalS / median(ctx.setupRefS),
                "s");
    for (Phase* p : phases) p->finish();
    ctx.layer.set("bench.ref_ms.serial",
                  ctx.slowdown(kRefSerial) * RefKernel::kNominalS * 1e3, "ms");
    ctx.layer.set("bench.ref_ms.serve",
                  ctx.slowdown(kRefServe) * RefKernel::kNominalS * 1e3, "ms");
    ctx.layer.set("bench.ref_ms.lanes",
                  ctx.slowdown(ctx.lanes) * RefKernel::kNominalS * 1e3, "ms");
    if (ctx.trace) measureLocalQuery(ctx, in);

    ctx.check(local.edges == shard.edges,
              "in-process and sharded spanner edge sets are identical");
    ctx.check(local.edges == build.hostSpanner,
              "the distributed spanner equals the host engine's");
    ctx.check(local.rounds == shard.rounds && local.words == shard.words &&
                  local.maxRoundWords == shard.maxRoundWords,
              "round ledger is identical in-process and sharded");
    ctx.layer.set("runtime.rounds", static_cast<double>(local.rounds), "count");
    ctx.layer.set("runtime.words_moved", static_cast<double>(local.words), "count");
    ctx.layer.set("runtime.max_round_words", static_cast<double>(local.maxRoundWords), "count");
    ctx.layer.set("runtime.shard_slowdown",
                  ctx.e2e.at("mpc_sharded_s").value / ctx.e2e.at("mpc_spanner_s").value,
                  "ratio");

    const double daemonRss = peakRssMb(std::to_string(ss.daemon->pid()));
    ctx.check(ss.daemon->stop(), "mpcspand shuts down cleanly");
    checkWire(ctx, in, floorP.acc.load, deadlineP.acc.load);
    if (ctx.trace)
      ctx.layer.set("serve.wire_overhead_us",
                    floorP.wallP50Us - ctx.layer.at("query.floor_ns").value / 1e3,
                    "us");
    const double driverRss = peakRssMb("self");
    ctx.layer.set("serve.daemon_rss_mb", daemonRss, "MB");
    ctx.layer.set("bench.driver_rss_mb", driverRss, "MB");
    ctx.e2e.set("peak_rss_mb", ctx.w->daemonRss ? median(artifactRss) : driverRss,
                "MB");
  } catch (const std::exception& e) {
    ctx.check(false, std::string("exception: ") + e.what());
  }

  for (const std::string& n : kEndToEnd)
    ctx.check(ctx.e2e.has(n), "end-to-end metric measured: " + n);
  for (const std::string& n : ctx.e2e.rejected())
    ctx.check(false, "malformed metric " + n);
  for (const std::string& n : ctx.layer.rejected())
    ctx.check(false, "malformed metric " + n);
  if (ctx.trace) printTraceReport(ctx);

  const bool correct = ctx.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, ctx.attempted)),
              static_cast<unsigned long long>(ctx.failed),
              ctx.trace ? ctx.layer.json(ctx.layer.names()).c_str()
                        : ctx.e2e.json(kEndToEnd).c_str());
  return correct ? 0 : 1;
}
