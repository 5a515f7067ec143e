/// \file felis_perfbench.cpp
/// \brief Measurement program of the repo benchmark (see perfbench/README.md).
///
///   felis_perfbench --workload rbc_large_serial|rbc_cyl_serial --seed N
///                   --seconds S --mode timed|traced --work-dir DIR --out FILE
///
/// `timed` runs the workload untraced and reports the end-to-end metrics;
/// `traced` is the separate per-layer run: spans around the public calls of
/// each layer, the serial ≡ default determinism check, and replays of the
/// pressure solve and its parts on the warmed state. Every number goes to
/// the JSON file `--out`; perfbench/run.py turns it into the result line.
///
/// Cases come from cases::Registry as in examples/quickstart.cpp. The
/// workloads run them on the serial backend (`device.backend=serial`), which
/// uses at most two threads: the default configuration runs more threads than
/// a 4-core host has, and its times then follow the OS scheduler. The traced
/// run also times the default configuration (no backend, overlap or thread
/// key) as per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "case/registry.hpp"
#include "common/crc32.hpp"
#include "device/autotune.hpp"
#include "device/backend.hpp"
#include "device/stream.hpp"
#include "fluid/checkpoint_manager.hpp"
#include "operators/ops.hpp"
#include "precon/coarse.hpp"
#include "sched/case_runner.hpp"
#include "sched/manifest.hpp"

namespace fs = std::filesystem;
using namespace felis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---- process probes ----------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// OS threads of this process right now (one entry per task).
int os_threads() {
  int n = 0;
  std::error_code ec;
  for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec))
    ++n;
  return n;
}

// ---- result ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  long samples = 1;
};

struct Result {
  std::map<std::string, Metric> metrics;
  /// Counts that must repeat exactly across runs of one workload and seed
  /// (run.py compares them against the first run it saw).
  std::map<std::string, std::string> exact;
  std::vector<std::string> errors;
  long attempted = 0;
  long failed = 0;

  void set(const std::string& name, double value, const std::string& unit,
           long samples = 1) {
    metrics[name] = {value, unit, samples};
  }
  void error(const std::string& message) {
    std::fprintf(stderr, "perfbench: ERROR: %s\n", message.c_str());
    errors.push_back(message);
  }
  /// Record an exact count; a differing value under the same key within this
  /// process is an error (e.g. two cases of one seed that disagree).
  void exact_count(const std::string& key, const std::string& value) {
    const auto it = exact.find(key);
    if (it != exact.end() && it->second != value)
      error("exact count '" + key + "' differs within one run: " + it->second +
            " vs " + value);
    exact[key] = value;
  }
};

std::string format_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_exact(v);
}

void write_result(const Result& r, const std::string& path) {
  std::ofstream out(path);
  out << "{\"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"errors\": [";
  for (usize i = 0; i < r.errors.size(); ++i)
    out << (i ? ", " : "") << json_string(r.errors[i]);
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}, \"exact\": {";
  first = true;
  for (const auto& [key, value] : r.exact) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}}\n";
  FELIS_CHECK_MSG(out.good(), "cannot write result file " << path);
}

// ---- spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run: (name, start, end, parent),
/// written out once at exit. Thread-safe; the parent defaults to the
/// innermost open span of the calling thread.
class Tracer {
 public:
  static constexpr int kNoParent = -1;
  static constexpr int kInnermost = -2;  ///< parent = caller's innermost span

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  Clock::time_point epoch() const { return epoch_; }

  int open(const std::string& name, int parent) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now(), -1.0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<usize>(id)].end = now();
  }
  /// A closed span timed by someone else on this tracer's epoch.
  void add(const std::string& name, double start, double end, int parent) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent});
  }

  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"clock\": \"steady, seconds since program start\", \"spans\": [\n";
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": "
          << json_string(s.name) << ", \"start\": " << json_number(s.start)
          << ", \"end\": " << json_number(s.end) << ", \"parent\": " << s.parent
          << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;  ///< -1 while open
    int parent;
  };
  double now() const { return seconds_since(epoch_); }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

thread_local std::vector<int> t_open_spans;

/// RAII span; also a stopwatch, so timed and traced code share one clock.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name,
            int parent = Tracer::kInnermost)
      : tracer_(tracer), start_(Clock::now()) {
    if (parent == Tracer::kInnermost)
      parent = t_open_spans.empty() ? Tracer::kNoParent : t_open_spans.back();
    id_ = tracer_.open(name, parent);
    if (id_ >= 0) t_open_spans.push_back(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { close(); }

  /// Close the span (idempotent); returns its duration in seconds.
  double close() {
    if (!closed_) {
      seconds_ = seconds_since(start_);
      tracer_.close(id_);
      if (id_ >= 0) t_open_spans.pop_back();
      closed_ = true;
    }
    return seconds_;
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_ = -1;
  bool closed_ = false;
  double seconds_ = 0;
};

/// Run `fn` `reps` times under span `name`; median seconds.
double median_span(Tracer& tracer, const std::string& name, int reps,
                   const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    SpanScope span(tracer, name);
    fn();
    t.push_back(span.close());
  }
  return median(t);
}

// ---- timing decorators (krylov replay) ----------------------------------------

class TimedOperator final : public krylov::LinearOperator {
 public:
  TimedOperator(krylov::LinearOperator& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void apply(const RealVec& u, RealVec& out) override {
    SpanScope span(tracer_, "krylov.op_apply");
    inner_.apply(u, out);
    seconds += span.close();
    ++calls;
  }
  double seconds = 0;
  long calls = 0;

 private:
  krylov::LinearOperator& inner_;
  Tracer& tracer_;
};

class TimedPrecon final : public krylov::Preconditioner {
 public:
  TimedPrecon(krylov::Preconditioner& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void apply(const RealVec& r, RealVec& z) override {
    SpanScope span(tracer_, "krylov.precon_apply");
    inner_.apply(r, z);
    seconds += span.close();
    ++calls;
  }
  double seconds = 0;
  long calls = 0;

 private:
  krylov::Preconditioner& inner_;
  Tracer& tracer_;
};

// ---- solver workloads -----------------------------------------------------------

/// One solver case of a workload: registry type, slab mesh and the step plan.
/// The timed window covers whole 8-step projection cycles (the pressure
/// projection basis restarts every `projection_vectors` = 8 steps and that
/// step costs ~3x), after `warmup` startup steps.
struct SolverPlan {
  ParamMap params;          ///< the workload's case, on the serial backend
  ParamMap default_params;  ///< the same case with no backend key
  int warmup = 4;
  int timed = 16;
};

struct SetupTimes {
  double total = 0, rank_setup = 0, coarse_setup = 0, case_build = 0;
};

/// Build a case the way examples/quickstart.cpp does, timing each stage.
/// The process-wide autotune cache is cleared first so every set-up pays
/// the tuning a fresh process pays.
std::unique_ptr<cases::CaseSetup> build_timed_case(const ParamMap& params,
                                             comm::Communicator& comm,
                                             Tracer& tracer, SetupTimes* times) {
  device::TuneCache::instance().clear();
  SpanScope total(tracer, "setup");
  const cases::CaseInfo& info = cases::resolve_case(params);
  device::Backend& backend = device::select_backend(params);
  auto cs = std::make_unique<cases::CaseSetup>();
  {
    SpanScope span(tracer, "setup.geometry");
    cs->geometry = info.make_geometry(params);
  }
  {
    SpanScope span(tracer, "setup.rank_setup");
    cs->fine = operators::make_rank_setup(cs->geometry.mesh, cs->geometry.degree,
                                          comm, /*dealias=*/true,
                                          /*three_halves_rule=*/true, &backend);
    times->rank_setup = span.close();
  }
  {
    SpanScope span(tracer, "setup.coarse_setup");
    cs->coarse = precon::make_coarse_setup(cs->geometry.mesh, comm, &backend);
    times->coarse_setup = span.close();
  }
  {
    SpanScope span(tracer, "setup.case_build");
    cs->sim = info.make_case(cs->fine.ctx(), cs->coarse.ctx(), cs->geometry,
                             params);
    cs->sim->set_initial_conditions();
    times->case_build = span.close();
  }
  times->total = total.close();
  return cs;
}

/// What one run of a case through its step plan measured.
struct CaseRun {
  SetupTimes setup;
  double wall = 0;           ///< set-up + all steps
  double timed_wall = 0;     ///< the timed window
  double timed_cpu = 0;      ///< process user+sys over the timed window
  std::vector<double> step_seconds;  ///< timed steps
  std::vector<fluid::StepInfo> infos;  ///< every step, warm-up included
  long attempted = 0, failed = 0;
  int max_os_threads = 0;
  std::uint32_t fields_crc = 0;
  OpCounters counters;       ///< Profiler counters over the timed window
  double phase_seconds[5] = {0, 0, 0, 0, 0};  ///< forcing..scalar, other
  double precon_seconds[3] = {0, 0, 0};  ///< coarse, schwarz (traced), overlapped
};

std::uint32_t fields_crc(const fluid::FlowSolver& s) {
  std::uint32_t crc = 0;
  for (const RealVec* f : {&s.u(), &s.v(), &s.w(), &s.temperature(),
                           &s.pressure()})
    crc = crc32(reinterpret_cast<const std::byte*>(f->data()),
                f->size() * sizeof(real_t), crc);
  return crc;
}

bool hit_limit(const fluid::StepInfo& info, const fluid::FlowConfig& c) {
  // velocity_iterations sums the three components, so reaching the limit in
  // the sum is the conservative reading of "one component solve hit it".
  return info.pressure_iterations >= c.pressure_control.max_iterations ||
         info.velocity_iterations >= c.velocity_control.max_iterations ||
         info.scalar_iterations >= c.scalar_control.max_iterations;
}

/// A built case together with the communicator its contexts point at.
struct LiveCase {
  comm::SelfComm comm;
  std::unique_ptr<cases::CaseSetup> setup;
};

/// Run `plan` on a fresh case. Step failures (a thrown step, a solve at its
/// iteration limit) are counted; output checks go to `result`. With
/// `trace_steps` each step gets a span and the HSMG preconditioner's own
/// recorder times its coarse and Schwarz terms. With `trace_steps` or
/// `sample_threads` the OS thread count is sampled between steps. `keep`
/// receives the case for replays.
CaseRun run_case(const SolverPlan& plan, const ParamMap& params,
                 Tracer& tracer, bool trace_steps, Result& result,
                 std::unique_ptr<LiveCase>* keep = nullptr,
                 bool sample_threads = false) {
  CaseRun run;
  auto live = std::make_unique<LiveCase>();
  const Clock::time_point t0 = Clock::now();
  live->setup = build_timed_case(params, live->comm, tracer, &run.setup);
  cases::Case& sim = *live->setup->sim;
  const fluid::FlowConfig& config = sim.solver().config();
  Profiler& prof = *live->setup->fine.prof;
  // The Profiler has coarse/schwarz regions only in serial HSMG mode; the
  // recorder times both terms in the default overlapped mode too.
  precon::HsmgPrecon& hsmg = sim.solver().pressure_preconditioner();
  device::TraceRecorder hsmg_trace;
  const int total_steps = plan.warmup + plan.timed;
  bool broken = false;
  double cpu0 = 0;
  Clock::time_point timed0;
  for (int s = 0; s < total_steps; ++s) {
    if (s == plan.warmup) {
      prof.reset();
      if (trace_steps) {
        hsmg_trace.start_at(tracer.epoch());
        hsmg.set_trace(&hsmg_trace);
      }
      cpu0 = cpu_seconds();
      timed0 = Clock::now();
    }
    if (trace_steps || sample_threads)
      run.max_os_threads = std::max(run.max_os_threads, os_threads());
    const bool timed = s >= plan.warmup;
    if (timed) ++run.attempted;
    if (broken) {
      if (timed) ++run.failed;
      continue;
    }
    const Clock::time_point ts = Clock::now();
    try {
      std::unique_ptr<SpanScope> span;
      if (trace_steps) span = std::make_unique<SpanScope>(tracer, "step");
      const fluid::StepInfo info = sim.step();
      run.infos.push_back(info);
      if (timed && hit_limit(info, config)) ++run.failed;
    } catch (const std::exception& e) {
      // A failed operation, counted below; the case cannot step on.
      std::fprintf(stderr, "perfbench: step %d threw: %s\n", s + 1, e.what());
      broken = true;
      if (timed) ++run.failed;
    }
    if (timed) run.step_seconds.push_back(seconds_since(ts));
  }
  run.timed_wall = seconds_since(timed0);
  run.timed_cpu = cpu_seconds() - cpu0;
  run.wall = seconds_since(t0);
  hsmg.set_trace(nullptr);
  for (const device::TraceEvent& e : hsmg_trace.events()) {
    run.precon_seconds[e.name == "coarse" ? 0 : 1] += e.t_end - e.t_begin;
    tracer.add("precon." + e.name, e.t_begin, e.t_end, Tracer::kNoParent);
  }

  // Output checks: a finite divergence and Nusselt number at the end.
  if (!broken) {
    const cases::Observables obs = sim.observables();
    const double div = run.infos.back().divergence;
    if (!std::isfinite(div)) result.error("final divergence is not finite");
    for (const char* key : {"nu_plate", "nu_volume"}) {
      const auto it = obs.find(key);
      if (it == obs.end() || !std::isfinite(it->second))
        result.error(std::string("final ") + key + " is missing or not finite");
    }
  }
  run.fields_crc = fields_crc(sim.solver());

  if (const RegionNode* step = prof.find("step")) {
    run.counters = step->inclusive_counters();
    const char* phases[] = {"forcing", "pressure", "velocity", "scalar"};
    double children = 0;
    for (int i = 0; i < 4; ++i) {
      const RegionNode* n = prof.find(std::string("step/") + phases[i]);
      run.phase_seconds[i] = n ? n->seconds : 0;
      children += run.phase_seconds[i];
    }
    run.phase_seconds[4] = step->seconds - children;
    const RegionNode* overlapped = prof.find("step/pressure/overlapped");
    run.precon_seconds[2] = overlapped ? overlapped->seconds : 0;
  }
  if (keep) *keep = std::move(live);
  return run;
}

/// CRC-32 of the per-step (pressure, velocity, scalar) iteration sequence.
std::uint32_t iteration_crc(const std::vector<fluid::StepInfo>& infos) {
  std::vector<int> seq;
  for (const fluid::StepInfo& i : infos) {
    seq.push_back(i.pressure_iterations);
    seq.push_back(i.velocity_iterations);
    seq.push_back(i.scalar_iterations);
  }
  return crc32(reinterpret_cast<const std::byte*>(seq.data()),
               seq.size() * sizeof(int));
}

/// Exact counts of one case run (identical for every run of a seed).
void record_exact(Result& result, const CaseRun& run, int timed_steps) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", iteration_crc(run.infos));
  result.exact_count("iterations_crc", crc);
  const double n = timed_steps;
  result.exact_count("reductions_per_step", format_exact(run.counters.reductions / n));
  result.exact_count("flops_per_step", format_exact(run.counters.flops / n));
  result.exact_count("bytes_per_step", format_exact(run.counters.bytes / n));
}

// ---- timed solver workload -------------------------------------------------------

/// Fresh cases, one after the other, until `seconds` have passed and at
/// least kMinCases have run. Every time metric of the run is the median over
/// its cases of that case's figure: a burst of host contention that covers a
/// few cases then moves the run's figure far less than it would move a
/// pooled mean or percentile, and no figure depends on how many cases fit.
void timed_solver(const SolverPlan& plan, double seconds, Result& result) {
  constexpr int kMinCases = 5;
  Tracer off(false);
  std::vector<double> setup, case_wall, per_step, p50, p90, cpu;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < kMinCases || seconds_since(t0) < seconds; ++c) {
    const CaseRun run = run_case(plan, plan.params, off, false, result);
    std::vector<double> step_ms;
    for (double s : run.step_seconds) step_ms.push_back(1e3 * s);
    setup.push_back(run.setup.total);
    case_wall.push_back(run.wall);
    per_step.push_back(1e3 * run.timed_wall / plan.timed);
    p50.push_back(quantile(step_ms, 0.5));
    p90.push_back(quantile(step_ms, 0.9));
    cpu.push_back(run.timed_cpu);
    result.attempted += run.attempted;
    result.failed += run.failed;
    record_exact(result, run, plan.timed);
    std::fprintf(stderr, "perfbench: case %d: setup %.3f s, %.2f ms/step, cpu %.2f s\n",
                 c + 1, run.setup.total, per_step.back(), run.timed_cpu);
  }
  const long n = static_cast<long>(per_step.size());
  result.set("time_per_step_ms", median(per_step), "ms", n);
  result.set("step_ms.p50", median(p50), "ms", n);
  result.set("step_ms.p90", median(p90), "ms", n);
  result.set("setup_s", median(setup), "s", static_cast<long>(setup.size()));
  result.set("cpu_s", median(cpu), "s", n);
  result.set("case_wall_s.p50", median(case_wall), "s", n);
}

// ---- campaign ----------------------------------------------------------------------

/// The traced run's campaign: the workload's case at three Ra values, so
/// with two workers one case queues and the perfmodel prices cases that
/// differ. Checkpoints, telemetry and the monitor are on, so the campaign
/// writes a journal, compressed checkpoints and NDJSON.
ParamMap traced_campaign_params(const ParamMap& case_params, const std::string& dir) {
  ParamMap p = case_params;
  p.set("campaign.name", "perfbench_traced");
  p.set("campaign.dir", dir);
  p.set("campaign.workers", 2);
  p.set("campaign.thread_budget", 4);
  p.set("campaign.steps", 8);
  p.set("campaign.monitor", true);
  p.set("sweep.Ra", "1e5,2e5,4e5");
  p.set("checkpoint.every", 8);
  p.set("telemetry.enabled", true);
  p.set("telemetry.interval", 1);
  return p;
}

struct CampaignRun {
  std::vector<double> queue_wait, pred_over_meas;
  double utilisation = 0;
  int max_threads_in_flight = 0, retries = 0;
  double ndjson_bytes = 0, records = 0;
};

std::vector<std::string> read_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Run one campaign in the fresh directory `dir` and check its outputs.
CampaignRun run_campaign(const ParamMap& params, const fs::path& dir,
                         Tracer& tracer, Result& result) {
  CampaignRun run;
  // An existing directory may hold a manifest, and a resume would skip
  // finished cases and fake a near-zero makespan.
  if (fs::exists(dir))
    throw Error("campaign directory " + dir.string() +
                " already exists; the benchmark needs a fresh one");
  SpanScope campaign_span(tracer, "campaign");
  // Bench-side runner decorator: first-start time per case (queue wait) and
  // one span per attempt.
  std::mutex mutex;
  std::map<std::string, double> first_start;
  Clock::time_point run0 = Clock::now();
  const int campaign_id = campaign_span.id();
  sched::CaseRunner inner = sched::make_case_runner();
  sched::CaseRunner decorated = [&](const sched::CaseSpec& cs,
                                    sched::RunContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      first_start.emplace(cs.id, seconds_since(run0));
    }
    SpanScope span(tracer, "case " + cs.id, campaign_id);
    return inner(cs, ctx);
  };
  std::unique_ptr<sched::Scheduler> scheduler;
  {
    SpanScope span(tracer, "campaign.setup");
    scheduler = std::make_unique<sched::Scheduler>(
        sched::CampaignSpec::from_params(params), decorated);
  }
  const sched::CampaignSpec& spec = scheduler->spec();

  run0 = Clock::now();
  sched::CampaignReport report;
  {
    SpanScope span(tracer, "campaign.run");
    report = scheduler->run();
  }

  // ---- output checks ----
  result.attempted += static_cast<long>(spec.cases.size()) + report.retries;
  result.failed += report.failed + report.retries + report.drained;
  if (!report.all_done())
    result.error("campaign not all done: failed=" + std::to_string(report.failed) +
                 " drained=" + std::to_string(report.drained));
  const sched::ManifestState state =
      sched::read_manifest(spec.manifest_path());
  std::map<std::string, int> done_records;
  for (const std::string& line : read_lines(spec.manifest_path()))
    if (sched::extract_json_string(line, "type") == "run" &&
        sched::extract_json_string(line, "state") == "done")
      ++done_records[sched::extract_json_string(line, "case")];
  for (const sched::CaseSpec& cs : spec.cases) {
    const auto it = state.cases.find(cs.id);
    if (it == state.cases.end() || !it->second.completed())
      result.error("manifest does not show case " + cs.id + " done");
    if (done_records[cs.id] != 1)
      result.error("manifest has " + std::to_string(done_records[cs.id]) +
                   " done records for case " + cs.id);
  }
  sched::write_nu_ra_csv(spec, report, spec.summary_csv_path());
  int rows = 0;
  for (const std::string& line : read_lines(spec.summary_csv_path())) {
    if (line.empty() || line[0] == '#' || line.rfind("case,", 0) == 0) continue;
    std::vector<std::string> cols;
    std::stringstream ss(line);
    for (std::string c; std::getline(ss, c, ',');) cols.push_back(c);
    ++rows;
    const double nu = cols.size() > 6 ? std::strtod(cols[6].c_str(), nullptr) : NAN;
    if (!std::isfinite(nu) || nu < 0.99)
      result.error("nu_ra.csv row '" + line + "' has Nu " + format_exact(nu) +
                   " (needs finite >= 0.99)");
  }
  if (rows != static_cast<int>(spec.cases.size()))
    result.error("nu_ra.csv has " + std::to_string(rows) + " rows for " +
                 std::to_string(spec.cases.size()) + " cases");

  // ---- metrics ----
  std::map<std::string, const sched::CaseSpec*> spec_by_id;
  for (const sched::CaseSpec& cs : spec.cases) spec_by_id[cs.id] = &cs;
  for (const sched::CaseOutcome& out : report.outcomes) {
    const sched::CaseSpec& cs = *spec_by_id.at(out.id);
    if (out.wall_seconds > 0)
      run.pred_over_meas.push_back(cs.cost_seconds / out.wall_seconds);
    run.queue_wait.push_back(first_start.count(out.id) ? first_start[out.id] : 0);
    const auto nu = out.result.metrics.find("nu_plate");
    if (nu != out.result.metrics.end())
      result.exact_count("nu_plate." + out.id, format_exact(nu->second));
  }
  run.utilisation = report.utilisation();
  run.max_threads_in_flight = report.max_threads_in_flight;
  run.retries = report.retries;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() != ".ndjson") continue;
    run.ndjson_bytes += static_cast<double>(e.file_size());
    run.records += static_cast<double>(read_lines(e.path()).size());
  }
  return run;
}

// ---- traced run ------------------------------------------------------------------

/// Per-layer metrics of a solver case: set-up stages, phases, the serial ≡
/// default determinism check and replays of the pressure solve's parts on the
/// warmed state.
void traced_solver(const SolverPlan& plan, const fs::path& work, Tracer& tracer,
                   Result& result) {
  // Set-up stages (median of three set-ups) and autotune on its own.
  std::vector<double> rank_setup, tune, coarse_setup, case_build;
  for (int i = 0; i < 3; ++i) {
    comm::SelfComm comm;
    SetupTimes t;
    auto cs = build_timed_case(plan.params, comm, tracer, &t);
    rank_setup.push_back(t.rank_setup);
    coarse_setup.push_back(t.coarse_setup);
    case_build.push_back(t.case_build);
    device::TuneCache::instance().clear();
    SpanScope span(tracer, "setup.tune");
    operators::tune_tensor_kernels(cs->fine.space,
                                   device::select_backend(plan.params));
    tune.push_back(span.close());
  }
  result.set("setup.rank_setup_s", median(rank_setup), "s", 3);
  result.set("setup.tune_s", median(tune), "s", 3);
  result.set("setup.coarse_setup_s", median(coarse_setup), "s", 3);
  result.set("setup.case_build_s", median(case_build), "s", 3);

  // Untraced reference, then the traced run of the same steps.
  Tracer off(false);
  const CaseRun plain = run_case(plan, plan.params, off, false, result);
  std::unique_ptr<LiveCase> warmed;
  const CaseRun traced = run_case(plan, plan.params, tracer, true, result, &warmed);
  result.attempted += traced.attempted;
  result.failed += traced.failed;
  record_exact(result, plain, plan.timed);
  record_exact(result, traced, plan.timed);
  const double n = plan.timed;
  const double plain_ms = 1e3 * plain.timed_wall / n;
  const double traced_ms = 1e3 * traced.timed_wall / n;
  result.set("trace.overhead_frac", traced_ms / plain_ms - 1.0, "ratio");

  const char* phases[] = {"forcing", "pressure", "velocity", "scalar", "other"};
  for (int i = 0; i < 5; ++i)
    result.set(std::string("fluid.") + phases[i] + "_ms",
               1e3 * traced.phase_seconds[i] / n, "ms", plan.timed);
  const char* precon_nodes[] = {"coarse", "schwarz", "overlapped"};
  for (int i = 0; i < 3; ++i)
    result.set(std::string("precon.") + precon_nodes[i] + "_ms",
               1e3 * traced.precon_seconds[i] / n, "ms", plan.timed);
  std::vector<double> p, v, s;
  for (usize i = static_cast<usize>(plan.warmup); i < traced.infos.size(); ++i) {
    p.push_back(traced.infos[i].pressure_iterations);
    v.push_back(traced.infos[i].velocity_iterations);
    s.push_back(traced.infos[i].scalar_iterations);
  }
  result.set("krylov.pressure_iters", sum(p) / n, "count/step", plan.timed);
  result.set("krylov.pressure_iters.max", p.empty() ? 0 : *std::max_element(p.begin(), p.end()),
             "count", plan.timed);
  result.set("krylov.velocity_iters", sum(v) / n, "count/step", plan.timed);
  result.set("krylov.scalar_iters", sum(s) / n, "count/step", plan.timed);
  result.set("comm.reductions_per_step", traced.counters.reductions / n, "count", plan.timed);
  result.set("operators.gflops_per_step", traced.counters.flops / n / 1e9, "GF", plan.timed);
  result.set("operators.gbytes_per_step", traced.counters.bytes / n / 1e9, "GB", plan.timed);
  result.set("device.os_threads", traced.max_os_threads, "count", plan.timed);

  // Determinism and the default configuration: the same case with no
  // backend key (OpenMP on every core, task-overlapped HSMG) must reproduce
  // the serial run bitwise, the repo's serial ≡ OpenMP invariant.
  const CaseRun dflt = run_case(plan, plan.default_params, off, false, result,
                                nullptr, /*sample_threads=*/true);
  if (iteration_crc(dflt.infos) != iteration_crc(traced.infos))
    result.error("iteration sequence differs between serial and default backend");
  if (dflt.fields_crc != traced.fields_crc)
    result.error("final-field CRC-32 differs between serial and default backend");
  const double default_ms = 1e3 * dflt.timed_wall / n;
  result.set("device.serial_step_ms", plain_ms, "ms", plan.timed);
  result.set("device.default_step_ms", default_ms, "ms", plan.timed);
  result.set("device.speedup_vs_serial", plain_ms / default_ms, "ratio");
  result.set("device.default_os_threads", dflt.max_os_threads, "count", plan.timed);

  // ---- replays on the warmed state (after the checksum above) ----
  fluid::FlowSolver& solver = warmed->setup->sim->solver();
  const operators::Context ctx = solver.context();
  const usize nd = ctx.num_dofs();
  const real_t dt = solver.config().dt;
  // Pressure RHS as FlowSolver::step builds it, from ũ = u + Δt·T e_z (the
  // buoyancy part of the explicit forcing): div_weak → gs → scale → range
  // projection.
  RealVec wt = solver.w();
  for (usize i = 0; i < nd; ++i) wt[i] += dt * solver.temperature()[i];
  RealVec rhs(nd);
  operators::div_weak(ctx, solver.u(), solver.v(), wt, rhs);
  ctx.gs->apply(rhs, gs::GsOp::kAdd);
  operators::vec_scale(ctx.dev(), 1.0 / dt, rhs);
  operators::remove_null_component(ctx, rhs);

  constexpr int kReps = 5;
  {
    krylov::HelmholtzOperator pressure_op(ctx, 1, 0, {});
    krylov::GmresSolver gmres(ctx, solver.config().gmres_restart);
    std::vector<double> solve, orth, op_us, applies, pc_applies;
    for (int r = 0; r < kReps; ++r) {
      TimedOperator op(pressure_op, tracer);
      TimedPrecon pc(solver.pressure_preconditioner(), tracer);
      RealVec x(nd, 0.0);
      SpanScope span(tracer, "krylov.gmres_solve");
      const krylov::SolveStats st =
          gmres.solve(op, pc, rhs, x, solver.config().pressure_control, true);
      const double t = span.close();
      if (!st.converged) result.error("replayed pressure solve did not converge");
      solve.push_back(t);
      orth.push_back(t - op.seconds - pc.seconds);
      op_us.push_back(1e6 * op.seconds / static_cast<double>(std::max(1L, op.calls)));
      applies.push_back(static_cast<double>(op.calls));
      pc_applies.push_back(static_cast<double>(pc.calls));
    }
    result.set("krylov.gmres_solve_ms", 1e3 * median(solve), "ms", kReps);
    result.set("krylov.gmres_orth_ms", 1e3 * median(orth), "ms", kReps);
    result.set("krylov.op_apply_us", median(op_us), "us", kReps);
    result.set("krylov.op_applies", median(applies), "count", kReps);
    result.set("krylov.precon_applies", median(pc_applies), "count", kReps);
  }
  {
    // Velocity-type Helmholtz solve with CG + Jacobi: rhs = H u, from zero.
    const real_t h1 = solver.config().viscosity, h2 = 1.0 / dt;
    const std::vector<lidx_t> mask = krylov::make_mask(ctx, solver.config().velocity_walls);
    krylov::HelmholtzOperator op(ctx, h1, h2, mask);
    krylov::JacobiPrecon jacobi(operators::diag_helmholtz(ctx, h1, h2), ctx.backend);
    RealVec b(nd);
    op.apply(solver.u(), b);
    krylov::CgSolver cg(ctx);
    std::vector<double> t;
    for (int r = 0; r < kReps; ++r) {
      TimedOperator top(op, tracer);
      TimedPrecon tpc(jacobi, tracer);
      RealVec x(nd, 0.0);
      SpanScope span(tracer, "krylov.cg_solve");
      const krylov::SolveStats st = cg.solve(top, tpc, b, x, solver.config().velocity_control);
      t.push_back(span.close());
      if (!st.converged) result.error("replayed CG solve did not converge");
    }
    result.set("krylov.cg_solve_ms", 1e3 * median(t), "ms", kReps);
  }
  {
    precon::HsmgPrecon& hsmg = solver.pressure_preconditioner();
    precon::FdmSolver fdm(ctx);
    RealVec z(nd);
    const double hsmg_s = median_span(tracer, "precon.hsmg_apply", kReps,
                                      [&] { hsmg.apply(rhs, z); });
    const double coarse_s = median_span(tracer, "precon.coarse_solve", kReps,
                                        [&] { hsmg.coarse_solver().solve(rhs, z); });
    const double fdm_s = median_span(tracer, "precon.fdm_apply", kReps,
                                     [&] { fdm.apply(rhs, z); });
    result.set("precon.hsmg_apply_us", 1e6 * hsmg_s, "us", kReps);
    result.set("precon.coarse_solve_us", 1e6 * coarse_s, "us", kReps);
    result.set("precon.fdm_apply_us", 1e6 * fdm_s, "us", kReps);
    result.set("precon.overlap_gain", (coarse_s + fdm_s) / hsmg_s, "ratio");
  }
  {
    constexpr int kKernelReps = 21;
    RealVec out(nd);
    const double ax = median_span(tracer, "operators.ax", kKernelReps, [&] {
      operators::ax_helmholtz(ctx, solver.u(), out, 1.0, 0.0);
    });
    operators::Advector advector(ctx);
    advector.set_velocity(solver.u(), solver.v(), solver.w());
    const double advect = median_span(tracer, "operators.advect", kKernelReps,
                                      [&] { advector.apply(solver.u(), out, 1.0); });
    RealVec f = solver.temperature();
    const double gs_s = median_span(tracer, "gs.apply", kKernelReps,
                                    [&] { ctx.gs->apply(f, gs::GsOp::kAdd); });
    result.set("operators.ax_us", 1e6 * ax, "us", kKernelReps);
    result.set("operators.advect_us", 1e6 * advect, "us", kKernelReps);
    result.set("gs.apply_us", 1e6 * gs_s, "us", kKernelReps);
    // Bytes as the Profiler charges gs: one read and one write of the field.
    result.set("gs.gbytes_per_s",
               2.0 * static_cast<double>(nd * sizeof(real_t)) / gs_s / 1e9, "GB/s",
               kKernelReps);
  }
  {
    // Checkpoint I/O of the warmed state.
    const fluid::Checkpoint ck = warmed->setup->sim->capture_checkpoint();
    std::vector<std::byte> blob;
    const double ser = median_span(tracer, "io.checkpoint_serialize", kReps,
                                   [&] { blob = ck.serialize(true); });
    const double raw = static_cast<double>(ck.serialize(false).size());
    fluid::CheckpointConfig cc;
    cc.directory = (work / ("ckpt." + std::to_string(getpid()))).string();
    cc.keep = 1;
    fluid::CheckpointManager manager(cc);
    std::string path;
    const double write = median_span(tracer, "io.checkpoint_write", kReps,
                                     [&] { path = manager.write(ck); });
    result.set("io.checkpoint_serialize_ms", 1e3 * ser, "ms", kReps);
    result.set("io.checkpoint_write_ms", 1e3 * write, "ms", kReps);
    result.set("io.checkpoint_bytes", static_cast<double>(fs::file_size(path)), "B");
    result.set("compression.ratio", raw / static_cast<double>(blob.size()), "ratio");
    fs::remove_all(cc.directory);
  }
  {
    // Two threads-as-ranks: allreduce latency and the gs neighbour exchange
    // on the workload's mesh split in two.
    constexpr int kReduceReps = 2000;
    double allreduce_s = 0, exchange_s = 0;
    const cases::CaseInfo& info = cases::resolve_case(plan.params);
    const cases::Geometry geo = info.make_geometry(plan.params);
    SpanScope span(tracer, "comm.run_parallel");
    comm::run_parallel(2, [&](comm::Communicator& c) {
      real_t v = 1;
      c.barrier();
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kReduceReps; ++i)
        v = c.allreduce_scalar(v, comm::ReduceOp::kMax);
      const double t = seconds_since(t0) / kReduceReps;
      auto rank = operators::make_rank_setup(geo.mesh, geo.degree, c, false, true,
                                             &device::select_backend(plan.params));
      RealVec field(rank.space.nodes_per_element() *
                        static_cast<usize>(rank.lmesh.num_elements()),
                    1.0);
      std::vector<double> ex;
      for (int i = 0; i < 21; ++i) {
        c.barrier();
        const Clock::time_point te = Clock::now();
        rank.gs->apply(field, gs::GsOp::kAdd);
        ex.push_back(seconds_since(te));
      }
      if (c.rank() == 0) {
        allreduce_s = t;
        exchange_s = median(ex);
      }
    });
    result.set("comm.allreduce_us", 1e6 * allreduce_s, "us", kReduceReps);
    result.set("comm.gs_exchange_us", 1e6 * exchange_s, "us", 21);
  }
}

/// Scheduler-side per-layer metrics of one campaign run.
void campaign_layer_metrics(const CampaignRun& run, Result& result) {
  const long cases = static_cast<long>(run.queue_wait.size());
  result.set("sched.queue_wait_s.p50", median(run.queue_wait), "s", cases);
  result.set("sched.queue_wait_s.max",
             *std::max_element(run.queue_wait.begin(), run.queue_wait.end()), "s", cases);
  result.set("sched.utilisation", run.utilisation, "ratio");
  result.set("sched.max_threads_in_flight", run.max_threads_in_flight, "count");
  result.set("sched.retries", run.retries, "count");
  const auto [lo, hi] = std::minmax_element(run.pred_over_meas.begin(), run.pred_over_meas.end());
  result.set("perfmodel.pred_over_meas.p50", median(run.pred_over_meas), "ratio", cases);
  result.set("perfmodel.pred_over_meas.spread", *hi / *lo, "ratio", cases);
  result.set("telemetry.ndjson_bytes", run.ndjson_bytes, "B");
  result.set("telemetry.records", run.records, "count");
}

// ---- main --------------------------------------------------------------------------

struct Options {
  std::string workload, mode = "timed", out, work_dir;
  unsigned seed = 1;
  double seconds = 10;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--mode") o.mode = value;
    else if (key == "--out") o.out = value;
    else if (key == "--work-dir") o.work_dir = value;
    else if (key == "--seed") o.seed = static_cast<unsigned>(std::stoul(value));
    else if (key == "--seconds") o.seconds = std::stod(value);
    else throw Error("unknown argument " + key);
  }
  if (o.out.empty() || o.work_dir.empty())
    throw Error("--out and --work-dir are required");
  if (o.mode != "timed" && o.mode != "traced")
    throw Error("--mode must be timed or traced");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    const fs::path work(opt.work_dir);
    fs::create_directories(work);
    Tracer tracer(opt.mode == "traced");
    Result result;
    // Both workloads: Ra=1e5, dt=1e-2, degree 7, registry defaults otherwise.
    ParamMap case_params;
    case_params.set("case.Ra", 1e5);
    case_params.set("case.dt", 1e-2);
    case_params.set("case.seed", static_cast<int>(opt.seed));
    case_params.set("mesh.degree", 7);
    if (opt.workload == "rbc_large_serial") {
      // Periodic slab, 3x3x12 elements.
      case_params.set("case.type", "rbc");
      case_params.set("mesh.nx", 3);
      case_params.set("mesh.ny", 3);
      case_params.set("mesh.nz", 12);
    } else if (opt.workload == "rbc_cyl_serial") {
      // The paper's geometry: RBC in a cylindrical cell (o-grid, side wall),
      // 120 deformed elements.
      case_params.set("case.type", "rbc_cyl");
      case_params.set("mesh.nz", 6);
    } else {
      throw Error("unknown workload '" + opt.workload +
                  "' (rbc_large_serial, rbc_cyl_serial)");
    }
    ParamMap params = case_params;
    params.set("device.backend", "serial");
    const SolverPlan plan{params, case_params, 4, 16};

    if (opt.mode == "timed") {
      timed_solver(plan, opt.seconds, result);
      result.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      traced_solver(plan, work, tracer, result);
      const fs::path dir = work / ("campaign." + std::to_string(getpid()) + ".traced");
      const CampaignRun run =
          run_campaign(traced_campaign_params(params, dir.string()), dir, tracer, result);
      campaign_layer_metrics(run, result);
      fs::remove_all(dir);
      tracer.write((work / ("trace-" + opt.workload + "-" + std::to_string(opt.seed) +
                            ".json")).string());
    }
    write_result(result, opt.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "felis_perfbench: %s\n", e.what());
    return 2;
  }
}
