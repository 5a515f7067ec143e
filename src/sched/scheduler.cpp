#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logger.hpp"
#include "io/durable_append.hpp"
#include "io/fault_injector.hpp"
#include "io/record.hpp"
#include "sched/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::sched {

double CampaignReport::utilisation() const {
  const double denom = wall_seconds * static_cast<double>(thread_budget);
  return denom > 0 ? busy_thread_seconds / denom : 0.0;
}

double CampaignReport::cases_per_hour() const {
  return wall_seconds > 0
             ? static_cast<double>(completed + skipped) * 3600.0 / wall_seconds
             : 0.0;
}

void RunContext::heartbeat() {
  if (clock_) last_beat_.store(clock_(), std::memory_order_relaxed);
}

bool RunContext::cancelled() const {
  if (cancel_.load(std::memory_order_relaxed)) return true;
  return drain_ != nullptr && drain_->load(std::memory_order_relaxed);
}

namespace {

std::atomic<Scheduler*> g_sigint_target{nullptr};

// Async-signal-safe: one relaxed load + one relaxed store, nothing else.
void sigint_handler(int) {
  if (Scheduler* s = g_sigint_target.load(std::memory_order_relaxed))
    s->request_drain();
}

// Scheduler-side observability state (campaign.monitor = true): the sched.*
// metrics registry plus the crash-safe journal they are exported through.
// Lives only for the duration of run(); every charge site is gated by one
// relaxed load of the owning atomic pointer so the disabled path costs a
// load + branch and nothing else.
struct MonitorState {
  explicit MonitorState(const std::string& path) : out(path) {}
  telemetry::MetricsRegistry metrics;
  io::DurableAppendWriter out;
};

// Charge the queue-shape gauges and journal one record; callers hold the
// RunState mutex (so queue/active/threads_in_flight reads are consistent)
// and have already passed the relaxed-load gate.
void charge_sched(MonitorState& m, double t, int queue_depth, int workers_busy,
                  int in_flight) {
  m.metrics.set("sched.queue_depth", queue_depth);
  m.metrics.set("sched.workers_busy", workers_busy);
  m.metrics.set("sched.threads_in_flight", in_flight);
  // One `sched` record: the registry in the same `metrics` map shape
  // telemetry step records use, so the monitor reads both the same way.
  m.out.append(io::Record()
                   .add("type", "sched")
                   .add("t", t)
                   .add("metrics", telemetry::metrics_map(m.metrics))
                   .str());
}

// A tenant without an explicit quota may use the whole budget; fair-share
// ordering still balances it against the other tenants.
int quota_of(const CampaignConfig& cfg, const std::string& tenant) {
  const auto it = cfg.tenant_quota.find(tenant);
  return it != cfg.tenant_quota.end() ? it->second : cfg.thread_budget;
}

}  // namespace

// Everything run() shares with the service-facing entry points
// (submit_case, journal_submission, pending_cost_seconds): the queue, the
// pool ledgers and the session report, all guarded by one mutex. Lifted out
// of run()'s locals so submissions can arrive while the pool is resident.
struct Scheduler::RunState {
  struct QueueEntry {
    usize case_index;
    int attempt;
    double ready_at;   ///< campaign-clock seconds (retry backoff gate)
    double queued_at;  ///< when the entry joined the queue (wait metric)
  };
  struct ActiveRun {
    RunContext ctx;
    usize case_index = 0;
    int threads = 1;
    int priority = 0;
    std::string tenant;
    bool preempt = false;  ///< cancelled to make room for higher priority
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<QueueEntry> queue;
  std::vector<std::unique_ptr<ActiveRun>> active;
  int threads_in_flight = 0;
  std::map<std::string, int> tenant_threads;  ///< running threads per tenant
  bool done = false;
  CampaignReport report;
  /// retries consumed this session, per case (resume grants a fresh
  /// allowance; preemptions never consume one).
  std::map<usize, int> session_retries;
  telemetry::Stopwatch watch;
  std::unique_ptr<MonitorState> monitor_owner;
  std::atomic<MonitorState*> monitor{nullptr};

  double clock() const { return watch.seconds(); }
};

void Scheduler::install_sigint_drain(Scheduler* scheduler) {
  g_sigint_target.store(scheduler, std::memory_order_relaxed);
  std::signal(SIGINT, scheduler != nullptr ? sigint_handler : SIG_DFL);
}

Scheduler::Scheduler(CampaignSpec spec, CaseRunner runner)
    : spec_(std::move(spec)), runner_(std::move(runner)) {
  FELIS_CHECK_MSG(runner_ != nullptr, "Scheduler needs a case runner");
}

Scheduler::~Scheduler() {
  // Never leave a dangling signal target behind.
  Scheduler* expected = this;
  if (g_sigint_target.compare_exchange_strong(expected, nullptr))
    std::signal(SIGINT, SIG_DFL);
}

void Scheduler::request_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  if (serving()) {
    std::lock_guard<std::mutex> lock(rs_->mutex);
    rs_->cv.notify_all();
  }
}

double Scheduler::pending_cost_seconds() const {
  if (!serving()) return 0;
  std::lock_guard<std::mutex> lock(rs_->mutex);
  double total = 0;
  for (const RunState::QueueEntry& e : rs_->queue)
    total += spec_.cases[e.case_index].cost_seconds;
  return total;
}

void Scheduler::journal_submission(const std::string& submission_id,
                                   const std::string& tenant, int priority,
                                   const std::string& decision,
                                   const std::string& reason, int cases,
                                   double cost_seconds) {
  FELIS_CHECK_MSG(serving(),
                  "journal_submission requires an active serve-mode run()");
  manifest_->write_submit(submission_id, tenant, priority, decision, reason,
                          cases, cost_seconds, rs_->clock());
  std::lock_guard<std::mutex> lock(rs_->mutex);
  if (MonitorState* m = rs_->monitor.load(std::memory_order_relaxed)) {
    m->metrics.add("sched.submissions." + decision, 1);
    charge_sched(*m, rs_->clock(), static_cast<int>(rs_->queue.size()),
                 static_cast<int>(rs_->active.size()), rs_->threads_in_flight);
  }
}

bool Scheduler::submit_case(CaseSpec cs, std::string* error) {
  const auto refuse = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (!serving()) return refuse("scheduler is not serving");
  std::lock_guard<std::mutex> lock(rs_->mutex);
  RunState& rs = *rs_;
  if (rs.done || draining() || shutdown_.load(std::memory_order_relaxed))
    return refuse("scheduler is shutting down");
  for (const CaseSpec& existing : spec_.cases)
    if (existing.id == cs.id)
      return refuse("duplicate case id '" + cs.id + "'");
  if (cs.threads < 1 || cs.threads > spec_.config.thread_budget)
    return refuse("case '" + cs.id + "' needs " + std::to_string(cs.threads) +
                  " threads but campaign.thread_budget is " +
                  std::to_string(spec_.config.thread_budget));

  const double now = rs.clock();
  const std::string id = cs.id;
  spec_.cases.push_back(std::move(cs));
  const usize idx = spec_.cases.size() - 1;
  CaseOutcome out;
  out.id = id;
  rs.report.outcomes.push_back(std::move(out));
  ++rs.report.submitted;
  // Declaration before transition, exactly like the session seed; both are
  // durable before the spool file may be removed (svc admission protocol).
  manifest_->write_case(spec_.cases[idx]);
  rs.queue.push_back({idx, 1, now, now});
  manifest_->write_transition(id, "queued", 1, now, 0.0);
  if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed)) {
    m->metrics.add("sched.submitted_cases", 1);
    charge_sched(*m, now, static_cast<int>(rs.queue.size()),
                 static_cast<int>(rs.active.size()), rs.threads_in_flight);
  }
  maybe_preempt_locked();
  rs.cv.notify_all();
  return true;
}

void Scheduler::maybe_preempt_locked() {
  RunState& rs = *rs_;
  const CampaignConfig& cfg = spec_.config;
  if (rs.queue.empty() || rs.active.empty()) return;
  if (draining()) return;  // drain already cancels every active run

  // The entry preemption would serve: the highest-priority ready entry.
  const double now = rs.clock();
  const CaseSpec* best = nullptr;
  for (const RunState::QueueEntry& e : rs.queue) {
    if (e.ready_at > now) continue;
    const CaseSpec& cs = spec_.cases[e.case_index];
    if (best == nullptr || cs.priority > best->priority) best = &cs;
  }
  if (best == nullptr) return;
  const int quota = quota_of(cfg, best->tenant);
  if (best->threads > quota) return;  // no amount of preemption helps

  // Headroom the entry would see once every already-cancelled run returns.
  int budget_free = cfg.thread_budget - rs.threads_in_flight;
  const auto used_it = rs.tenant_threads.find(best->tenant);
  int tenant_free =
      quota - (used_it != rs.tenant_threads.end() ? used_it->second : 0);
  for (const auto& run : rs.active) {
    if (!run->preempt) continue;
    budget_free += run->threads;
    if (run->tenant == best->tenant) tenant_free += run->threads;
  }
  if (budget_free >= best->threads && tenant_free >= best->threads) return;

  // Cancel strictly-lower-priority runs, cheapest victims first (lowest
  // priority, then fewest threads), until the entry would fit. The runner
  // notices at its next step-boundary cancellation check; the newest
  // checkpoint already persists its progress.
  std::vector<RunState::ActiveRun*> victims;
  for (const auto& run : rs.active)
    if (!run->preempt && run->priority < best->priority)
      victims.push_back(run.get());
  std::stable_sort(victims.begin(), victims.end(),
                   [](const RunState::ActiveRun* a,
                      const RunState::ActiveRun* b) {
                     if (a->priority != b->priority)
                       return a->priority < b->priority;
                     return a->threads < b->threads;
                   });
  for (RunState::ActiveRun* run : victims) {
    if (budget_free >= best->threads && tenant_free >= best->threads) break;
    run->preempt = true;
    run->ctx.cancel_.store(true, std::memory_order_relaxed);
    budget_free += run->threads;
    if (run->tenant == best->tenant) tenant_free += run->threads;
    FELIS_LOG_INFO("campaign preempting case '",
                   spec_.cases[run->case_index].id, "' (priority ",
                   run->priority, ") for priority ", best->priority,
                   " work; it will resume from its newest checkpoint");
  }
}

CampaignReport Scheduler::run() {
  FELIS_CHECK_MSG(!ran_, "Scheduler::run() may only be called once");
  ran_ = true;

  const CampaignConfig& cfg = spec_.config;
  std::filesystem::create_directories(cfg.dir);

  // Resume state precedes the writer: the writer appends to the journal.
  const ManifestState previous = read_manifest(spec_.manifest_path());
  manifest_ = std::make_unique<ManifestWriter>(spec_.manifest_path());
  ManifestWriter& manifest = *manifest_;

  rs_ = std::make_unique<RunState>();
  RunState& rs = *rs_;
  rs.report.thread_budget = cfg.thread_budget;
  rs.report.outcomes.resize(spec_.cases.size());

  // ---- observability producer (campaign.monitor) ----
  if (cfg.monitor) {
    rs.monitor_owner =
        std::make_unique<MonitorState>(spec_.sched_stream_path());
    // Per-session header: the monitor rebases this session's `t` values onto
    // its campaign clock when it sees one (resume sessions restart at 0).
    rs.monitor_owner->out.append(io::Record()
                                     .add("type", "header")
                                     .add("schema", "felis-sched-1")
                                     .add("campaign", cfg.name)
                                     .add("workers", cfg.workers)
                                     .add("thread_budget", cfg.thread_budget)
                                     .str());
    rs.monitor.store(rs.monitor_owner.get(), std::memory_order_relaxed);
  }

  const auto clock = [&rs] { return rs.clock(); };

  // ---- seed the queue from the spec and the previous session's journal ----
  int pending = 0;
  for (usize i = 0; i < spec_.cases.size(); ++i) {
    const CaseSpec& cs = spec_.cases[i];
    CaseOutcome& out = rs.report.outcomes[i];
    out.id = cs.id;
    const auto it = previous.cases.find(cs.id);
    const int prior_attempts =
        it != previous.cases.end() ? it->second.attempts : 0;
    if (it != previous.cases.end() && it->second.completed()) {
      out.state = "done";
      out.skipped = true;
      out.attempts = prior_attempts;
      // Keep the recorded metrics so campaign-level aggregates (the Nu-vs-Ra
      // CSV) stay complete across sessions.
      out.result.ok = true;
      out.result.metrics = it->second.metrics;
      ++rs.report.skipped;
      continue;
    }
    rs.queue.push_back({i, prior_attempts + 1, 0.0, 0.0});
    ++pending;
  }

  if (!previous.found) {
    manifest.write_header(spec_);
    for (const CaseSpec& cs : spec_.cases) manifest.write_case(cs);
  } else {
    manifest.write_resume(pending);
    // Cases with no run record yet were never seeded by an earlier session:
    // either a recovered service submission (crash between the admission
    // record and the case declaration) or a spec that grew. Declare them so
    // the manifest stays self-describing; a duplicate declaration after a
    // crash mid-seed is harmless (readers fold declarations last-writer-wins).
    for (const CaseSpec& cs : spec_.cases)
      if (previous.cases.find(cs.id) == previous.cases.end())
        manifest.write_case(cs);
  }
  for (const RunState::QueueEntry& e : rs.queue)
    manifest.write_transition(spec_.cases[e.case_index].id, "queued", e.attempt,
                              clock(), 0.0);
  if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
    charge_sched(*m, clock(), static_cast<int>(rs.queue.size()), 0, 0);

  FELIS_LOG_INFO("campaign '", cfg.name, "': ", pending, " case(s) to run, ",
                 rs.report.skipped, " already done, ", cfg.workers,
                 " worker(s), ", cfg.thread_budget, " thread budget",
                 serve_ ? ", serving" : "");

  const auto maybe_finished = [&]() {
    // Callers hold `rs.mutex`.
    if (rs.done) return;
    const bool idle = rs.queue.empty() && rs.active.empty();
    const bool batch_or_stopping =
        !serve_ || shutdown_.load(std::memory_order_relaxed);
    if ((idle && batch_or_stopping) || (draining() && rs.active.empty())) {
      rs.done = true;
      rs.cv.notify_all();
    }
  };

  // ---- watchdog: cancel runs whose heartbeat went stale ----
  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog;
  if (cfg.watchdog_seconds > 0) {
    watchdog = std::thread([&] {
      const auto poll = std::chrono::milliseconds(std::max(
          10, static_cast<int>(cfg.watchdog_seconds * 1000.0 / 4.0)));
      while (!stop_watchdog.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        std::lock_guard<std::mutex> lock(rs.mutex);
        for (const auto& run : rs.active) {
          const double stale =
              clock() - run->ctx.last_beat_.load(std::memory_order_relaxed);
          if (stale > cfg.watchdog_seconds &&
              !run->ctx.cancel_.exchange(true, std::memory_order_relaxed)) {
            FELIS_LOG_WARN("campaign watchdog: case '",
                           spec_.cases[run->case_index].id, "' silent for ",
                           stale, " s (deadline ", cfg.watchdog_seconds,
                           " s), cancelling attempt ", run->ctx.attempt_);
          }
        }
      }
    });
  }

  // ---- worker pool ----
  std::vector<std::exception_ptr> worker_errors;
  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(rs.mutex);
    while (true) {
      if (rs.done) return;
      if (draining()) {
        // Propagate the drain to active runs (signal handlers cannot), then
        // leave once this worker has nothing of its own in flight.
        for (const auto& run : rs.active)
          run->ctx.cancel_.store(true, std::memory_order_relaxed);
        maybe_finished();
        return;
      }
      // Admission: among ready entries that fit the remaining thread budget
      // and their tenant's quota, pick the highest priority; within a
      // priority band the tenant with the fewest running threads goes first
      // (fair share), and queue position — cost order, LPT — breaks the
      // remaining ties. Single-tenant equal-priority campaigns reduce to the
      // original first-fit-in-cost-order rule.
      auto it = rs.queue.end();
      for (auto q = rs.queue.begin(); q != rs.queue.end(); ++q) {
        if (q->ready_at > clock()) continue;
        const CaseSpec& qc = spec_.cases[q->case_index];
        if (qc.threads > cfg.thread_budget - rs.threads_in_flight) continue;
        const auto used_it = rs.tenant_threads.find(qc.tenant);
        const int used =
            used_it != rs.tenant_threads.end() ? used_it->second : 0;
        if (used + qc.threads > quota_of(cfg, qc.tenant)) continue;
        if (it == rs.queue.end()) {
          it = q;
          continue;
        }
        const CaseSpec& cur = spec_.cases[it->case_index];
        if (qc.priority != cur.priority) {
          if (qc.priority > cur.priority) it = q;
          continue;
        }
        const auto cur_used_it = rs.tenant_threads.find(cur.tenant);
        const int cur_used =
            cur_used_it != rs.tenant_threads.end() ? cur_used_it->second : 0;
        if (qc.tenant != cur.tenant && used < cur_used) it = q;
      }
      if (it == rs.queue.end()) {
        // Nothing fits. If higher-priority work is blocked behind
        // lower-priority runs, start clearing the way before sleeping.
        maybe_preempt_locked();
        maybe_finished();
        if (rs.done) return;
        // Backoff gates and drain flags advance without notifications.
        rs.cv.wait_for(lock, std::chrono::milliseconds(20));
        continue;
      }

      const RunState::QueueEntry entry = *it;
      rs.queue.erase(it);
      // By value: submit_case() may grow spec_.cases (vector reallocation)
      // while this worker runs unlocked.
      const CaseSpec cs = spec_.cases[entry.case_index];

      // GCD accounting: the invariant the stress test asserts.
      rs.threads_in_flight += cs.threads;
      rs.tenant_threads[cs.tenant] += cs.threads;
      FELIS_CHECK_MSG(rs.threads_in_flight <= cfg.thread_budget,
                      "scheduler admitted case '"
                          << cs.id << "' beyond the thread budget ("
                          << rs.threads_in_flight << " > " << cfg.thread_budget
                          << ")");
      FELIS_CHECK_MSG(
          rs.tenant_threads[cs.tenant] <= quota_of(cfg, cs.tenant),
          "scheduler admitted case '"
              << cs.id << "' beyond tenant '" << cs.tenant << "' quota ("
              << rs.tenant_threads[cs.tenant] << " > "
              << quota_of(cfg, cs.tenant) << ")");
      rs.report.max_threads_in_flight =
          std::max(rs.report.max_threads_in_flight, rs.threads_in_flight);

      rs.active.push_back(std::make_unique<RunState::ActiveRun>());
      RunState::ActiveRun* run = rs.active.back().get();
      run->case_index = entry.case_index;
      run->threads = cs.threads;
      run->priority = cs.priority;
      run->tenant = cs.tenant;
      run->ctx.attempt_ = entry.attempt;
      run->ctx.drain_ = &drain_;
      run->ctx.clock_ = clock;
      run->ctx.run_dir_ =
          (std::filesystem::path(cfg.dir) / cs.id).string();
      run->ctx.heartbeat();

      manifest.write_transition(cs.id, "running", entry.attempt, clock(), 0.0);
      if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed)) {
        m->metrics.add("sched.admissions", 1);
        // Queue wait excludes the retry-backoff gate: an entry only becomes
        // schedulable at ready_at, so time before that is intentional delay,
        // not contention.
        m->metrics.observe(
            "sched.queue_wait_seconds",
            std::max(0.0, clock() - std::max(entry.queued_at, entry.ready_at)));
        charge_sched(*m, clock(), static_cast<int>(rs.queue.size()),
                     static_cast<int>(rs.active.size()), rs.threads_in_flight);
      }
      lock.unlock();

      std::filesystem::create_directories(run->ctx.run_dir_);
      const telemetry::Stopwatch run_watch;
      RunResult result;
      try {
        result = runner_(cs, run->ctx);
      } catch (const io::InjectedCrash& crash) {
        result.ok = false;
        result.detail = crash.what();
      } catch (const std::exception& err) {
        result.ok = false;
        result.detail = err.what();
      }
      const double run_wall = run_watch.seconds();
      const bool was_cancelled = run->ctx.cancel_.load(std::memory_order_relaxed);

      lock.lock();
      // maybe_preempt_locked() flips this under the same mutex, so the flag
      // may only be read back here, after the relock.
      const bool was_preempted = run->preempt;
      rs.threads_in_flight -= cs.threads;
      rs.tenant_threads[cs.tenant] -= cs.threads;
      rs.report.busy_thread_seconds += run_wall * cs.threads;
      rs.active.erase(std::find_if(rs.active.begin(), rs.active.end(),
                                   [&](const auto& p) { return p.get() == run; }));

      CaseOutcome& out = rs.report.outcomes[entry.case_index];
      out.attempts = entry.attempt;
      out.wall_seconds += run_wall;

      if (result.ok) {
        out.state = "done";
        out.result = std::move(result);
        ++rs.report.completed;
        manifest.write_transition(cs.id, "done", entry.attempt, clock(),
                                  run_wall, out.result.detail,
                                  out.result.metrics);
        if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
          m->metrics.add("sched.completions", 1);
      } else if (draining()) {
        // Interrupted, not broken: journal `retried` so the next session
        // resumes this case from its newest checkpoint.
        out.state = "retried";
        out.result = std::move(result);
        ++rs.report.drained;
        manifest.write_transition(cs.id, "retried", entry.attempt, clock(),
                                  run_wall, "drain");
      } else if (was_preempted) {
        // Displaced, not broken: re-queue immediately at the same retry
        // allowance. The next admission resumes it from its newest
        // checkpoint — bitwise identical to a run that was never displaced.
        out.state = "preempted";
        ++rs.report.preemptions;
        manifest.write_transition(cs.id, "preempted", entry.attempt, clock(),
                                  run_wall,
                                  result.detail.empty() ? "preempted"
                                                        : result.detail);
        rs.queue.push_back({entry.case_index, entry.attempt + 1, clock(),
                            clock()});
        manifest.write_transition(cs.id, "queued", entry.attempt + 1, clock(),
                                  0.0, "preempted");
        if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
          m->metrics.add("sched.preemptions", 1);
      } else {
        if (was_cancelled && result.detail.empty())
          result.detail = "watchdog timeout";
        int& used = rs.session_retries[entry.case_index];
        if (used < cfg.max_retries) {
          ++used;
          ++rs.report.retries;
          out.state = "retried";
          manifest.write_transition(cs.id, "retried", entry.attempt, clock(),
                                    run_wall, result.detail);
          const double backoff =
              static_cast<double>(cfg.retry_backoff_ms) *
              static_cast<double>(1 << (used - 1)) / 1000.0;
          rs.queue.push_back({entry.case_index, entry.attempt + 1,
                              clock() + backoff, clock()});
          manifest.write_transition(cs.id, "queued", entry.attempt + 1,
                                    clock(), 0.0, result.detail);
          if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
            m->metrics.add("sched.retries", 1);
        } else {
          out.state = "failed";
          out.result = std::move(result);
          ++rs.report.failed;
          FELIS_LOG_ERROR("campaign case '", cs.id, "' failed after ",
                          entry.attempt, " attempt(s): ", out.result.detail);
          manifest.write_transition(cs.id, "failed", entry.attempt, clock(),
                                    run_wall, out.result.detail);
          if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
            m->metrics.add("sched.failures", 1);
        }
      }
      if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
        charge_sched(*m, clock(), static_cast<int>(rs.queue.size()),
                     static_cast<int>(rs.active.size()), rs.threads_in_flight);
      maybe_finished();
      rs.cv.notify_all();
    }
  };

  // A resident service keeps the full pool alive for future submissions; a
  // batch run never needs more workers than queued cases.
  const int nworkers =
      serve_ ? std::max(1, cfg.workers)
             : std::max(1, std::min<int>(cfg.workers,
                                         static_cast<int>(rs.queue.size())));
  std::vector<std::thread> pool;
  worker_errors.resize(static_cast<usize>(nworkers));
  if (serve_) serving_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(rs.mutex);
    maybe_finished();  // empty batch campaign (everything already done)
  }
  pool.reserve(static_cast<usize>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    pool.emplace_back([&, w] {
      try {
        worker();
      } catch (...) {
        worker_errors[static_cast<usize>(w)] = std::current_exception();
        std::lock_guard<std::mutex> lock(rs.mutex);
        rs.done = true;
        rs.cv.notify_all();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  serving_.store(false, std::memory_order_release);
  stop_watchdog.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  for (const std::exception_ptr& e : worker_errors)
    if (e) std::rethrow_exception(e);

  // Drained before ever starting: journalled as queued; count them.
  for (const RunState::QueueEntry& e : rs.queue) {
    CaseOutcome& out = rs.report.outcomes[e.case_index];
    if (out.state.empty()) {
      out.state = "queued";
      ++rs.report.drained;
    }
  }

  // Final journal record: the at-rest queue shape (drained entries included)
  // so a post-mortem `--status` sees the terminal sched.* values.
  if (MonitorState* m = rs.monitor.load(std::memory_order_relaxed))
    charge_sched(*m, clock(), static_cast<int>(rs.queue.size()), 0, 0);

  rs.report.wall_seconds = rs.watch.seconds();
  FELIS_LOG_INFO("campaign '", cfg.name, "': ", rs.report.completed, " done, ",
                 rs.report.skipped, " skipped, ", rs.report.failed,
                 " failed, ", rs.report.drained, " drained, ",
                 rs.report.preemptions, " preempted in ",
                 rs.report.wall_seconds, " s (utilisation ",
                 rs.report.utilisation(), ")");
  return std::move(rs.report);
}

}  // namespace felis::sched
