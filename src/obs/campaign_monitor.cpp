#include "obs/campaign_monitor.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string_view>
#include <utility>

#include "io/record.hpp"

namespace felis::obs {

namespace fs = std::filesystem;

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

bool CampaignSnapshot::complete() const {
  if (cases.empty()) return false;
  return std::all_of(cases.begin(), cases.end(),
                     [](const CaseView& v) { return v.state == "done"; });
}

const CaseView* CampaignSnapshot::find(const std::string& id) const {
  for (const CaseView& v : cases)
    if (v.id == id) return &v;
  return nullptr;
}

CampaignMonitor::CampaignMonitor(std::string dir)
    : CampaignMonitor(std::move(dir), Options()) {}

CampaignMonitor::CampaignMonitor(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      manifest_follower_((fs::path(dir_) / "manifest.ndjson").string()),
      sched_follower_((fs::path(dir_) / "sched.ndjson").string()) {}

void CampaignMonitor::note_clock(double t) {
  clock_high_water_ = std::max(clock_high_water_, t);
}

std::string CampaignMonitor::telemetry_stream_path(
    const std::string& id) const {
  std::error_code ec;
  const fs::path base = fs::path(dir_) / id / "telemetry";
  const fs::path single = base / "run.ndjson";
  if (fs::is_regular_file(single, ec)) return single.string();
  const fs::path rank0 = base / "rank0" / "run.ndjson";
  if (fs::is_regular_file(rank0, ec)) return rank0.string();
  return "";
}

void CampaignMonitor::apply_manifest(const std::string& line) {
  // Lines the codec rejects (a torn tail) change nothing, in the fold too.
  const std::optional<io::Record> rec = io::parse_record(line);
  if (!rec) return;
  // The production fold first: the monitor's per-case states ARE the resume
  // protocol's, bitwise (this may throw ManifestReplayError, like resume).
  sched::apply_manifest_line(manifest_, *rec);

  // Then the monitor-only fields (header, declarations, timings).
  const std::string type(rec->string("type").value_or(""));
  const auto integer = [&rec](const char* key) {
    return static_cast<int>(rec->integer(key).value_or(0));
  };
  if (type == "header") {
    campaign_ = rec->string("campaign").value_or("");
    workers_ = integer("workers");
    thread_budget_ = integer("thread_budget");
    ranks_ = integer("ranks");
  } else if (type == "case") {
    const std::optional<std::string_view> case_id = rec->string("case");
    if (!case_id) return;
    const std::string id(*case_id);
    CaseDecl decl;
    decl.threads = integer("threads");
    decl.steps = rec->integer("steps").value_or(0);
    decl.cost_seconds = rec->number("cost_seconds").value_or(0);
    if (const auto tenant = rec->string("tenant")) decl.tenant = *tenant;
    decl.priority = integer("priority");
    if (decls_.find(id) == decls_.end()) case_order_.push_back(id);
    decls_[id] = decl;
  } else if (type == "resume") {
    ++resumes_;
    // Each scheduler session restarts its campaign clock at 0; rebase so the
    // monitor's clock stays monotone across sessions.
    clock_offset_ = clock_high_water_;
  } else if (type == "run") {
    const std::optional<std::string_view> case_id = rec->string("case");
    const std::optional<std::string_view> run_state = rec->string("state");
    if (!case_id || !run_state) return;
    const std::string id(*case_id);
    const std::string state(*run_state);
    const int attempt = integer("attempt");
    const double t_abs = rec->number("t").value_or(0) + clock_offset_;
    const double wall = rec->number("wall_seconds").value_or(0);
    note_clock(t_abs);
    if (decls_.find(id) == decls_.end() &&
        timing_.find(id) == timing_.end()) {
      case_order_.push_back(id);  // undeclared but journalled: still shown
    }
    CaseTiming& tm = timing_[id];
    if (state == "queued") {
      tm.queued_t = t_abs;
    } else if (state == "running") {
      tm.running_t = t_abs;
    } else {
      tm.finished_t = t_abs;
      tm.wall_seconds = wall;
      if (state == "retried") ++retry_transitions_;
      if (state == "preempted") ++preempt_transitions_;
    }
    run_events_.push_back({id, state, attempt, t_abs, wall});
  }
}

void CampaignMonitor::apply_case_stream(CaseLive& live,
                                        const std::string& line) {
  const std::optional<io::Record> rec = io::parse_record(line);
  if (!rec || rec->string("type") != "step") return;
  const std::optional<std::int64_t> step = rec->integer("step");
  if (!step) return;
  live.found = true;
  live.step = std::max(live.step, *step);
  live.sim_time = rec->number("time").value_or(0);
  live.wall_seconds = rec->number("wall_seconds").value_or(0);
  const io::Map* metrics = rec->map("metrics");
  const auto metric = [metrics](const char* key) {
    return metrics ? io::map_number(*metrics, key).value_or(0) : 0.0;
  };
  live.cfl = metric("solver.cfl");
  live.nusselt = metric("case.nu_volume");
  live.pressure_residual = metric("solver.pressure_residual");
  live.pressure_iterations = metric("solver.pressure_iterations");
  if (metrics) io::fold_numbers(*metrics, "health.flags.", &live.health_flags);
  if (live.marks.size() < options_.max_step_marks)
    live.marks.push_back({*step, live.wall_seconds});
}

void CampaignMonitor::apply_sched_stream(const std::string& line) {
  const std::optional<io::Record> rec = io::parse_record(line);
  if (!rec) return;
  const std::optional<std::string_view> type = rec->string("type");
  if (type == "header") {
    // A new scheduler session opened the stream: its t restarts at 0.
    sched_session_offset_ = clock_high_water_;
    return;
  }
  if (type != "sched") return;
  note_clock(rec->number("t").value_or(0) + sched_session_offset_);
  if (const io::Map* metrics = rec->map("metrics"))
    io::fold_numbers(*metrics, "sched.", &sched_latest_);
}

usize CampaignMonitor::poll_case_streams() {
  usize consumed = 0;
  std::vector<std::string> lines;
  for (const std::string& id : case_order_) {
    CaseLive& live = live_[id];
    if (!live.follower) {
      const std::string path = telemetry_stream_path(id);
      if (path.empty()) continue;  // case has not started streaming yet
      live.follower = std::make_unique<NdjsonFollower>(path);
    }
    lines.clear();
    consumed += live.follower->poll(&lines);
    if (live.follower->truncations() != live.seen_truncations) {
      // A new attempt restarted the stream from scratch; the polled lines
      // are entirely post-restart content, so drop the stale fold first.
      live.seen_truncations = live.follower->truncations();
      live.found = false;
      live.step = 0;
      live.sim_time = live.wall_seconds = 0;
      live.cfl = live.nusselt = 0;
      live.pressure_residual = live.pressure_iterations = 0;
      live.health_flags.clear();
      live.marks.clear();
    }
    for (const std::string& line : lines) apply_case_stream(live, line);
  }
  return consumed;
}

usize CampaignMonitor::poll() {
  usize consumed = 0;
  std::vector<std::string> lines;

  if (manifest_follower_.exists()) manifest_.found = true;
  consumed += manifest_follower_.poll(&lines);
  for (const std::string& line : lines) apply_manifest(line);

  consumed += poll_case_streams();

  lines.clear();
  if (sched_follower_.exists()) sched_stream_found_ = true;
  consumed += sched_follower_.poll(&lines);
  for (const std::string& line : lines) apply_sched_stream(line);
  return consumed;
}

const std::vector<CampaignMonitor::StepMark>& CampaignMonitor::step_marks(
    const std::string& id) const {
  static const std::vector<StepMark> kEmpty;
  const auto it = live_.find(id);
  return it != live_.end() ? it->second.marks : kEmpty;
}

CampaignSnapshot CampaignMonitor::snapshot() const {
  CampaignSnapshot snap;
  snap.manifest_found = manifest_.found;
  snap.campaign = campaign_;
  snap.workers = workers_;
  snap.thread_budget = thread_budget_;
  snap.ranks = ranks_;
  snap.resumes = resumes_;
  snap.clock_seconds = clock_high_water_;
  snap.retry_transitions = retry_transitions_;
  snap.preempt_transitions = preempt_transitions_;
  snap.sched_stream_found = sched_stream_found_;
  snap.sched = sched_latest_;

  // Service-mode submission decisions, straight off the production fold.
  for (const auto& [id, sub] : manifest_.submissions) {
    (void)id;
    if (sub.decision == "admitted") ++snap.submissions_admitted;
    else if (sub.decision == "rejected") ++snap.submissions_rejected;
    else if (sub.decision == "deferred") ++snap.submissions_deferred;
  }

  for (const std::string& id : case_order_) {
    CaseView v;
    v.id = id;
    const auto decl = decls_.find(id);
    if (decl != decls_.end()) {
      v.threads = decl->second.threads;
      v.steps_planned = decl->second.steps;
      v.cost_seconds = decl->second.cost_seconds;
      v.tenant = decl->second.tenant;
      v.priority = decl->second.priority;
    }
    const auto folded = manifest_.cases.find(id);
    if (folded != manifest_.cases.end()) {
      v.state = folded->second.state;
      v.attempts = folded->second.attempts;
      v.metrics = folded->second.metrics;
    }
    const auto tm = timing_.find(id);
    if (tm != timing_.end()) {
      v.queued_t = tm->second.queued_t;
      v.running_t = tm->second.running_t;
      v.finished_t = tm->second.finished_t;
      v.wall_seconds = tm->second.wall_seconds;
    }
    const auto live = live_.find(id);
    if (live != live_.end() && live->second.found) {
      const CaseLive& l = live->second;
      v.telemetry_found = true;
      v.step = l.step;
      v.sim_time = l.sim_time;
      v.run_wall_seconds = l.wall_seconds;
      v.cfl = l.cfl;
      v.nusselt = l.nusselt;
      v.pressure_residual = l.pressure_residual;
      v.pressure_iterations = l.pressure_iterations;
      v.health_flags = l.health_flags;
    }

    if (v.state == "done") {
      v.progress = 1.0;
    } else if (v.steps_planned > 0 && v.telemetry_found) {
      v.progress = clamp01(static_cast<double>(v.step) /
                           static_cast<double>(v.steps_planned));
    }

    if (v.state.empty()) ++snap.declared;
    else if (v.state == "queued") ++snap.queued;
    else if (v.state == "running") ++snap.running;
    else if (v.state == "done") ++snap.done;
    else if (v.state == "failed") ++snap.failed;
    else if (v.state == "retried") ++snap.retried;
    else if (v.state == "preempted") ++snap.preempted;

    snap.total_cost_seconds += v.cost_seconds;
    const double retired = v.cost_seconds * v.progress;
    snap.progressed_cost_seconds += retired;
    if (v.state == "done") snap.done_cost_seconds += v.cost_seconds;

    // Normalized slowdown: observed wall-seconds per modelled cost actually
    // retired. Comparable across cases whose absolute costs differ by
    // decades of Ra — the basis of the straggler test below.
    double observed_wall = 0;
    if (v.terminal()) observed_wall = v.wall_seconds;
    else if (v.telemetry_found) observed_wall = v.run_wall_seconds;
    if (retired > 0 && v.progress >= options_.min_progress &&
        observed_wall > 0) {
      v.slowdown = observed_wall / retired;
    }

    for (const auto& [flag, n] : v.health_flags) {
      snap.health_flags[flag] += n;
      snap.anomalies += n;
    }
    snap.cases.push_back(std::move(v));
  }

  if (snap.total_cost_seconds > 0) {
    snap.completed_fraction =
        snap.progressed_cost_seconds / snap.total_cost_seconds;
  }
  if (snap.clock_seconds > 0) {
    snap.cost_rate = snap.progressed_cost_seconds / snap.clock_seconds;
  }
  double remaining = 0;
  for (const CaseView& v : snap.cases) {
    if (!v.terminal()) remaining += v.cost_seconds * (1.0 - v.progress);
  }
  if (remaining <= 0) {
    snap.eta_seconds = 0;
  } else if (snap.cost_rate > 0) {
    snap.eta_seconds = remaining / snap.cost_rate;
  }

  // Straggler detection against the fleet's median slowdown: needs at least
  // three comparably progressed cases for a median to mean anything.
  std::vector<double> slowdowns;
  for (const CaseView& v : snap.cases)
    if (v.slowdown > 0) slowdowns.push_back(v.slowdown);
  if (slowdowns.size() >= 3) {
    const usize mid = slowdowns.size() / 2;
    std::nth_element(slowdowns.begin(), slowdowns.begin() + mid,
                     slowdowns.end());
    const double median = slowdowns[mid];
    for (CaseView& v : snap.cases) {
      v.straggler = v.state == "running" && v.slowdown > 0 && median > 0 &&
                    v.slowdown > options_.straggler_factor * median;
    }
  }
  return snap;
}

}  // namespace felis::obs
