#include "obs/exporters.hpp"

#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>

#include "io/atomic_file.hpp"
#include "io/record.hpp"

namespace felis::obs {

namespace {

std::string quoted(const std::string& s) {
  return "\"" + io::escape(s) + "\"";
}

void emit_flat_map(std::ostringstream& os,
                   const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : m) {
    if (!first) os << ',';
    first = false;
    os << quoted(key) << ':' << io::format_number(value);
  }
  os << '}';
}

/// Prometheus label values: escape backslash, double quote and newline.
std::string prom_label(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Metric-name sanitization: dots become underscores.
std::string prom_name(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == '.') c = '_';
  return out;
}

std::int64_t usec(double seconds) {
  const double us = seconds * 1e6;
  return us > 0 ? static_cast<std::int64_t>(std::llround(us)) : 0;
}

}  // namespace

std::string status_json(const CampaignSnapshot& snap) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"type\": \"campaign_status\",\n";
  os << "  \"schema\": " << quoted(kStatusSchema) << ",\n";
  os << "  \"campaign\": " << quoted(snap.campaign) << ",\n";
  os << "  \"manifest_found\": " << (snap.manifest_found ? "true" : "false")
     << ",\n";
  os << "  \"workers\": " << snap.workers << ",\n";
  os << "  \"thread_budget\": " << snap.thread_budget << ",\n";
  os << "  \"ranks\": " << snap.ranks << ",\n";
  os << "  \"resumes\": " << snap.resumes << ",\n";
  os << "  \"clock_seconds\": " << io::format_number(snap.clock_seconds)
     << ",\n";
  os << "  \"counts\": {\"declared\": " << snap.declared
     << ", \"queued\": " << snap.queued << ", \"running\": " << snap.running
     << ", \"done\": " << snap.done << ", \"failed\": " << snap.failed
     << ", \"retried\": " << snap.retried
     << ", \"preempted\": " << snap.preempted << "},\n";
  os << "  \"retry_transitions\": " << snap.retry_transitions << ",\n";
  os << "  \"service\": {\"admitted\": " << snap.submissions_admitted
     << ", \"rejected\": " << snap.submissions_rejected
     << ", \"deferred\": " << snap.submissions_deferred
     << ", \"preemptions\": " << snap.preempt_transitions << "},\n";
  os << "  \"progress\": {\"total_cost_seconds\": "
     << io::format_number(snap.total_cost_seconds)
     << ", \"done_cost_seconds\": " << io::format_number(snap.done_cost_seconds)
     << ", \"progressed_cost_seconds\": "
     << io::format_number(snap.progressed_cost_seconds)
     << ", \"completed_fraction\": "
     << io::format_number(snap.completed_fraction)
     << ", \"cost_rate\": " << io::format_number(snap.cost_rate)
     << ", \"eta_seconds\": " << io::format_number(snap.eta_seconds) << "},\n";
  os << "  \"health\": {\"anomalies\": " << io::format_number(snap.anomalies)
     << ", \"flags\": ";
  emit_flat_map(os, snap.health_flags);
  os << "},\n";
  os << "  \"sched_stream_found\": "
     << (snap.sched_stream_found ? "true" : "false") << ",\n";
  os << "  \"sched\": ";
  emit_flat_map(os, snap.sched);
  os << ",\n";
  os << "  \"cases\": [\n";
  bool first = true;
  for (const CaseView& v : snap.cases) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"case\": " << quoted(v.id) << ", \"state\": "
       << quoted(v.state) << ", \"attempts\": " << v.attempts
       << ", \"tenant\": " << quoted(v.tenant)
       << ", \"priority\": " << v.priority
       << ", \"threads\": " << v.threads
       << ", \"steps_planned\": " << v.steps_planned
       << ", \"step\": " << v.step
       << ", \"time\": " << io::format_number(v.sim_time)
       << ", \"progress\": " << io::format_number(v.progress)
       << ", \"cost_seconds\": " << io::format_number(v.cost_seconds)
       << ", \"wall_seconds\": " << io::format_number(v.wall_seconds)
       << ", \"queued_t\": " << io::format_number(v.queued_t)
       << ", \"running_t\": " << io::format_number(v.running_t)
       << ", \"finished_t\": " << io::format_number(v.finished_t)
       << ", \"telemetry_found\": " << (v.telemetry_found ? "true" : "false")
       << ", \"nu_volume\": " << io::format_number(v.nusselt)
       << ", \"cfl\": " << io::format_number(v.cfl)
       << ", \"pressure_residual\": " << io::format_number(v.pressure_residual)
       << ", \"pressure_iterations\": "
       << io::format_number(v.pressure_iterations)
       << ", \"slowdown\": " << io::format_number(v.slowdown)
       << ", \"straggler\": " << (v.straggler ? "true" : "false")
       << ", \"health_flags\": ";
    emit_flat_map(os, v.health_flags);
    os << ", \"metrics\": ";
    emit_flat_map(os, v.metrics);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string status_prometheus(const CampaignSnapshot& snap) {
  std::ostringstream os;
  os << "# HELP felis_campaign_info Campaign identity (value is always 1).\n"
     << "# TYPE felis_campaign_info gauge\n"
     << "felis_campaign_info{campaign=\"" << prom_label(snap.campaign)
     << "\"} 1\n";
  os << "# HELP felis_campaign_cases Cases by folded manifest state.\n"
     << "# TYPE felis_campaign_cases gauge\n";
  const std::map<std::string, int> counts = {
      {"declared", snap.declared}, {"queued", snap.queued},
      {"running", snap.running},   {"done", snap.done},
      {"failed", snap.failed},     {"retried", snap.retried},
      {"preempted", snap.preempted}};
  for (const auto& [state, n] : counts)
    os << "felis_campaign_cases{state=\"" << state << "\"} " << n << "\n";
  os << "# TYPE felis_campaign_retry_transitions_total counter\n"
     << "felis_campaign_retry_transitions_total " << snap.retry_transitions
     << "\n";
  os << "# HELP felis_campaign_submissions_total Service-mode spool "
        "admission decisions by outcome.\n"
     << "# TYPE felis_campaign_submissions_total counter\n"
     << "felis_campaign_submissions_total{decision=\"admitted\"} "
     << snap.submissions_admitted << "\n"
     << "felis_campaign_submissions_total{decision=\"rejected\"} "
     << snap.submissions_rejected << "\n"
     << "felis_campaign_submissions_total{decision=\"deferred\"} "
     << snap.submissions_deferred << "\n";
  os << "# TYPE felis_campaign_preemptions_total counter\n"
     << "felis_campaign_preemptions_total " << snap.preempt_transitions
     << "\n";
  os << "# TYPE felis_campaign_resumes_total counter\n"
     << "felis_campaign_resumes_total " << snap.resumes << "\n";
  os << "# TYPE felis_campaign_clock_seconds gauge\n"
     << "felis_campaign_clock_seconds "
     << io::format_number(snap.clock_seconds) << "\n";
  os << "# HELP felis_campaign_completed_fraction Cost-weighted campaign "
        "progress in [0,1].\n"
     << "# TYPE felis_campaign_completed_fraction gauge\n"
     << "felis_campaign_completed_fraction "
     << io::format_number(snap.completed_fraction)
     << "\n";
  os << "# TYPE felis_campaign_cost_rate gauge\n"
     << "felis_campaign_cost_rate " << io::format_number(snap.cost_rate)
     << "\n";
  os << "# HELP felis_campaign_eta_seconds Perfmodel-costed time to "
        "completion (-1 = unknown).\n"
     << "# TYPE felis_campaign_eta_seconds gauge\n"
     << "felis_campaign_eta_seconds " << io::format_number(snap.eta_seconds)
     << "\n";
  os << "# TYPE felis_campaign_anomalies_total counter\n"
     << "felis_campaign_anomalies_total "
     << io::format_number(snap.anomalies) << "\n";
  os << "# HELP felis_campaign_health_flags Anomaly detections by class "
        "(summed over cases).\n"
     << "# TYPE felis_campaign_health_flags counter\n";
  for (const auto& [flag, n] : snap.health_flags) {
    static constexpr const char* kPrefix = "health.flags.";
    const std::string leaf = flag.rfind(kPrefix, 0) == 0
                                 ? flag.substr(std::string(kPrefix).size())
                                 : flag;
    os << "felis_campaign_health_flags{class=\"" << prom_label(leaf) << "\"} "
       << io::format_number(n) << "\n";
  }
  os << "# TYPE felis_campaign_case_progress gauge\n";
  for (const CaseView& v : snap.cases)
    os << "felis_campaign_case_progress{case=\"" << prom_label(v.id) << "\"} "
       << io::format_number(v.progress) << "\n";
  os << "# TYPE felis_campaign_case_step gauge\n";
  for (const CaseView& v : snap.cases)
    os << "felis_campaign_case_step{case=\"" << prom_label(v.id) << "\"} "
       << v.step << "\n";
  os << "# TYPE felis_campaign_case_attempts gauge\n";
  for (const CaseView& v : snap.cases)
    os << "felis_campaign_case_attempts{case=\"" << prom_label(v.id) << "\"} "
       << v.attempts << "\n";
  os << "# HELP felis_campaign_case_straggler 1 when the case runs slower "
        "than the fleet's normalized median by the straggler factor.\n"
     << "# TYPE felis_campaign_case_straggler gauge\n";
  for (const CaseView& v : snap.cases)
    os << "felis_campaign_case_straggler{case=\"" << prom_label(v.id)
       << "\"} " << (v.straggler ? 1 : 0) << "\n";
  for (const auto& [key, value] : snap.sched) {
    os << "# TYPE felis_" << prom_name(key) << " gauge\n"
       << "felis_" << prom_name(key) << " " << io::format_number(value) << "\n";
  }
  return os.str();
}

std::string campaign_trace_json(const CampaignMonitor& monitor) {
  const CampaignSnapshot snap = monitor.snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&os, &first](const std::string& event) {
    if (!first) os << ",\n";
    first = false;
    os << event;
  };
  const auto meta = [&](int pid, int tid, const char* what,
                        const std::string& name) {
    std::ostringstream e;
    e << R"({"name":")" << what << R"(","ph":"M","pid":)" << pid;
    if (tid >= 0) e << R"(,"tid":)" << tid;
    e << R"(,"args":{"name":)" << quoted(name) << "}}";
    emit(e.str());
  };
  const auto complete = [&](int pid, int tid, const std::string& name,
                            const char* cat, double t0, double t1,
                            const std::string& args_json) {
    std::ostringstream e;
    e << R"({"name":)" << quoted(name) << R"(,"cat":")" << cat
      << R"(","ph":"X","ts":)" << usec(t0) << R"(,"dur":)"
      << std::max<std::int64_t>(0, usec(t1) - usec(t0)) << R"(,"pid":)" << pid
      << R"(,"tid":)" << tid;
    if (!args_json.empty()) e << R"(,"args":)" << args_json;
    e << '}';
    emit(e.str());
  };
  const auto instant = [&](int pid, int tid, const std::string& name,
                           const char* cat, double t) {
    std::ostringstream e;
    e << R"({"name":)" << quoted(name) << R"(,"cat":")" << cat
      << R"(","ph":"i","s":"t","ts":)" << usec(t) << R"(,"pid":)" << pid
      << R"(,"tid":)" << tid << '}';
    emit(e.str());
  };

  // Track layout: pid 1 is the scheduler (queue-wait intervals + transition
  // instants); every case gets its own process, pid 100+i in declaration
  // order (attempt intervals + per-step instants rebased to the campaign
  // clock via the attempt's `running` timestamp).
  meta(1, -1, "process_name", "scheduler");
  meta(1, 1, "thread_name", "queue");
  meta(1, 2, "thread_name", "transitions");
  std::map<std::string, int> case_pid;
  for (usize i = 0; i < snap.cases.size(); ++i) {
    const int pid = 100 + static_cast<int>(i);
    case_pid[snap.cases[i].id] = pid;
    meta(pid, -1, "process_name", snap.cases[i].id);
    meta(pid, 1, "thread_name", "attempts");
    meta(pid, 2, "thread_name", "steps");
  }

  std::map<std::string, double> pending_queued;
  std::map<std::string, double> pending_running;
  for (const CampaignMonitor::RunEvent& e : monitor.run_events()) {
    const auto pid_it = case_pid.find(e.case_id);
    if (pid_it == case_pid.end()) continue;
    instant(1, 2, e.case_id + " -> " + e.state, "sched", e.t);
    if (e.state == "queued") {
      pending_queued[e.case_id] = e.t;
    } else if (e.state == "running") {
      const auto q = pending_queued.find(e.case_id);
      if (q != pending_queued.end()) {
        std::ostringstream args;
        args << R"({"attempt":)" << e.attempt << '}';
        complete(1, 1, e.case_id, "sched", q->second, e.t, args.str());
        pending_queued.erase(q);
      }
      pending_running[e.case_id] = e.t;
    } else {
      const auto r = pending_running.find(e.case_id);
      if (r != pending_running.end()) {
        std::ostringstream args;
        args << R"({"state":")" << e.state << R"(","attempt":)" << e.attempt
             << '}';
        complete(pid_it->second, 1,
                 "attempt " + std::to_string(e.attempt) + " (" + e.state + ")",
                 "sched", r->second, e.t, args.str());
        pending_running.erase(r);
      }
    }
  }

  for (const CaseView& v : snap.cases) {
    const int pid = case_pid[v.id];
    const double base = v.running_t >= 0 ? v.running_t : 0.0;
    for (const CampaignMonitor::StepMark& mark : monitor.step_marks(v.id)) {
      instant(pid, 2, "step " + std::to_string(mark.step), "step",
              base + mark.wall_seconds);
    }
  }

  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
     << R"("merged":"campaign","campaign":)" << quoted(snap.campaign)
     << R"(,"cases":")" << snap.cases.size() << R"(","workers":")"
     << snap.workers << R"(","thread_budget":")" << snap.thread_budget
     << R"(","resumes":")" << snap.resumes << R"(","clock_seconds":")"
     << io::format_number(snap.clock_seconds) << "\"}}\n";
  return os.str();
}

StatusPaths write_status_files(const CampaignMonitor& monitor,
                               const std::string& dir) {
  const CampaignSnapshot snap = monitor.snapshot();
  StatusPaths paths;
  paths.json = (std::filesystem::path(dir) / "status.json").string();
  paths.prom = (std::filesystem::path(dir) / "status.prom").string();
  {
    io::AtomicFileWriter writer(paths.json);
    writer.stream() << status_json(snap);
    writer.commit();
  }
  {
    io::AtomicFileWriter writer(paths.prom);
    writer.stream() << status_prometheus(snap);
    writer.commit();
  }
  return paths;
}

}  // namespace felis::obs
