#include "sched/manifest.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "io/durable_append.hpp"
#include "io/record.hpp"
#include "sched/campaign.hpp"

namespace felis::sched {

namespace {

bool is_terminal(std::string_view state) {
  return state == "done" || state == "failed";
}

}  // namespace

std::string format_header_record(const CampaignSpec& spec) {
  return io::Record()
      .add("type", "header")
      .add("schema", kManifestSchema)
      .add("campaign", spec.config.name)
      .add("cases", static_cast<std::int64_t>(spec.cases.size()))
      .add("workers", spec.config.workers)
      .add("thread_budget", spec.config.thread_budget)
      .add("ranks", spec.config.ranks)
      .str();
}

std::string format_case_record(const CaseSpec& spec) {
  return io::Record()
      .add("type", "case")
      .add("case", spec.id)
      .add("threads", spec.threads)
      .add("steps", spec.steps)
      .add("cost_seconds", spec.cost_seconds)
      .add("tenant", spec.tenant)
      .add("priority", spec.priority)
      .add("overrides", io::Map(spec.overrides.begin(), spec.overrides.end()))
      .str();
}

std::string format_resume_record(int pending) {
  return io::Record().add("type", "resume").add("pending", pending).str();
}

std::string format_run_record(const std::string& case_id,
                              const std::string& state, int attempt,
                              double campaign_seconds, double wall_seconds,
                              const std::string& detail,
                              const std::map<std::string, double>& metrics) {
  io::Record rec;
  rec.add("type", "run")
      .add("case", case_id)
      .add("state", state)
      .add("attempt", attempt)
      .add("t", campaign_seconds)
      .add("wall_seconds", wall_seconds);
  if (!detail.empty()) rec.add("detail", detail);
  if (!metrics.empty())
    rec.add("metrics", io::Map(metrics.begin(), metrics.end()));
  return rec.str();
}

std::string format_submit_record(const std::string& submission_id,
                                 const std::string& tenant, int priority,
                                 const std::string& decision,
                                 const std::string& reason, int cases,
                                 double cost_seconds, double campaign_seconds) {
  io::Record rec;
  rec.add("type", "submit")
      .add("submission", submission_id)
      .add("tenant", tenant)
      .add("priority", priority)
      .add("decision", decision);
  if (!reason.empty()) rec.add("reason", reason);
  rec.add("cases", cases)
      .add("cost_seconds", cost_seconds)
      .add("t", campaign_seconds);
  return rec.str();
}

ManifestWriter::ManifestWriter(const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  out_ = std::make_unique<io::DurableAppendWriter>(path, /*flush_every=*/1);
}

ManifestWriter::~ManifestWriter() = default;

void ManifestWriter::append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_->append(line);
}

void ManifestWriter::write_header(const CampaignSpec& spec) {
  append(format_header_record(spec));
}

void ManifestWriter::write_case(const CaseSpec& spec) {
  append(format_case_record(spec));
}

void ManifestWriter::write_resume(int pending) {
  append(format_resume_record(pending));
}

void ManifestWriter::write_transition(
    const std::string& case_id, const std::string& state, int attempt,
    double campaign_seconds, double wall_seconds, const std::string& detail,
    const std::map<std::string, double>& metrics) {
  append(format_run_record(case_id, state, attempt, campaign_seconds,
                           wall_seconds, detail, metrics));
}

void ManifestWriter::write_submit(const std::string& submission_id,
                                  const std::string& tenant, int priority,
                                  const std::string& decision,
                                  const std::string& reason, int cases,
                                  double cost_seconds,
                                  double campaign_seconds) {
  append(format_submit_record(submission_id, tenant, priority, decision,
                              reason, cases, cost_seconds, campaign_seconds));
}

std::string extract_json_string(const std::string& line, const std::string& key,
                                bool* found) {
  const std::optional<io::Record> rec = io::parse_record(line);
  const std::optional<std::string_view> value =
      rec ? rec->string(key) : std::nullopt;
  if (found) *found = value.has_value();
  return std::string(value.value_or(""));
}

void apply_manifest_line(ManifestState& state, const std::string& line) {
  // A kill can tear at most the final line; the codec rejects any line that
  // is not one whole record, and a rejected line changes nothing.
  if (const std::optional<io::Record> rec = io::parse_record(line))
    apply_manifest_line(state, *rec);
}

void apply_manifest_line(ManifestState& state, const io::Record& rec) {
  const std::optional<std::string_view> type = rec.string("type");
  if (!type) return;
  if (*type == "submit") {
    const std::optional<std::string_view> id = rec.string("submission");
    const std::optional<std::string_view> decision = rec.string("decision");
    if (!id || !decision) return;
    SubmissionStatus& sub = state.submissions[std::string(*id)];
    if (sub.terminal()) {
      // One decision per submission: a second terminal record means two
      // services shared a spool or an admission re-ran after its decision
      // was already durable — the double-admit the protocol exists to
      // prevent. Refuse loudly rather than re-running or re-rejecting.
      throw ManifestReplayError(
          "manifest replay: duplicate decision for submission '" +
          std::string(*id) + "' (journalled '" + sub.decision + "', then '" +
          std::string(*decision) + "')");
    }
    sub.decision = *decision;
    sub.reason = rec.string("reason").value_or("");
    sub.tenant = rec.string("tenant").value_or("");
    sub.priority = static_cast<int>(rec.integer("priority").value_or(0));
    sub.cases = static_cast<int>(rec.integer("cases").value_or(0));
    sub.cost_seconds = rec.number("cost_seconds").value_or(0);
    return;
  }
  if (*type != "run") return;
  const std::optional<std::string_view> id = rec.string("case");
  const std::optional<std::string_view> run_state = rec.string("state");
  if (!id || !run_state) return;
  CaseStatus& cs = state.cases[std::string(*id)];
  if (is_terminal(cs.state) && is_terminal(*run_state)) {
    // Two terminal records with no re-queue in between: a correct scheduler
    // never writes this. Last-writer-wins here would let a stale `failed`
    // re-run a completed case, or a stale `done` mask a real failure.
    throw ManifestReplayError(
        "manifest replay: duplicate terminal record for case '" +
        std::string(*id) + "' (journalled '" + cs.state + "', then '" +
        std::string(*run_state) + "')");
  }
  if (cs.completed()) {
    // `done` is absorbing: a late queued/running/retried append from a stale
    // attempt must never resurrect a completed case into the run queue.
    return;
  }
  cs.state = *run_state;
  if (const std::optional<std::int64_t> attempt = rec.integer("attempt"))
    cs.attempts = std::max(cs.attempts, static_cast<int>(*attempt));
  if (cs.state == "done") {
    cs.metrics.clear();
    if (const io::Map* metrics = rec.map("metrics"))
      io::fold_numbers(*metrics, "", &cs.metrics);
  }
}

ManifestState read_manifest(const std::string& path) {
  ManifestState state;
  std::ifstream in(path);
  if (!in.good()) return state;  // fresh campaign: no manifest yet
  state.found = true;
  std::string line;
  while (std::getline(in, line)) apply_manifest_line(state, line);
  return state;
}

}  // namespace felis::sched
