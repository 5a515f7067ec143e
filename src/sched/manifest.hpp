/// \file manifest.hpp
/// \brief Crash-safe campaign manifest: NDJSON run-state journal + resume.
///
/// The manifest is the campaign's single source of truth on disk, written
/// through io::DurableAppendWriter (append-only, fsync-per-record, at most
/// one torn final line after a kill). Every line is one io::Record
/// (src/io/record.hpp), so strings and doubles replay exactly. Records:
///
///   {"type":"header", "schema":"felis-campaign-1", "campaign":..., ...}
///   {"type":"case",   "case":id, "threads":t, "steps":s, "cost_seconds":c,
///                     "overrides":{swept key:value,...}}
///   {"type":"run",    "case":id, "state":queued|running|done|failed|
///                     retried|preempted, "attempt":k, "t":campaign-clock,
///                     "wall_seconds":w, "detail":..., "metrics":{...}}
///   {"type":"resume", "pending":n}
///   {"type":"submit", "submission":id, "tenant":..., "priority":p,
///                     "decision":admitted|rejected|deferred, "reason":...,
///                     "cases":n, "cost_seconds":c, "t":campaign-clock}
///
/// State machine per case: queued → running → done | failed | retried |
/// preempted; retried, preempted and failed cases may be re-queued (by the
/// in-session retry/preemption loop or by a later resume). A campaign killed
/// at any instant resumes from its manifest: `done` cases are never re-run,
/// everything else is re-queued and its runner picks up from the newest valid
/// checkpoint.
///
/// `submit` records are the service mode's admission ledger (src/svc/): one
/// decision per spool submission, journalled *before* the spool file is
/// removed, so a SIGKILL at any instant loses no accepted submission and a
/// restart never admits one twice (the fold rejects a second terminal
/// decision). `deferred` is non-terminal: the submission stays in the spool
/// and may later be re-decided.
///
/// Both sides of the protocol are exposed as *pure* functions —
/// format_*_record() produce the exact on-disk line and apply_manifest_line()
/// folds one journal line into a replay state — so the production writer and
/// reader share one implementation with the explicit-state model checker
/// (src/verify/manifest_model.*), which explores crash/torn-tail/duplicate
/// faults over exactly this code.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "sched/sweep.hpp"

namespace felis::io {
class DurableAppendWriter;
class Record;
}

namespace felis::sched {

struct CampaignSpec;

inline constexpr const char* kManifestSchema = "felis-campaign-1";

/// Replay found journal records that contradict the state machine — e.g. a
/// second terminal record for a case that is already `done` (last-writer-wins
/// used to let a stale `failed` resurrect a completed case, re-running it, or
/// a stale `done` mask a real failure). A valid record stream written by one
/// scheduler never triggers this; it means two writers shared a manifest or a
/// writer violated the protocol, and the campaign must stop loudly rather
/// than guess.
class ManifestReplayError : public Error {
 public:
  explicit ManifestReplayError(const std::string& what) : Error(what) {}
};

/// Pure record formatters: the exact journal line (no trailing newline) the
/// writer appends. Shared by ManifestWriter and the protocol model so the
/// checker explores the real on-disk encoding.
std::string format_header_record(const CampaignSpec& spec);
std::string format_case_record(const CaseSpec& spec);
std::string format_resume_record(int pending);
std::string format_run_record(const std::string& case_id,
                              const std::string& state, int attempt,
                              double campaign_seconds, double wall_seconds,
                              const std::string& detail = "",
                              const std::map<std::string, double>& metrics = {});
/// One spool-admission decision (service mode). `decision` is `admitted`,
/// `rejected` or `deferred`; `reason` names why for the latter two.
std::string format_submit_record(const std::string& submission_id,
                                 const std::string& tenant, int priority,
                                 const std::string& decision,
                                 const std::string& reason, int cases,
                                 double cost_seconds, double campaign_seconds);

/// Thread-safe append-side of the manifest (workers log transitions
/// concurrently). Appending to an existing manifest resumes its journal.
class ManifestWriter {
 public:
  explicit ManifestWriter(const std::string& path);
  ~ManifestWriter();

  void write_header(const CampaignSpec& spec);
  void write_case(const CaseSpec& spec);
  void write_resume(int pending);
  /// `metrics` (done transitions) and `detail` (failures) may be empty.
  void write_transition(const std::string& case_id, const std::string& state,
                        int attempt, double campaign_seconds,
                        double wall_seconds, const std::string& detail = "",
                        const std::map<std::string, double>& metrics = {});
  void write_submit(const std::string& submission_id, const std::string& tenant,
                    int priority, const std::string& decision,
                    const std::string& reason, int cases, double cost_seconds,
                    double campaign_seconds);

 private:
  void append(const std::string& line);

  std::mutex mutex_;
  std::unique_ptr<io::DurableAppendWriter> out_;
};

/// Replay-side: the last observed state per case. Tolerates a missing file
/// (fresh campaign) and a torn final line (killed mid-append).
struct CaseStatus {
  std::string state;  ///< last transition ("" = never enqueued)
  int attempts = 0;   ///< highest attempt number observed
  /// Metrics of the `done` record, so a resumed campaign can still aggregate
  /// (Nu-vs-Ra CSV) over cases it did not re-run this session.
  std::map<std::string, double> metrics;
  bool completed() const { return state == "done"; }
};

/// The last decision folded for one spool submission (service mode).
struct SubmissionStatus {
  std::string decision;  ///< admitted | rejected | deferred
  std::string reason;    ///< names why (rejected/deferred)
  std::string tenant;
  int priority = 0;
  int cases = 0;            ///< expanded case count (admitted)
  double cost_seconds = 0;  ///< Σ perfmodel cost of the expansion
  /// Terminal decisions are immutable; only `deferred` may be re-decided.
  bool terminal() const { return decision == "admitted" || decision == "rejected"; }
};

struct ManifestState {
  std::map<std::string, CaseStatus> cases;
  std::map<std::string, SubmissionStatus> submissions;
  bool found = false;  ///< manifest file existed
};

/// Pure replay transition: fold one journal line into `state`. Lines that
/// io::parse_record rejects (torn mid-record, blank, malformed) and records
/// that are neither `run` nor `submit` are ignored — a kill can tear at most
/// the final line. Rules:
///  * `done` is absorbing: queued/running/retried/preempted records for a
///    completed case are stale late appends and are ignored, never applied;
///  * a terminal record (`done`/`failed`) for a case whose replayed state is
///    already terminal — with no re-queue in between — throws
///    ManifestReplayError (duplicate terminal record);
///  * a `submit` record for a submission whose folded decision is already
///    terminal (admitted/rejected) throws ManifestReplayError — the
///    double-admission a correct service can never journal;
///  * everything else is last-writer-wins, as before.
void apply_manifest_line(ManifestState& state, const std::string& line);
/// The same transition on an already parsed record (the campaign monitor
/// reads each line once and folds it here).
void apply_manifest_line(ManifestState& state, const io::Record& record);

ManifestState read_manifest(const std::string& path);

/// The string value of `key` in a journal line (empty when the line is not a
/// whole record or has no such string). Exists only for the frozen benchmark
/// harness (perfbench/); everything else folds through read_manifest or
/// reads records with io::parse_record.
std::string extract_json_string(const std::string& line, const std::string& key,
                                bool* found = nullptr);

}  // namespace felis::sched
