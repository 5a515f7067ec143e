/// \file chrome_trace.hpp
/// \brief Chrome `trace_event` JSON exporter: Profiler regions, execution-
/// stream intervals and step boundaries on one timeline.
///
/// The paper's Fig. 2 is a stream timeline of the task-overlapped coarse
/// solve; Fig. 4 is a region breakdown of the step. Both views come from the
/// same run here: the Profiler's timestamped region timeline and the
/// TraceRecorder's stream intervals share the Telemetry epoch, so the
/// exporter can merge them into a single JSON object-format trace that
/// chrome://tracing and Perfetto load directly.
///
/// Mapping:
///  * Profiler regions   → complete events ("ph":"X"), tid 1, cat "profiler"
///    (properly nested, so the viewer renders the region tree as a flame);
///  * stream intervals   → complete events, tid 100 + stream id, cat "stream";
///  * step boundaries    → global instant events ("ph":"i", "s":"g"),
///    cat "step";
///  * run metadata       → "otherData" (backend, threads, polynomial order —
///    the same keys BENCH_*.json records carry, so traces and bench sweeps
///    are joinable).
/// All timestamps are microseconds since the shared epoch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/profiler.hpp"
#include "device/stream.hpp"

namespace felis::telemetry {

/// A step boundary on the telemetry clock.
struct StepMark {
  std::int64_t step = 0;
  double t_seconds = 0;
};

/// Serialize the merged trace. `timeline` is Profiler::timeline() (events on
/// the telemetry epoch), `stream_events` is TraceRecorder::events() (same
/// epoch via TraceRecorder::start_at), `steps` are the step-boundary marks,
/// `metadata` lands in "otherData".
std::string chrome_trace_json(
    const std::vector<ProfileTimelineEvent>& timeline,
    const std::vector<device::TraceEvent>& stream_events,
    const std::vector<StepMark>& steps,
    const std::map<std::string, std::string>& metadata);

}  // namespace felis::telemetry
