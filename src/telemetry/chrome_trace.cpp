#include "telemetry/chrome_trace.hpp"

#include <cmath>
#include <sstream>

#include "io/record.hpp"

namespace felis::telemetry {

namespace {

/// Microseconds on the shared clock, clamped non-negative (an interval that
/// began before the epoch — a recorder attached mid-run — pins to 0).
std::int64_t usec(double seconds) {
  const double us = seconds * 1e6;
  return us > 0 ? static_cast<std::int64_t>(std::llround(us)) : 0;
}

void complete_event(std::ostringstream& os, bool& first, const std::string& name,
                    const char* cat, int tid, double t_begin, double t_end) {
  if (!first) os << ",\n";
  first = false;
  const std::int64_t ts = usec(t_begin);
  std::int64_t dur = usec(t_end) - ts;
  if (dur < 0) dur = 0;
  os << R"({"name":")" << io::escape(name) << R"(","cat":")" << cat
     << R"(","ph":"X","pid":1,"tid":)" << tid << R"(,"ts":)" << ts
     << R"(,"dur":)" << dur << "}";
}

void thread_name(std::ostringstream& os, bool& first, int tid,
                 const std::string& name) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
     << R"(,"args":{"name":")" << io::escape(name) << R"("}})";
}

}  // namespace

std::string chrome_trace_json(
    const std::vector<ProfileTimelineEvent>& timeline,
    const std::vector<device::TraceEvent>& stream_events,
    const std::vector<StepMark>& steps,
    const std::map<std::string, std::string>& metadata) {
  constexpr int kProfilerTid = 1;
  constexpr int kStreamTidBase = 100;

  std::ostringstream os;
  os << "{\n\"traceEvents\": [\n";
  bool first = true;

  os.setf(std::ios::fmtflags(0), std::ios::floatfield);
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"felis"}})";
  thread_name(os, first, kProfilerTid, "solver (profiler regions)");

  // Profiler regions: the last element of the slash path is the display
  // name; the full path rides in args so it survives flattening.
  for (const ProfileTimelineEvent& e : timeline) {
    const auto slash = e.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? e.path : e.path.substr(slash + 1);
    if (!first) os << ",\n";
    first = false;
    const std::int64_t ts = usec(e.t_begin);
    std::int64_t dur = usec(e.t_end) - ts;
    if (dur < 0) dur = 0;
    os << R"({"name":")" << io::escape(leaf)
       << R"(","cat":"profiler","ph":"X","pid":1,"tid":)" << kProfilerTid
       << R"(,"ts":)" << ts << R"(,"dur":)" << dur << R"(,"args":{"path":")"
       << io::escape(e.path) << R"("}})";
  }

  // Stream intervals: one viewer row per stream.
  int max_stream = -1;
  for (const device::TraceEvent& e : stream_events) {
    complete_event(os, first, e.name, "stream", kStreamTidBase + e.stream,
                   e.t_begin, e.t_end);
    if (e.stream > max_stream) max_stream = e.stream;
  }
  for (int s = 0; s <= max_stream; ++s) {
    thread_name(os, first, kStreamTidBase + s,
                s == 0 ? "stream 0 (fine)" : "stream " + std::to_string(s) +
                                                 " (coarse)");
  }

  // Step boundaries as globally scoped instant events.
  for (const StepMark& m : steps) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":"step )" << m.step
       << R"(","cat":"step","ph":"i","s":"g","pid":1,"tid":)" << kProfilerTid
       << R"(,"ts":)" << usec(m.t_seconds) << "}";
  }

  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  bool first_meta = true;
  for (const auto& [key, value] : metadata) {
    if (!first_meta) os << ", ";
    first_meta = false;
    os << '"' << io::escape(key) << R"(": ")" << io::escape(value) << '"';
  }
  os << "}\n}\n";
  return os.str();
}

}  // namespace felis::telemetry
