// Tests for the field I/O: VTK structural validity (counts, connectivity
// bounds, data sections) and CSV value round trips, on box and curved
// cylinder meshes; and for the journal record codec (io/record): every byte
// value through every string field of every record kind, bitwise double
// round trips, and a reader fuzz over every truncation and byte flip.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/field_io.hpp"
#include "io/record.hpp"
#include "operators/setup.hpp"
#include "sched/campaign.hpp"
#include "sched/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace felis::io {
namespace {

struct IoSetup {
  operators::RankSetup rank;
  RealVec temp;
};

IoSetup make(bool cylinder, int degree) {
  IoSetup s;
  comm::SelfComm comm;
  if (cylinder) {
    mesh::CylinderMeshConfig cfg;
    cfg.nc = 2;
    cfg.nr = 2;
    cfg.nz = 2;
    s.rank = operators::make_rank_setup(mesh::make_cylinder_mesh(cfg), degree,
                                        comm, false);
  } else {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    s.rank = operators::make_rank_setup(mesh::make_box_mesh(cfg), degree, comm,
                                        false);
  }
  s.temp.resize(s.rank.coef.x.size());
  for (usize i = 0; i < s.temp.size(); ++i)
    s.temp[i] = 1.0 - s.rank.coef.z[i] + 0.1 * s.rank.coef.x[i];
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Vtk, StructureAndCountsAreValid) {
  const IoSetup s = make(true, 3);
  const std::string path = "/tmp/felis_test_io.vtk";
  write_vtk(path, s.rank.lmesh, s.rank.space, s.rank.coef, {{"T", &s.temp}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  usize points = 0, cells = 0, cell_ints = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "POINTS") ls >> points;
    if (word == "CELLS") ls >> cells >> cell_ints;
  }
  const usize npe = static_cast<usize>(s.rank.space.nodes_per_element());
  const usize nelem = static_cast<usize>(s.rank.lmesh.num_elements());
  EXPECT_EQ(points, nelem * npe);
  const int n = s.rank.space.n;
  EXPECT_EQ(cells, nelem * static_cast<usize>((n - 1) * (n - 1) * (n - 1)));
  EXPECT_EQ(cell_ints, cells * 9);
  // Connectivity indices must stay within the point count.
  const std::string body = slurp(path);
  EXPECT_NE(body.find("SCALARS T double 1"), std::string::npos);
  EXPECT_NE(body.find("CELL_TYPES"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, RejectsWrongFieldSize) {
  const IoSetup s = make(false, 2);
  RealVec bad(3, 0.0);
  EXPECT_THROW(write_vtk("/tmp/felis_bad.vtk", s.rank.lmesh, s.rank.space,
                         s.rank.coef, {{"bad", &bad}}),
               Error);
}

TEST(Csv, ValuesRoundTrip) {
  const IoSetup s = make(false, 2);
  const std::string path = "/tmp/felis_test_io.csv";
  write_csv(path, s.rank.coef, {{"T", &s.temp}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y,z,T");
  usize rows = 0;
  std::string line;
  real_t max_err = 0;
  while (std::getline(in, line)) {
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream ls(line);
    real_t x, y, z, t;
    ls >> x >> y >> z >> t;
    EXPECT_NEAR(x, s.rank.coef.x[rows], 1e-10);
    max_err = std::max(max_err, std::abs(t - s.temp[rows]));
    ++rows;
  }
  EXPECT_EQ(rows, s.temp.size());
  EXPECT_LT(max_err, 1e-10);
  std::remove(path.c_str());
}

TEST(Csv, MultipleFieldsInStableOrder) {
  const IoSetup s = make(true, 2);
  RealVec other(s.temp.size(), 2.5);
  const std::string path = "/tmp/felis_test_io2.csv";
  // std::map orders keys alphabetically: "a" before "t".
  write_csv(path, s.rank.coef, {{"t_field", &s.temp}, {"a_field", &other}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y,z,a_field,t_field");
  std::remove(path.c_str());
}

// ---- journal record codec -------------------------------------------------

/// The string under `key`, or a marker that no byte string can equal.
std::string str(const Record& rec, std::string_view key) {
  return std::string(rec.string(key).value_or("\xff<absent>"));
}

std::string map_str(const Map& m, const std::string& key) {
  for (const auto& [k, v] : m)
    if (k == key && std::holds_alternative<std::string>(v))
      return std::get<std::string>(v);
  return "\xff<absent>";
}

Record parse_ok(const std::string& line) {
  const std::optional<Record> rec = parse_record(line);
  EXPECT_TRUE(rec.has_value()) << "rejected: " << line;
  return rec.value_or(Record());
}

/// One line of every record kind the journals carry, each with a string in
/// every string field and a number in every number field.
std::vector<std::string> one_record_of_each_kind() {
  sched::CampaignSpec spec;
  spec.config.name = "ra sweep";
  sched::CaseSpec cs;
  cs.id = "case0001_Ra=1e+06";
  cs.cost_seconds = 12.5;
  cs.overrides["case.Ra"] = "1e+06";
  telemetry::MetricsRegistry metrics;
  metrics.set("solver.cfl", 0.42);
  metrics.add("health.flags.iteration_spike", 1);
  metrics.observe("checkpoint.write_seconds", 0.125);
  metrics.histogram("never.observed");
  return {
      sched::format_header_record(spec),
      sched::format_case_record(cs),
      sched::format_resume_record(3),
      sched::format_run_record(cs.id, "done", 2, 10.5, 9.25, "retried once",
                               {{"nu_volume", 1.0 / 3}, {"Ra", 1e6}}),
      sched::format_submit_record("sub-1", "team A", 5, "rejected",
                                  "quota exceeded", 4, 99.5, 1.75),
      Record()
          .add("type", "header")
          .add("schema", 1)
          .add("interval", 1)
          .add("metadata", Map{{"backend", "serial"}, {"degree", "7"}})
          .str(),
      Record()
          .add("type", "step")
          .add("step", 12)
          .add("time", 0.18)
          .add("metrics", telemetry::metrics_map(metrics))
          .str(),
  };
}

TEST(Record, EveryByteRoundTripsThroughEveryStringField) {
  for (int b = 0; b < 256; ++b) {
    // The byte sits between neighbours so an escape cannot swallow them.
    const std::string s = std::string("a") + static_cast<char>(b) + "z";
    SCOPED_TRACE("byte " + std::to_string(b));

    sched::CampaignSpec spec;
    spec.config.name = s;
    EXPECT_EQ(str(parse_ok(sched::format_header_record(spec)), "campaign"), s);

    sched::CaseSpec cs;
    cs.id = s;
    cs.tenant = s;
    cs.overrides[s] = s;
    const Record decl = parse_ok(sched::format_case_record(cs));
    EXPECT_EQ(str(decl, "case"), s);
    EXPECT_EQ(str(decl, "tenant"), s);
    ASSERT_NE(decl.map("overrides"), nullptr);
    EXPECT_EQ(map_str(*decl.map("overrides"), s), s);

    const Record run =
        parse_ok(sched::format_run_record(s, s, 1, 0.5, 0.25, s, {{s, 1.5}}));
    EXPECT_EQ(str(run, "case"), s);
    EXPECT_EQ(str(run, "state"), s);
    EXPECT_EQ(str(run, "detail"), s);
    ASSERT_NE(run.map("metrics"), nullptr);
    EXPECT_EQ(map_number(*run.map("metrics"), s), 1.5);

    const Record submit =
        parse_ok(sched::format_submit_record(s, s, 1, s, s, 2, 0.5, 0.25));
    EXPECT_EQ(str(submit, "submission"), s);
    EXPECT_EQ(str(submit, "tenant"), s);
    EXPECT_EQ(str(submit, "decision"), s);
    EXPECT_EQ(str(submit, "reason"), s);

    // Telemetry/sched metric names (map keys) and header metadata.
    telemetry::MetricsRegistry metrics;
    metrics.set(s, 2.0);
    const Record step = parse_ok(
        Record()
            .add(s, s)
            .add("metrics", telemetry::metrics_map(metrics))
            .add("metadata", Map{{s, s}})
            .str());
    EXPECT_EQ(str(step, s), s);
    EXPECT_EQ(map_number(*step.map("metrics"), s), 2.0);
    EXPECT_EQ(map_str(*step.map("metadata"), s), s);
  }
}

TEST(Record, DoublesRoundTripBitwise) {
  const double values[] = {5e-324,  0.1,     1.0 / 3, -0.0,
                           1e308,   DBL_MAX, -DBL_MAX, 1.23456789012345678,
                           2.0,     1e20,    123456789012345678.0,
                           std::numeric_limits<double>::min()};
  for (const double v : values) {
    SCOPED_TRACE(format_number(v));
    const Record rec = parse_ok(
        Record()
            .add("v", v)
            .add("m", Map{{"v", v}, {"h", Histogram{v, v, v, v, v}}})
            .str());
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    ASSERT_TRUE(rec.number("v").has_value());
    EXPECT_EQ(bits(*rec.number("v")), bits(v));
    ASSERT_NE(rec.map("m"), nullptr);
    EXPECT_EQ(bits(map_number(*rec.map("m"), "v").value_or(1)), bits(v));
    const Histogram& h = std::get<Histogram>((*rec.map("m"))[1].second);
    for (const double x : {h.last, h.count, h.sum, h.min, h.max})
      EXPECT_EQ(bits(x), bits(v));

    // Through a production record: the run record's metrics and clocks.
    const Record run = parse_ok(
        sched::format_run_record("a", "done", 1, v, v, "", {{"nu", v}}));
    EXPECT_EQ(bits(run.number("t").value_or(1)), bits(v));
    EXPECT_EQ(bits(run.number("wall_seconds").value_or(1)), bits(v));
    EXPECT_EQ(bits(map_number(*run.map("metrics"), "nu").value_or(1)),
              bits(v));
  }
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(2.0), "2");

  const std::int64_t ints[] = {0, -1, std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t i : ints) {
    const Record rec = parse_ok(Record().add("i", i).str());
    ASSERT_NE(rec.get<std::int64_t>("i"), nullptr);
    EXPECT_EQ(*rec.get<std::int64_t>("i"), i);
  }
}

TEST(Record, LayoutIsCompactInInsertionOrder) {
  EXPECT_EQ(Record()
                .add("type", "run")
                .add("attempt", 2)
                .add("t", 0.5)
                .add("metrics", Map{{"b", 1.0}, {"a", "x"}})
                .str(),
            R"({"type":"run","attempt":2,"t":0.5,"metrics":{"b":1,"a":"x"}})");
  EXPECT_EQ(escape("q\"b\\n\nt\tr\r\x01\x1f\x7f"),
            "q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\x7f");
}

TEST(Record, ReaderRejectsWhatTheWriterCannotProduce) {
  EXPECT_TRUE(parse_record("{}").has_value());
  for (const char* bad : {
           "",                                     // blank line
           "{",                                    // torn
           R"({"a":[1,2]})",                       // array
           R"({"a":true})", R"({"a":false})", R"({"a":null})",
           R"({"m":{"x":{"y":1}}})",               // nesting past a histogram
           R"({"m":{"h":{"last":1,"count":1,"sum":1,"min":1}}})",
           R"({"m":{"h":{"count":1,"last":1,"sum":1,"min":1,"max":1}}})",
           R"({"a":"\/"})", R"({"a":"\u0041"})",  // unknown escapes
           R"({"a":"\u001F"})", R"({"a":"\u000a"})",
           "{\"a\":\"x\ty\"}",                     // raw control byte
           R"({"a":1e999})", R"({"a":-})", R"({"a":-inf})",
           R"({"a":.5})", R"({"a":+1})", R"({"a":inf})",
           R"({"a": 1})", R"({ "a":1})", R"({"a":1} )",  // not compact
           R"({"a":1}{"b":2})", R"({"a":1,})", R"({"a"})", R"({a:1})",
       }) {
    EXPECT_FALSE(parse_record(bad).has_value()) << bad;
  }
}

TEST(Record, FuzzEveryTruncationAndByteFlipIsHandledCleanly) {
  for (const std::string& line : one_record_of_each_kind()) {
    ASSERT_TRUE(parse_record(line).has_value()) << line;
    // Every proper prefix is a record torn by a kill: always rejected.
    for (usize len = 0; len < line.size(); ++len)
      EXPECT_FALSE(parse_record(line.substr(0, len)).has_value())
          << "accepted truncation at " << len << " of " << line;
    // Every single-byte change: parsed or rejected, never a crash or an
    // out-of-bounds read (the sanitizer build runs this loop), and any
    // record it accepts re-encodes to a line that reads back the same.
    for (usize i = 0; i < line.size(); ++i) {
      for (int mask = 1; mask < 256; ++mask) {
        std::string flipped = line;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        const std::optional<Record> rec = parse_record(flipped);
        if (!rec) continue;
        const std::string again = rec->str();
        const std::optional<Record> back = parse_record(again);
        ASSERT_TRUE(back.has_value()) << again;
        EXPECT_EQ(back->str(), again);
      }
    }
  }
}

}  // namespace
}  // namespace felis::io
