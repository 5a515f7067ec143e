/// \file record.hpp
/// \brief The one codec for felis' NDJSON journals: one flat JSON object per
/// line, written and read by the same code.
///
/// manifest.ndjson, every case's run.ndjson and sched.ndjson carry records of
/// one shape, `{"key":value,...}`, where a value is a string, an integer, a
/// double, or a map whose values are strings, doubles or the five-number
/// histogram object `{"last":..,"count":..,"sum":..,"min":..,"max":..}`.
/// Nothing nests deeper, and no array, `true`, `false` or `null` appears.
///
/// The encoding is exactly invertible:
///  * strings: `\"`, `\\`, `\n`, `\t`, `\r`, `\u00xx` (lower-case hex) for
///    every other byte below 0x20, and every byte from 0x20 up raw. The
///    reader accepts exactly these escapes, so any byte string round-trips;
///  * doubles: the shortest text that reads back to the same double
///    (std::to_chars). JSON has no Inf/NaN, so non-finite values are written
///    as 0;
///  * compact layout (no whitespace), keys in the order they were added.
///
/// parse_record() takes one whole line and returns the record or nothing: a
/// line torn by a kill mid-append (any proper prefix of a record), an
/// unknown escape or a value outside the types above is rejected, never
/// half-read.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace felis::io {

/// A histogram metric's five numbers, in their on-disk key order.
struct Histogram {
  double last = 0, count = 0, sum = 0, min = 0, max = 0;
};

using MapValue = std::variant<std::string, double, Histogram>;
/// A record's nested object, in key order. Build one from a std::map with
/// `Map(m.begin(), m.end())`.
using Map = std::vector<std::pair<std::string, MapValue>>;
using Value = std::variant<std::string, std::int64_t, double, Map>;

/// The number entry `key` of `m`; empty when absent or not a number.
std::optional<double> map_number(const Map& m, std::string_view key);
/// Copy every number entry of `m` whose key starts with `prefix` into `out`
/// (string and histogram entries are skipped).
void fold_numbers(const Map& m, std::string_view prefix,
                  std::map<std::string, double>* out);

/// One journal record: built with add() and str() on the write side,
/// returned by parse_record() and queried by key on the read side.
class Record {
 public:
  /// An `int` or `std::int64_t` is stored as an integer, a `double` as a
  /// double, a `const char*` or `std::string` as a string.
  Record& add(std::string key, Value value) {
    fields_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// The encoded line, without a trailing newline.
  std::string str() const;

  /// The first field named `key` when it holds a T (std::string,
  /// std::int64_t, double or Map); null when absent or of another type.
  template <class T>
  const T* get(std::string_view key) const {
    for (const auto& [k, v] : fields_)
      if (k == key) return std::get_if<T>(&v);
    return nullptr;
  }
  /// Typed lookups over get(); empty when the key is absent or holds
  /// another type. number() accepts integers too.
  std::optional<std::string_view> string(std::string_view key) const;
  std::optional<std::int64_t> integer(std::string_view key) const;
  std::optional<double> number(std::string_view key) const;
  const Map* map(std::string_view key) const { return get<Map>(key); }

 private:
  std::vector<std::pair<std::string, Value>> fields_;
};

/// JSON-escape `s` for embedding inside a double-quoted string (the escapes
/// listed above). Also used by the JSON documents that keep their own
/// layout (Chrome traces, status.json, BENCH_campaign.json).
std::string escape(std::string_view s);

/// The shortest round-trip spelling of `v`; "0" for Inf/NaN.
std::string format_number(double v);

/// Decode one whole line; empty when the line is not exactly one record.
std::optional<Record> parse_record(std::string_view line);

}  // namespace felis::io
