#include "io/record.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/types.hpp"

namespace felis::io {

namespace {

constexpr std::string_view kHex = "0123456789abcdef";
// The short escapes: kShortBytes[k] is written as '\\' + kShortLetters[k].
constexpr std::string_view kShortBytes = "\"\\\n\t\r";
constexpr std::string_view kShortLetters = "\"\\ntr";
constexpr const char* kHistogramKeys[] = {"last", "count", "sum", "min", "max"};

/// Appends any value of a Record or a Map to `out`.
struct Writer {
  std::string& out;

  void operator()(const std::string& s) const {
    out += '"';
    out += escape(s);
    out += '"';
  }
  void operator()(std::int64_t i) const { out += std::to_string(i); }
  void operator()(double d) const { out += format_number(d); }
  void operator()(const Histogram& h) const {
    const double values[] = {h.last, h.count, h.sum, h.min, h.max};
    Map m;
    for (usize k = 0; k < 5; ++k) m.emplace_back(kHistogramKeys[k], values[k]);
    (*this)(m);
  }
  template <class V>
  void operator()(const std::vector<std::pair<std::string, V>>& fields) const {
    out += '{';
    for (usize k = 0; k < fields.size(); ++k) {
      if (k > 0) out += ',';
      (*this)(fields[k].first);
      out += ':';
      std::visit(*this, fields[k].second);
    }
    out += '}';
  }
};

/// Recursive-descent reader over one line. Every method returns false at
/// the first byte the writer could not have produced; the caller then
/// rejects the whole line.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool at_end() const { return pos_ == s_.size(); }
  char peek() const { return at_end() ? '\0' : s_[pos_]; }
  bool eat(char c) {
    if (at_end() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// `{}` or `{"key":value,...}`, with `value(key)` reading each value.
  template <class F>
  bool object(F&& value) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    std::string key;
    do {
      if (!string(&key) || !eat(':') || !value(key)) return false;
    } while (eat(','));
    return eat('}');
  }

  /// A quoted string with exactly the escapes escape() writes.
  bool string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (!at_end()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // never raw
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      const char e = at_end() ? '\0' : s_[pos_++];
      if (const usize k = kShortLetters.find(e); k != std::string_view::npos) {
        out->push_back(kShortBytes[k]);
      } else if (e == 'u' && s_.size() - pos_ >= 4 &&
                 s_.substr(pos_, 2) == "00" && kHex.find(s_[pos_ + 2]) < 2 &&
                 kHex.find(s_[pos_ + 3]) < 16) {
        // \u00xx: a control byte without a short escape.
        const auto b = static_cast<char>(kHex.find(s_[pos_ + 2]) * 16 +
                                         kHex.find(s_[pos_ + 3]));
        if (kShortBytes.find(b) != std::string_view::npos) return false;
        out->push_back(b);
        pos_ += 4;
      } else {
        return false;  // unknown escape
      }
    }
    return false;  // torn before the closing quote
  }

  /// A finite JSON number. `integer` (when given) is set for a plain
  /// integer that fits std::int64_t; "-0" stays a double to keep its sign.
  bool number(double* d, std::optional<std::int64_t>* integer = nullptr) {
    const char c = peek();
    if (c != '-' && (c < '0' || c > '9')) return false;
    const char* first = s_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, s_.data() + s_.size(), *d);
    if (ec != std::errc() || !std::isfinite(*d)) return false;
    if (integer != nullptr) {
      std::int64_t i = 0;
      const auto [iend, iec] = std::from_chars(first, end, i);
      if (iec == std::errc() && iend == end && !(i == 0 && std::signbit(*d)))
        *integer = i;
    }
    pos_ += static_cast<usize>(end - first);
    return true;
  }

  bool histogram(Histogram* h) {
    double* slots[] = {&h->last, &h->count, &h->sum, &h->min, &h->max};
    usize k = 0;
    return object([&](const std::string& key) {
             return k < 5 && key == kHistogramKeys[k] && number(slots[k++]);
           }) &&
           k == 5;
  }

  /// One map entry's value: a string, a histogram or a double.
  bool map_value(MapValue* v) {
    if (peek() == '"') return string(&v->emplace<std::string>());
    if (peek() == '{') return histogram(&v->emplace<Histogram>());
    return number(&v->emplace<double>());
  }

  /// One record field's value: a string, a map or a number.
  bool value(Value* v) {
    if (peek() == '"') return string(&v->emplace<std::string>());
    if (peek() == '{') {
      Map& m = v->emplace<Map>();
      return object([&](const std::string& key) {
        m.emplace_back(key, MapValue());
        return map_value(&m.back().second);
      });
    }
    double d = 0;
    std::optional<std::int64_t> i;
    if (!number(&d, &i)) return false;
    *v = i ? Value(*i) : Value(d);
    return true;
  }

 private:
  std::string_view s_;
  usize pos_ = 0;
};

}  // namespace

std::optional<double> map_number(const Map& m, std::string_view key) {
  for (const auto& [k, v] : m)
    if (k == key) {
      const double* d = std::get_if<double>(&v);
      return d ? std::optional<double>(*d) : std::nullopt;
    }
  return std::nullopt;
}

void fold_numbers(const Map& m, std::string_view prefix,
                  std::map<std::string, double>* out) {
  for (const auto& [key, value] : m) {
    const double* v = std::get_if<double>(&value);
    if (v != nullptr && key.starts_with(prefix)) (*out)[key] = *v;
  }
}

std::string Record::str() const {
  std::string out;
  Writer{out}(fields_);
  return out;
}

std::optional<std::string_view> Record::string(std::string_view key) const {
  const std::string* s = get<std::string>(key);
  return s ? std::optional<std::string_view>(*s) : std::nullopt;
}

std::optional<std::int64_t> Record::integer(std::string_view key) const {
  const std::int64_t* i = get<std::int64_t>(key);
  return i ? std::optional<std::int64_t>(*i) : std::nullopt;
}

std::optional<double> Record::number(std::string_view key) const {
  if (const std::int64_t* i = get<std::int64_t>(key))
    return static_cast<double>(*i);
  const double* d = get<double>(key);
  return d ? std::optional<double>(*d) : std::nullopt;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (const usize k = kShortBytes.find(c); k != std::string_view::npos) {
      out += '\\';
      out += kShortLetters[k];
    } else if (b < 0x20) {
      out += "\\u00";
      out += kHex[b >> 4];
      out += kHex[b & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];  // the longest shortest form is 24 chars
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::optional<Record> parse_record(std::string_view line) {
  Reader in(line);
  Record rec;
  const bool ok = in.object([&](const std::string& key) {
    Value v;
    if (!in.value(&v)) return false;
    rec.add(key, std::move(v));
    return true;
  });
  if (!ok || !in.at_end()) return std::nullopt;
  return rec;
}

}  // namespace felis::io
