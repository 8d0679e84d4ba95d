#pragma once

// Declarative scenario configuration: a tiny INI-style format (no external
// dependencies) that scenario_runner and tests load scenarios from.
//
//   # comment (';' works too)
//   [scenario]
//   seed = 1
//   duration = 2s          # durations take ns/us/ms/s suffixes
//
//   [workload]             # sections may repeat: one per workload / fault
//   proto = rmp
//   rate = 200
//
//   [fault]
//   at = 500ms
//   kind = link_drop
//   target = node3.link
//
// Keys and section names are case-sensitive; values keep inner whitespace
// but are trimmed at the ends. Parse errors, including a key before the
// first [section], throw std::runtime_error with a line number.
//
// A consumer declares each section's vocabulary once, as a list of Field
// bindings (key -> member) handed to read_fields(): the member's type picks
// the conversion and range, and a key outside the list is an error.

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace nectar::scenario {

/// One enum value's config name. Each enum a key selects has one array of
/// these, read both to parse and to print, so every name is spelled once.
template <class E>
struct EnumName {
  const char* name;
  E value;
};

/// The value `text` names in `names`. Otherwise throws
/// std::invalid_argument prefixed with `what` and listing the names.
template <class E, std::size_t N>
E parse_enum(const EnumName<E> (&names)[N], std::string_view text, const std::string& what) {
  std::string want;
  for (const EnumName<E>& n : names) {
    if (text == n.name) return n.value;
    want += (want.empty() ? "" : " | ") + std::string(n.name);
  }
  throw std::invalid_argument(what + ": unknown '" + std::string(text) + "' (want " + want + ")");
}

/// `value`'s name in `names`, for reports and logs.
template <class E, std::size_t N>
const char* enum_name(const EnumName<E> (&names)[N], E value) {
  for (const EnumName<E>& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

/// One `[name]` block: an ordered bag of key=value pairs.
struct Section {
  std::string name;
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) != 0; }
  /// Typed getters: `fallback` when the key is absent. A malformed value,
  /// or an integer that does not fit T, throws std::runtime_error naming
  /// this section and the key.
  std::string get(const std::string& key, const std::string& fallback = "") const;
  template <std::integral T>
  T get_int(const std::string& key, T fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Duration with unit suffix: "250ns", "10us", "5ms", "2s" (bare numbers
  /// are nanoseconds).
  sim::SimTime get_time(const std::string& key, sim::SimTime fallback) const;
  /// The getter for T: string, bool, double or any integer.
  template <class T>
  T get_as(const std::string& key, const T& fallback) const {
    if constexpr (std::is_same_v<T, bool>)
      return get_bool(key, fallback);
    else if constexpr (std::is_same_v<T, double>)
      return get_double(key, fallback);
    else if constexpr (std::is_integral_v<T>)
      return get_int(key, fallback);
    else
      return get(key, fallback);
  }

  [[noreturn]] void bad_value(const std::string& key, const std::string& want) const;
};

template <std::integral T>
T Section::get_int(const std::string& key, T fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  const char* end = it->second.data() + it->second.size();
  auto [stop, ec] = std::from_chars(it->second.data(), end, fallback);
  if (ec != std::errc{} || stop != end) {
    bad_value(key, "an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
                       std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return fallback;
}

/// One key of a section and how it sets a member of `S`. Applied only when
/// the key is present.
template <class S>
struct Field {
  const char* key;
  std::function<void(const Section&, S&)> apply;

  template <class T>
  Field(const char* k, T S::*m)
      : key(k), apply([k, m](const Section& s, S& out) { out.*m = s.get_as(k, out.*m); }) {}
  /// Convert with `get` instead of T's getter: &Section::get_time for a
  /// sim::SimTime, which the type alone cannot tell from an integer.
  template <class T>
  Field(const char* k, T S::*m, T (Section::*get)(const std::string&, T) const)
      : key(k), apply([k, m, get](const Section& s, S& out) { out.*m = (s.*get)(k, out.*m); }) {}
  /// Unknown names throw std::invalid_argument.
  template <class E, std::size_t N>
  Field(const char* k, E S::*m, const EnumName<E> (&names)[N])
      : key(k), apply([k, m, &names](const Section& s, S& out) {
          out.*m = parse_enum(names, s.values.at(k), "config: [" + s.name + "] " + k);
        }) {}
  /// A key with its own logic: `set` receives the value converted to T.
  template <class T>
  Field(const char* k, void (*set)(S&, T))
      : key(k), apply([k, set](const Section& s, S& out) { set(out, s.get_as(k, T{})); }) {}
};

/// Reject any key of `s` that `fields` does not name (std::runtime_error,
/// "unknown key"), then apply the present keys in table order.
template <class S>
void read_fields(const Section& s, S& out, std::initializer_list<Field<S>> fields) {
  for (const auto& [key, value] : s.values) {
    bool known = false;
    for (const Field<S>& f : fields) known = known || key == f.key;
    if (!known) {
      throw std::runtime_error("config: unknown key '" + key + "' in section [" + s.name + "]");
    }
  }
  for (const Field<S>& f : fields) {
    if (s.has(f.key)) f.apply(s, out);
  }
}

/// Parse a duration literal ("500ms"); throws on malformed input.
sim::SimTime parse_time(std::string_view text);

class Config {
 public:
  static Config parse_string(std::string_view text);
  /// Throws std::runtime_error when the file cannot be read.
  static Config parse_file(const std::string& path);

  /// In file order; repeated names stay separate sections.
  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
};

}  // namespace nectar::scenario
