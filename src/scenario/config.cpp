#include "scenario/config.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nectar::scenario {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void Section::bad_value(const std::string& key, const std::string& want) const {
  throw std::runtime_error("config: [" + name + "] " + key + ": expected " + want + ", got '" +
                           values.at(key) + "'");
}

std::string Section::get(const std::string& key, const std::string& fallback) const {
  auto it = values.find(key);
  return it == values.end() ? fallback : it->second;
}

double Section::get_double(const std::string& key, double fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') bad_value(key, "a number");
  return v;
}

bool Section::get_bool(const std::string& key, bool fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  bad_value(key, "a boolean");
}

sim::SimTime Section::get_time(const std::string& key, sim::SimTime fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  try {
    return parse_time(it->second);
  } catch (const std::exception&) {
    bad_value(key, "a duration (e.g. 250us, 5ms, 2s)");
  }
}

sim::SimTime parse_time(std::string_view text) {
  text = trim(text);
  std::string num(text);
  char* end = nullptr;
  double v = std::strtod(num.c_str(), &end);
  if (end == num.c_str()) throw std::runtime_error("bad duration: " + num);
  std::string_view unit = trim(num.c_str() + (end - num.c_str()));
  double scale;
  if (unit.empty() || unit == "ns") {
    scale = 1;
  } else if (unit == "us") {
    scale = sim::kMicrosecond;
  } else if (unit == "ms") {
    scale = sim::kMillisecond;
  } else if (unit == "s") {
    scale = sim::kSecond;
  } else {
    throw std::runtime_error("bad duration unit: " + std::string(unit));
  }
  return static_cast<sim::SimTime>(v * scale);
}

Config Config::parse_string(std::string_view text) {
  Config cfg;
  int line_no = 0;
  auto fail = [&line_no](const std::string& why) {
    throw std::runtime_error("config line " + std::to_string(line_no) + ": " + why);
  };
  std::istringstream in{std::string(text)};
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      std::string_view name = line.back() == ']' ? trim(line.substr(1, line.size() - 2)) : "";
      if (name.empty()) fail("malformed section header: " + std::string(line));
      cfg.sections_.push_back(Section{std::string(name), {}});
      continue;
    }
    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) fail("expected key = value, got: " + std::string(line));
    std::string key(trim(line.substr(0, eq)));
    if (key.empty()) fail("empty key");
    if (cfg.sections_.empty()) fail("key '" + key + "' comes before the first [section]");
    Section& current = cfg.sections_.back();
    if (!current.values.emplace(key, std::string(trim(line.substr(eq + 1)))).second) {
      fail("duplicate key '" + key + "' in section [" + current.name + "]");
    }
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("config: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_string(buf.str());
}

}  // namespace nectar::scenario
