// perfbench: the repository's benchmark. One workload per invocation, run
// through the public scenario API (ScenarioSpec::from_config, the Scenario
// constructor, run(), report() and the destructor), on both clocks:
//
//   --trace 0  plain runs, repeated until --seconds have passed, cycling
//              through kSubSeeds seeds derived from --seed; the first seed
//              always runs twice. Prints the end-to-end metrics: host set-up
//              and run time (medians over the repetitions), peak memory, and
//              the simulated latency, goodput and fairness (means over the
//              sub-seeds, which divides their seed-to-seed variance by
//              kSubSeeds).
//   --trace 1  plain and traced runs in alternation, plus timed unit-cost
//              probes into single modules. The traced run switches on the
//              metrics snapshot (attach_metrics), the cycle profiler and the
//              telemetry conservation auditor; none of them changes the event
//              stream. Prints the per-layer metrics.
//
// Every run checks its outputs: the simulated results of one seed must be
// identical across repetitions and between plain and traced runs, the
// integrity counters must stay 0, and every latency figure must rest on
// enough samples. A breach prints the reason, reports correct=false and
// exits 1. The last line of standard output is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --config-dir <dir of <name>.ini> --out-dir <dir for artifacts>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace perfbench {
namespace {

using namespace nectar;
using Clock = std::chrono::steady_clock;
using json = obs::json::Value;

/// Plain runs pool the simulated figures of this many seeds: the --seed
/// itself and --seed + k * kSubSeedStride.
constexpr int kSubSeeds = 3;
constexpr std::uint64_t kSubSeedStride = 500'009;
/// Every sub-seed runs, and the first one twice, so repetitions of one seed
/// are always compared.
constexpr std::size_t kMinPlainReps = kSubSeeds + 1;
/// The held-out seed run beside every traced run: a seed no workload was
/// tuned on, so a claim made on the main seed can be checked against it.
constexpr std::uint64_t kHeldOutOffset = 1'000'003;
/// Percentile p999 needs at least this many samples to have ten beyond it.
constexpr double kMinLatencySamples = 10'000;

// Table 1's only hard anchors (paper §6.1), datagram round trip at 64 B.
constexpr double kPaperHostHostUs = 325.0;
constexpr double kPaperCabCabUs = 179.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string config_dir;
  std::string out_dir;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// User + system CPU seconds of the whole process.
double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

[[noreturn]] void breach(const std::string& why) { throw std::runtime_error(why); }

// --- one repetition ----------------------------------------------------------

/// One scenario from config parse to destructor, with each phase timed on
/// the host clock and the simulated results kept for checking.
struct Rep {
  bool traced = false;
  double parse_s = 0, build_s = 0, run_s = 0, report_s = 0, teardown_s = 0;
  double run_cpu_s = 0;  ///< process CPU time during run(), beside the wall time
  double setup_s() const { return parse_s + build_s; }

  std::string results;                    ///< the report's results, serialized
  std::map<std::string, double> rows;     ///< the same rows by name
  std::uint64_t events = 0;
  std::vector<obs::SnapshotEntry> metrics;  ///< registry counters (traced)
  std::string folded;                       ///< profiler folded stacks (traced)
  std::size_t nodes = 0;
  double duration_s = 0;
  std::int64_t session_size = 0;
  bool corruption_faults = false;
};

/// Sum and maximum of the registry entries of `component` whose name ends in
/// `suffix` (entries are per node or per HUB port).
double sum_metric(const Rep& r, const std::string& component, const std::string& suffix) {
  double s = 0;
  for (const auto& e : r.metrics) {
    if (e.key.component == component && e.key.name.ends_with(suffix)) {
      s += static_cast<double>(e.value);
    }
  }
  return s;
}

double max_metric(const Rep& r, const std::string& component, const std::string& suffix) {
  double m = 0;
  for (const auto& e : r.metrics) {
    if (e.key.component == component && e.key.name.ends_with(suffix)) {
      m = std::max(m, static_cast<double>(e.value));
    }
  }
  return m;
}

std::vector<obs::SnapshotEntry> parse_metrics(const json& doc) {
  std::vector<obs::SnapshotEntry> out;
  const json* section = doc.find("metrics");
  const json* list = section != nullptr ? section->find("metrics") : nullptr;
  if (list == nullptr) return out;
  for (const json& m : list->items()) {
    const json* value = m.find("value");
    if (value == nullptr) continue;  // histograms: not needed here
    obs::SnapshotEntry e;
    e.key.node = static_cast<int>(m.find("node")->as_int());
    e.key.component = m.find("component")->as_string();
    e.key.name = m.find("name")->as_string();
    e.value = value->as_int();
    out.push_back(std::move(e));
  }
  return out;
}

Rep run_rep(const std::string& ini, std::uint64_t seed, bool traced, const std::string& folded_path) {
  Rep r;
  r.traced = traced;
  auto t0 = Clock::now();
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(scenario::Config::parse_string(ini));
  spec.seed = seed;
  if (traced) {
    spec.attach_metrics = true;
    spec.profile.folded = folded_path;
    spec.telemetry.enabled = true;
    spec.telemetry.audit = true;
  }
  r.duration_s = sim::to_msec(spec.duration) / 1e3;
  r.session_size = spec.sessions.enabled ? spec.sessions.size : 0;
  for (const auto& f : spec.faults) {
    if (f.kind == scenario::FaultKind::LinkCorrupt) r.corruption_faults = true;
  }
  r.parse_s = seconds_since(t0);

  auto t1 = Clock::now();
  auto sc = std::make_unique<scenario::Scenario>(std::move(spec));
  r.build_s = seconds_since(t1);

  auto t2 = Clock::now();
  const double cpu0 = cpu_seconds();
  sc->run();  // throws when the traced run's conservation auditor fails
  r.run_s = seconds_since(t2);
  r.run_cpu_s = cpu_seconds() - cpu0;

  auto t3 = Clock::now();
  obs::RunReport report = sc->report();
  r.report_s = seconds_since(t3);

  r.events = sc->net().engine().events_processed();
  r.nodes = static_cast<std::size_t>(sc->nodes());
  json doc = json::parse(report.to_json_string());
  const json* results = doc.find("results");
  if (results == nullptr) breach("scenario report has no results");
  r.results = results->dump();
  for (const json& row : results->items()) {
    r.rows[row.find("name")->as_string()] = row.find("value")->as_double();
  }
  if (traced) {
    r.metrics = parse_metrics(doc);
    r.folded = sc->net().profiler().folded();
  }
  // tcp.bad_checksums is a registry probe of every TCP stack; plain runs
  // read it straight from the registry (after timing, so it costs nothing).
  double bad_cksum = 0;
  const obs::Snapshot snap = sc->net().metrics().snapshot();
  for (const auto& e : snap.entries()) {
    if (e.key.component == "tcp" && e.key.name == "bad_checksums") {
      bad_cksum += static_cast<double>(e.value);
    }
  }
  r.rows["perfbench.tcp_bad_checksums"] = bad_cksum;

  auto t4 = Clock::now();
  sc.reset();
  r.teardown_s = seconds_since(t4);
  return r;
}

double row(const Rep& r, const std::string& name) {
  auto it = r.rows.find(name);
  return it == r.rows.end() ? 0.0 : it->second;
}

bool has_row(const Rep& r, const std::string& name) { return r.rows.count(name) != 0; }

/// Traffic class prefixes ("tcp-closed.", ...) of the scenario's workloads.
std::vector<std::string> workload_prefixes(const Rep& r) {
  std::vector<std::string> out;
  const std::string tag = ".latency.count";
  for (const auto& [name, v] : r.rows) {
    if (name.rfind("global.", 0) == 0 || name.rfind("session.", 0) == 0 ||
        name.rfind("coll.", 0) == 0) {
      continue;
    }
    if (name.size() > tag.size() && name.ends_with(tag)) {
      out.push_back(name.substr(0, name.size() - tag.size() + 1));
    }
  }
  return out;
}

// --- simulated end-to-end figures --------------------------------------------

struct SimFigures {
  double p50_us = 0, p99_us = 0, p999_us = 0, samples = 0;
  double goodput_mbps = 0;
  double fairness_min = 1;
  double attempted = 0, failures = 0;
  double fail_ratio() const { return ratio(failures, attempted); }
};

SimFigures sim_figures(const Rep& r) {
  SimFigures f;
  // Latency of every application message, merged over flows: the
  // workloads' merged histogram, or the session layer's data frames when the
  // scenario runs sessions only.
  if (row(r, "global.latency.count") > 0) {
    f.samples = row(r, "global.latency.count");
    f.p50_us = row(r, "global.p50");
    f.p99_us = row(r, "global.p99");
    f.p999_us = row(r, "global.p999");
  } else {
    f.samples = row(r, "session.data.count");
    f.p50_us = row(r, "session.data.p50");
    f.p99_us = row(r, "session.data.p99");
    f.p999_us = row(r, "session.data.p999");
  }
  for (const std::string& p : workload_prefixes(r)) {
    double sent = row(r, p + "sent"), delivered = row(r, p + "delivered");
    double shed = row(r, p + "shed"), errors = row(r, p + "errors");
    f.goodput_mbps += row(r, p + "goodput");
    f.fairness_min = std::min(f.fairness_min, row(r, p + "fairness"));
    f.attempted += sent + shed;
    f.failures += shed + errors + std::max(0.0, sent - delivered - errors);
  }
  if (has_row(r, "session.data.sent")) {
    double sent = row(r, "session.data.sent"), delivered = row(r, "session.data.delivered");
    double shed = row(r, "session.data.shed");
    f.goodput_mbps += delivered * static_cast<double>(r.session_size) * 8.0 / r.duration_s / 1e6;
    f.fairness_min = std::min(f.fairness_min, row(r, "session.fairness"));
    f.attempted += sent + shed + row(r, "session.opens_initiated");
    f.failures += shed + row(r, "session.refused") + std::max(0.0, sent - delivered);
  }
  if (has_row(r, "coll.ops_completed")) {
    f.attempted += row(r, "coll.ops_completed") + row(r, "coll.ops_failed");
    f.failures += row(r, "coll.ops_failed");
  }
  return f;
}

/// The plain run's simulated figures: the mean over its sub-seeds, with the
/// latency samples and message counts summed.
SimFigures mean_figures(const std::vector<SimFigures>& per_seed) {
  SimFigures m;
  m.fairness_min = 0;
  for (const SimFigures& f : per_seed) {
    m.p50_us += f.p50_us;
    m.p99_us += f.p99_us;
    m.p999_us += f.p999_us;
    m.goodput_mbps += f.goodput_mbps;
    m.fairness_min += f.fairness_min;
    m.samples += f.samples;
    m.attempted += f.attempted;
    m.failures += f.failures;
  }
  const double n = static_cast<double>(per_seed.size());
  m.p50_us /= n;
  m.p99_us /= n;
  m.p999_us /= n;
  m.goodput_mbps /= n;
  m.fairness_min /= n;
  return m;
}

/// Output checks that hold for every run of every workload.
void check_outputs(const Rep& r, const std::string& label) {
  if (row(r, "coll.data_errors") != 0) breach(label + ": coll.data_errors != 0");
  if (row(r, "session.proto_errors") != 0) breach(label + ": session.proto_errors != 0");
  if (!r.corruption_faults && row(r, "perfbench.tcp_bad_checksums") != 0) {
    breach(label + ": tcp.bad_checksums != 0 with no corruption fault injected");
  }
  if (r.traced && row(r, "audit.violations") != 0) breach(label + ": conservation audit failed");
  SimFigures f = sim_figures(r);
  if (f.samples < kMinLatencySamples) {
    breach(label + ": only " + std::to_string(static_cast<long long>(f.samples)) +
           " latency samples; p999 needs ten beyond it");
  }
  if (!(f.goodput_mbps > 0)) breach(label + ": nothing delivered");
  if (!(f.fairness_min > 0 && f.fairness_min <= 1.0 + 1e-9)) breach(label + ": fairness out of range");
  if (!(f.p50_us > 0 && f.p50_us <= f.p99_us && f.p99_us <= f.p999_us)) {
    breach(label + ": latency percentiles out of order");
  }
  for (const std::string& p : workload_prefixes(r)) {
    if (row(r, p + "delivered") > row(r, p + "sent")) breach(label + ": " + p + " delivered > sent");
  }
}

/// Simulated results must not depend on repetition or on tracing: every row
/// of the plain report appears unchanged in `other`, and the event count
/// matches.
void check_same_simulation(const Rep& plain, const Rep& other) {
  std::string what = other.traced ? "traced run" : "repetition";
  if (plain.events != other.events) {
    breach(what + " processed " + std::to_string(other.events) + " events, plain run " +
           std::to_string(plain.events));
  }
  if (!other.traced) {
    if (plain.results != other.results) breach(what + " changed the simulated results");
    return;
  }
  for (const auto& [name, v] : plain.rows) {
    auto it = other.rows.find(name);
    if (it == other.rows.end() || it->second != v) {
      breach(what + " changed simulated result " + name);
    }
  }
}

// --- metric catalogue ---------------------------------------------------------

/// One reported metric and the prediction it carries: which end-to-end
/// metric it should move, and on which workload to read it.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;     ///< end-to-end target(s); "" for end-to-end metrics
  const char* workload;  ///< where to read it
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "", "all"},
    {"run_s", "s", "", "all"},
    {"peak_rss_mb", "MB", "", "all"},
    {"p50_us", "us", "", "all"},
    {"p99_us", "us", "", "all"},
    {"p999_us", "us", "", "all"},
    {"goodput_mbps", "Mbit/s", "", "all"},
    {"fairness_min", "ratio", "", "all"},
};

constexpr MetricDef kPerLayer[] = {
    {"fail_ratio", "ratio", "fail_ratio", "all"},
    {"sim.events", "count", "run_s", "fabric512"},
    {"sim.host_ns_per_event", "ns", "run_s", "fabric512"},
    {"sim.engine_ns_per_event", "ns", "run_s", "fabric512"},
    {"sim.fiber_ns_per_switch", "ns", "run_s", "chanstorm"},
    {"sim.pool_reuse_ratio", "ratio", "run_s", "all"},
    {"sim.heap_actions", "count", "run_s", "all"},
    {"hw.frames", "count", "run_s", "soak64"},
    {"hw.frame_bytes", "bytes", "run_s", "soak64"},
    {"hw.crc_ns_per_frame", "ns", "run_s (predicted ~0 effect on fabric512)", "soak64"},
    {"hw.link_drops", "count", "fail_ratio, p999_us", "soak64"},
    {"hw.hub_blocked_ns", "sim-ns", "p99_us", "soak64, fabric512"},
    {"hw.hub_queue_highwater", "frames", "p99_us", "soak64, fabric512"},
    {"hw.mcast_out_per_in", "ratio", "coll.op_p99_us", "fabric512"},
    {"hw.framepool_reuse_ratio", "ratio", "peak_rss_mb, run_s", "all"},
    {"core.cpu_busy_share", "ratio", "p99_us", "all"},
    {"core.context_switches", "count", "run_s", "chanstorm"},
    {"core.interrupts", "count", "run_s", "chanstorm"},
    {"core.mailbox_cache_hit_ratio", "hits/put", "p50_us", "all"},
    {"core.heap_ns_per_alloc", "ns", "run_s", "all"},
    {"core.irq_ns", "sim-ns", "p50_us", "all"},
    {"core.mailbox_ns", "sim-ns", "p50_us", "all"},
    {"core.sync_ns", "sim-ns", "p50_us", "all"},
    {"core.switch_ns", "sim-ns", "p50_us", "all"},
    {"proto.dl_ns", "sim-ns", "p50_us", "soak64"},
    {"proto.ip_ns", "sim-ns", "p50_us", "soak64"},
    {"proto.tcp_ns", "sim-ns", "p50_us", "soak64"},
    {"proto.tcp_checksum_ns", "sim-ns", "p50_us", "soak64"},
    {"proto.cksum_ns_per_segment", "ns", "run_s (predicted no effect on chanstorm, fabric512)",
     "soak64"},
    {"proto.tcp_segments", "count", "p999_us", "soak64"},
    {"proto.tcp_retransmits", "count", "p999_us", "soak64"},
    {"proto.dl_drops", "count", "fail_ratio", "all"},
    {"proto.hdrpool_reuse_ratio", "ratio", "run_s", "all"},
    {"nproto.rmp_ns", "sim-ns", "p50_us", "soak64, fabric512"},
    {"nproto.datagram_ns", "sim-ns", "p50_us", "fabric512"},
    {"nproto.rmp_retransmits", "count", "fairness_min, fail_ratio (fabric512); p999_us (soak64)",
     "fabric512, soak64"},
    {"nproto.rmp_duplicates", "count", "fairness_min, fail_ratio (fabric512); p999_us (soak64)",
     "fabric512, soak64"},
    {"session.frames_per_msg", "ratio", "goodput_mbps, p99_us", "chanstorm"},
    {"session.credit_stalls", "count", "fail_ratio, p99_us", "chanstorm"},
    {"session.open_p99_us", "us", "fail_ratio, p99_us", "chanstorm"},
    {"session.refused", "count", "fail_ratio, p99_us", "chanstorm"},
    {"session.ns", "sim-ns", "fail_ratio, p99_us", "chanstorm"},
    {"session.wire_ns_per_frame", "ns", "run_s", "chanstorm"},
    {"coll.op_p99_us", "us", "run_s, p99_us", "fabric512"},
    {"coll.ops", "count", "run_s, p99_us", "fabric512"},
    {"coll.retransmits", "count", "run_s, p99_us", "fabric512"},
    {"coll.ns", "sim-ns", "run_s, p99_us", "fabric512"},
    {"scenario.parse_s", "s", "setup_s (predicted ~0 on chanstorm)", "fabric512"},
    {"net.build_s", "s", "setup_s (predicted ~0 on chanstorm)", "fabric512"},
    {"scenario.report_s", "s", "setup_s (predicted ~0 on chanstorm)", "fabric512"},
    {"net.teardown_s", "s", "setup_s (predicted ~0 on chanstorm)", "fabric512"},
    {"sim.engine_host_share", "ratio", "run_s", "fabric512"},
    {"sim.fiber_host_share", "ratio", "run_s", "chanstorm"},
    {"hw.crc_host_share", "ratio", "run_s", "soak64"},
    {"proto.cksum_host_share", "ratio", "run_s", "soak64"},
    {"host.unattributed_share", "ratio", "run_s", "all"},
    {"obs.trace_overhead_s", "s", "none (cost of the traced run)", "all"},
};

/// The metrics a run prints: per-layer with --trace 1, end-to-end otherwise.
std::span<const MetricDef> catalogue(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

// --- per-layer figures ----------------------------------------------------------

/// Simulated CPU ns per layer, from the profiler's folded stacks
/// ("<cpu>;<context>;<domain>;...;<domain> <ns>"). Each stack's ns is the
/// self time of its innermost domain; the "switch" context is the
/// dispatcher's context-switch charge. Session threads are named "session-*"
/// and "sess-*".
std::map<std::string, double> layer_sim_ns(const std::string& folded) {
  std::map<std::string, double> ns;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    double v = std::strtod(line.c_str() + sp + 1, nullptr);
    std::vector<std::string> keys;
    std::string key = line.substr(0, sp);
    for (std::size_t pos = 0;;) {
      std::size_t semi = key.find(';', pos);
      keys.push_back(key.substr(pos, semi - pos));
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
    if (keys.size() >= 2 && keys[1] == "switch") {
      ns["core.switch_ns"] += v;
      continue;
    }
    if (keys.size() < 3) {
      // Charged outside any cost domain. The session layer has no domain of
      // its own; its threads' undomained charges are its self time.
      if (keys.size() == 2 && keys[1].rfind("sess", 0) == 0) ns["session.ns"] += v;
      continue;
    }
    const std::string& leaf = keys.back();
    const std::string layer = leaf.substr(0, leaf.find('/'));
    if (leaf == "tcp/checksum") ns["proto.tcp_checksum_ns"] += v;
    else if (layer == "tcp") ns["proto.tcp_ns"] += v;
    else if (layer == "ip") ns["proto.ip_ns"] += v;
    else if (layer == "dl") ns["proto.dl_ns"] += v;
    else if (layer == "rmp") ns["nproto.rmp_ns"] += v;
    else if (layer == "datagram") ns["nproto.datagram_ns"] += v;
    else if (layer == "irq") ns["core.irq_ns"] += v;
    else if (layer == "mailbox") ns["core.mailbox_ns"] += v;
    else if (layer == "sync") ns["core.sync_ns"] += v;
    else if (layer == "coll") ns["coll.ns"] += v;
  }
  return ns;
}

std::map<std::string, double> per_layer(const std::vector<Rep>& plain,
                                        const std::vector<Rep>& traced) {
  const Rep& t = traced.front();
  std::map<std::string, double> m;
  auto med = [](const std::vector<Rep>& reps, double (*get)(const Rep&)) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(get(r));
    return median(v);
  };
  const double run_s = med(plain, [](const Rep& r) { return r.run_s; });
  const double traced_run_s = med(traced, [](const Rep& r) { return r.run_s; });

  m["fail_ratio"] = sim_figures(t).fail_ratio();

  // sim
  const double events = static_cast<double>(t.events);
  const double depth = sum_metric(t, "sim.engine", "pending_events");
  m["sim.events"] = events;
  m["sim.host_ns_per_event"] = ratio(run_s * 1e9, events);
  m["sim.engine_ns_per_event"] = engine_ns_per_event(static_cast<std::size_t>(depth));
  m["sim.fiber_ns_per_switch"] = fiber_ns_per_switch();
  const double reuses = sum_metric(t, "sim.engine", "pool_reuses");
  m["sim.pool_reuse_ratio"] = ratio(reuses, reuses + sum_metric(t, "sim.engine", "pool_slots"));
  m["sim.heap_actions"] = sum_metric(t, "sim.engine", "heap_actions");

  // hw
  const double frames = sum_metric(t, "link", ".out.frames_sent");
  const double frame_bytes = sum_metric(t, "link", ".out.bytes_sent");
  const double mean_frame = std::max(1.0, std::round(ratio(frame_bytes, frames)));
  m["hw.frames"] = frames;
  m["hw.frame_bytes"] = frame_bytes;
  m["hw.crc_ns_per_frame"] = crc_ns_per_frame(static_cast<std::size_t>(mean_frame));
  m["hw.link_drops"] = sum_metric(t, "link", ".out.frames_dropped");
  m["hw.hub_blocked_ns"] = sum_metric(t, "hub", ".blocked_ns");
  m["hw.hub_queue_highwater"] = max_metric(t, "hub", ".queue_highwater");
  m["hw.mcast_out_per_in"] =
      ratio(sum_metric(t, "hub", ".mcast_out"), sum_metric(t, "hub", ".mcast_in"));
  m["hw.framepool_reuse_ratio"] =
      ratio(sum_metric(t, "hw.framepool", "reuses"), sum_metric(t, "hw.framepool", "acquires"));

  // core
  m["core.cpu_busy_share"] = ratio(sum_metric(t, "cab.cpu", "busy_ns"),
                                   static_cast<double>(t.nodes) * t.duration_s * 1e9);
  m["core.context_switches"] = sum_metric(t, "cab.cpu", "context_switches");
  m["core.interrupts"] = sum_metric(t, "cab.cpu", "interrupts_taken");
  // Small-buffer cache hits per message published to a mailbox: the
  // registry counts hits at Begin_Put and publishes at End_Put/Enqueue, but
  // not Begin_Puts, so a message staged and then freed unpublished can push
  // this above 1.
  m["core.mailbox_cache_hit_ratio"] =
      ratio(sum_metric(t, "mailbox", ".cache_hits"), sum_metric(t, "mailbox", ".puts"));
  m["core.heap_ns_per_alloc"] = heap_ns_per_alloc(static_cast<std::size_t>(mean_frame));

  // Simulated ns per profiler domain (proto, nproto, core, session, coll).
  for (const char* k : {"core.irq_ns", "core.mailbox_ns", "core.sync_ns", "core.switch_ns",
                        "proto.dl_ns", "proto.ip_ns", "proto.tcp_ns", "proto.tcp_checksum_ns",
                        "nproto.rmp_ns", "nproto.datagram_ns", "session.ns", "coll.ns"}) {
    m[k] = 0;
  }
  for (const auto& [k, v] : layer_sim_ns(t.folded)) m[k] = v;

  // proto
  const double segments = sum_metric(t, "tcp", "segments_sent");
  m["proto.cksum_ns_per_segment"] = cksum_ns_per_segment(static_cast<std::size_t>(mean_frame));
  m["proto.tcp_segments"] = segments;
  m["proto.tcp_retransmits"] = row(t, "retransmits.tcp");
  m["proto.dl_drops"] = sum_metric(t, "datalink", "dropped_crc") +
                        sum_metric(t, "datalink", "dropped_no_buffer") +
                        sum_metric(t, "datalink", "dropped_no_client") +
                        sum_metric(t, "datalink", "dropped_runt");
  m["proto.hdrpool_reuse_ratio"] =
      ratio(sum_metric(t, "proto.hdrpool", "reuses"), sum_metric(t, "proto.hdrpool", "acquires"));

  // nproto
  m["nproto.rmp_retransmits"] = sum_metric(t, "rmp", "retransmissions");
  m["nproto.rmp_duplicates"] = sum_metric(t, "rmp", "duplicates_dropped");

  // session
  m["session.frames_per_msg"] = row(t, "session.trunk.frames_per_msg");
  m["session.credit_stalls"] = row(t, "session.credit_stalls");
  m["session.open_p99_us"] = row(t, "session.open.p99");
  m["session.refused"] = row(t, "session.refused");
  m["session.wire_ns_per_frame"] = wire_ns_per_frame();

  // coll
  m["coll.op_p99_us"] = row(t, "coll.p99");
  m["coll.ops"] = row(t, "coll.ops_completed");
  m["coll.retransmits"] = row(t, "coll.retransmits");

  // set-up and teardown, from the plain runs
  m["scenario.parse_s"] = med(plain, [](const Rep& r) { return r.parse_s; });
  m["net.build_s"] = med(plain, [](const Rep& r) { return r.build_s; });
  m["scenario.report_s"] = med(plain, [](const Rep& r) { return r.report_s; });
  m["net.teardown_s"] = med(plain, [](const Rep& r) { return r.teardown_s; });

  // Host-time estimates: timed unit cost x the traced run's count / run_s.
  // Every frame is CRC'd twice (DMA out, DMA in); every TCP segment is
  // checksummed at both ends.
  const double ns = run_s * 1e9;
  m["sim.engine_host_share"] = ratio(m["sim.engine_ns_per_event"] * events, ns);
  m["sim.fiber_host_share"] = ratio(m["sim.fiber_ns_per_switch"] * m["core.context_switches"], ns);
  m["hw.crc_host_share"] = ratio(m["hw.crc_ns_per_frame"] * 2 * frames, ns);
  m["proto.cksum_host_share"] = ratio(m["proto.cksum_ns_per_segment"] * 2 * segments, ns);
  m["host.unattributed_share"] = 1.0 - m["sim.engine_host_share"] - m["sim.fiber_host_share"] -
                                 m["hw.crc_host_share"] - m["proto.cksum_host_share"];

  m["obs.trace_overhead_s"] = traced_run_s - run_s;
  return m;
}

// --- output ----------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::map<std::string, double>& values, bool trace) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    auto it = values.find(d.name);
    if (it == values.end()) return;
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(d.name) + "\": {\"value\": " + fmt(it->second) + ", \"unit\": \"" +
           d.unit + "\"}";
  };
  for (const MetricDef& d : catalogue(trace)) emit(d);
  return out + "}}";
}

void print_metrics(const char* title, const std::map<std::string, double>& values,
                   bool trace, double samples) {
  std::printf("%s\n", title);
  auto show = [&](const MetricDef& d) {
    auto it = values.find(d.name);
    if (it == values.end()) return;
    std::printf("  %-30s %16.6g %-7s", d.name, it->second, d.unit);
    std::string n = d.name;
    if (n == "p50_us" || n == "p99_us" || n == "p999_us") {
      std::printf(" n=%.0f", samples);
    }
    if (trace) std::printf(" -> %s [%s]", d.moves, d.workload);
    std::printf("\n");
  };
  for (const MetricDef& d : catalogue(trace)) show(d);
}

json catalogue_json(bool trace) {
  json arr = json::array();
  auto add = [&](const MetricDef& d) {
    json o = json::object();
    o.set("name", d.name);
    o.set("unit", d.unit);
    if (trace) {
      o.set("moves", d.moves);
      o.set("read_on", d.workload);
    }
    arr.push(std::move(o));
  };
  for (const MetricDef& d : catalogue(trace)) add(d);
  return arr;
}

json sim_json(const SimFigures& f, std::uint64_t seed) {
  json o = json::object();
  o.set("seed", seed);
  o.set("p50_us", f.p50_us);
  o.set("p99_us", f.p99_us);
  o.set("p999_us", f.p999_us);
  o.set("latency_samples", f.samples);
  o.set("goodput_mbps", f.goodput_mbps);
  o.set("fairness_min", f.fairness_min);
  o.set("fail_ratio", f.fail_ratio());
  o.set("attempted", f.attempted);
  o.set("failures", f.failures);
  return o;
}

void print_sim(const char* label, const SimFigures& f, std::uint64_t seed) {
  std::printf(
      "%s seed %llu: p50 %.1f us, p99 %.1f us, p999 %.1f us (n=%.0f), goodput %.2f Mbit/s, "
      "fairness_min %.4f, fail_ratio %.3g (%.0f of %.0f)\n",
      label, static_cast<unsigned long long>(seed), f.p50_us, f.p99_us, f.p999_us, f.samples,
      f.goodput_mbps, f.fairness_min, f.fail_ratio(), f.failures, f.attempted);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--config-dir") {
      a.config_dir = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  const bool have_dirs = !a.config_dir.empty() && !a.out_dir.empty();
  if (argc % 2 == 0 || !have_workload || !have_dirs) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--config-dir <dir> --out-dir <dir>");
  }
  return a;
}

int run(const Args& a) {
  const auto t_start = Clock::now();
  const std::string ini = read_file(a.config_dir + "/" + a.workload + ".ini");
  const std::string folded_path = a.out_dir + "/" + a.workload + ".folded";
  const std::uint64_t held_out = a.seed + kHeldOutOffset;

  json artifact = json::object();
  artifact.set("schema", "nectar-perfbench");
  artifact.set("workload", a.workload);
  artifact.set("seed", a.seed);
  artifact.set("trace", static_cast<std::int64_t>(a.trace));
  json machine = json::object();
  machine.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  machine.set("compiler", PERFBENCH_COMPILER);
  machine.set("build_type", PERFBENCH_BUILD_TYPE);
  artifact.set("machine", std::move(machine));
  std::printf("perfbench %s: seed %llu, trace %d, nproc %u, compiler %s, build %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

  // The model's error against the paper's Table 1 anchors.
  Table1 t1 = table1_datagram_rtt();
  const double host_err = 100.0 * (t1.host_host_us / kPaperHostHostUs - 1.0);
  const double cab_err = 100.0 * (t1.cab_cab_us / kPaperCabCabUs - 1.0);
  std::printf(
      "accuracy: datagram RTT host-host %.1f us (paper %.0f, %+.1f%%), CAB-CAB %.1f us (paper "
      "%.0f, %+.1f%%); the model is otherwise unvalidated\n",
      t1.host_host_us, kPaperHostHostUs, host_err, t1.cab_cab_us, kPaperCabCabUs, cab_err);
  json acc = json::object();
  acc.set("datagram_rtt_host_host_us", t1.host_host_us);
  acc.set("paper_host_host_us", kPaperHostHostUs);
  acc.set("host_host_error_pct", host_err);
  acc.set("datagram_rtt_cab_cab_us", t1.cab_cab_us);
  acc.set("paper_cab_cab_us", kPaperCabCabUs);
  acc.set("cab_cab_error_pct", cab_err);
  acc.set("note", "Table 1 datagram round trips are the only hard anchors; the model is "
                  "otherwise unvalidated");
  artifact.set("accuracy", std::move(acc));

  std::vector<Rep> plain, traced;
  auto log_rep = [](const Rep& r) {
    std::printf("  %s rep: setup %.3f s (parse %.4f, build %.3f), run %.3f s (cpu %.3f s), "
                "report %.4f s, teardown %.3f s, %llu events\n",
                r.traced ? "traced" : "plain ", r.setup_s(), r.parse_s, r.build_s, r.run_s,
                r.run_cpu_s, r.report_s, r.teardown_s, static_cast<unsigned long long>(r.events));
    std::fflush(stdout);
  };
  std::map<std::string, double> values;
  std::size_t attempted = 0;
  double samples = 0;
  try {
    // Trace mode pairs each plain run with a traced run of the same seed;
    // plain mode cycles through the sub-seeds.
    std::vector<std::uint64_t> seeds;
    for (int k = 0; k < (a.trace ? 1 : kSubSeeds); ++k) seeds.push_back(a.seed + k * kSubSeedStride);
    do {
      const std::size_t k = plain.size() % seeds.size();
      ++attempted;
      plain.push_back(run_rep(ini, seeds[k], false, folded_path));
      log_rep(plain.back());
      check_outputs(plain.back(), "plain run");
      if (a.trace) {
        ++attempted;
        traced.push_back(run_rep(ini, a.seed, true, folded_path));
        log_rep(traced.back());
        check_outputs(traced.back(), "traced run");
        check_same_simulation(plain.front(), traced.back());
      }
    } while (seconds_since(t_start) < a.seconds || (!a.trace && plain.size() < kMinPlainReps));
    // `plain` stopped growing; compare every repetition with the first run
    // of its seed.
    for (std::size_t i = 0; i < plain.size(); ++i) {
      check_same_simulation(plain[i % seeds.size()], plain[i]);
    }

    std::vector<SimFigures> per_seed;
    json sims = json::array();
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      per_seed.push_back(sim_figures(plain[k]));
      print_sim("simulated", per_seed.back(), seeds[k]);
      sims.push(sim_json(per_seed.back(), seeds[k]));
    }
    const SimFigures sim = mean_figures(per_seed);
    samples = sim.samples;
    artifact.set("simulated", std::move(sims));
    if (a.trace) {
      ++attempted;
      Rep h = run_rep(ini, held_out, false, folded_path);
      log_rep(h);
      check_outputs(h, "held-out seed run");
      const SimFigures hs = sim_figures(h);
      print_sim("held-out", hs, held_out);
      artifact.set("held_out", sim_json(hs, held_out));
      values = per_layer(plain, traced);
    } else {
      std::vector<double> setup, run_s;
      for (const Rep& r : plain) {
        setup.push_back(r.setup_s());
        run_s.push_back(r.run_s);
      }
      values["setup_s"] = median(setup);
      values["run_s"] = median(run_s);
      values["peak_rss_mb"] = peak_rss_mb();
      values["p50_us"] = sim.p50_us;
      values["p99_us"] = sim.p99_us;
      values["p999_us"] = sim.p999_us;
      values["goodput_mbps"] = sim.goodput_mbps;
      values["fairness_min"] = sim.fairness_min;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", e.what());
    std::printf("%s\n", result_line(false, attempted, 1, values, a.trace).c_str());
    return 1;
  }

  print_metrics(a.trace ? "per-layer metrics (-> end-to-end target [workload]):"
                        : "end-to-end metrics:",
                values, a.trace, samples);
  json mj = json::object();
  for (const auto& [k, v] : values) mj.set(k, v);
  artifact.set("metrics", std::move(mj));
  artifact.set("catalogue", catalogue_json(a.trace));
  const std::string path = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                           "-trace" + std::to_string(a.trace ? 1 : 0) + ".json";
  std::ofstream(path, std::ios::binary) << artifact.dump(2) << '\n';
  std::printf("report: %s\n", path.c_str());
  std::printf("%s\n", result_line(true, attempted, 0, values, a.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
