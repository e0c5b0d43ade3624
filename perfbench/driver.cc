// perfbench driver: runs one benchmark workload in this process and prints
// one JSON line of raw measurements on stdout. perfbench/run.py builds it,
// aggregates the line into the benchmark's metrics and checks the digest.
//
//   perfbench_driver --workload NAME --seed N --trace 0|1 --instances K
//                    --passes P [--smoke] [--spans PATH]
//
// Every layer is timed from outside, around calls into its public API:
// the workload generators, topology constructors, NetworkFactory::build,
// Network::submit_remapped, Network::run_with_progress and the FlowTracker
// queries. A run covers a fixed list of instances (--instances) a fixed
// number of times (--passes), both set by run.py, so the inputs and the
// number of samples behind every statistic are the same however fast the
// program is. An untraced run makes the passes over the list in order. A
// traced run makes one pass of (untraced, traced) iteration pairs; the
// traced one records spans and samples per-layer counters at every span
// boundary, and its digest must equal the untraced one's.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "core/network.h"
#include "core/opera_network.h"
#include "exp/output.h"
#include "exp/scenario.h"
#include "exp/testbed.h"
#include "fluid/fluid_network.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "topo/opera_topology.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace {

using namespace opera;
using Clock = std::chrono::steady_clock;

// Progress tick of every run, traced or not: the tick is itself an event,
// so both modes execute the identical event stream.
const sim::Time kTick = sim::Time::us(500);

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  core::FabricConfig config;
  sim::Time horizon;
  std::function<std::vector<workload::FlowSpec>(std::uint64_t seed)> generate;
};

// Websearch Poisson arrivals at 10% load, cut once the offered bytes reach
// what `arrivals` of that load carries: every instance offers the same
// volume, so the work per instance varies little from seed to seed while
// sizes and timing stay random. Sizes are clipped just under the bulk
// threshold (as fig07 clips its tail) so every flow rides the low-latency
// NDP path whatever the seed draws.
std::vector<workload::FlowSpec> websearch_flows(std::int32_t hosts, sim::Time arrivals,
                                                std::int64_t bulk_threshold,
                                                std::uint64_t seed) {
  constexpr double kLoad = 0.10;
  constexpr double kLinkBps = 10e9;
  sim::Rng rng(seed);
  auto flows = workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                          hosts, kLoad, kLinkBps, arrivals * 3, rng);
  const double target = kLoad * hosts * kLinkBps * arrivals.to_seconds() / 8.0;
  double offered = 0.0;
  std::size_t keep = 0;
  while (keep < flows.size() && offered < target) {
    auto& f = flows[keep++];
    f.size_bytes = std::min(f.size_bytes, bulk_threshold - 1);
    offered += static_cast<double>(f.size_bytes);
  }
  flows.resize(keep);
  return flows;
}

// Smoke sizes keep each workload's fabric kind and engine but shrink it to
// the laptop testbed, so the plumbing runs in well under a second.
std::optional<Workload> make_workload(const std::string& name, bool smoke) {
  const auto tb = smoke ? exp::Testbed::quick() : exp::Testbed::paper();
  Workload w;
  if (name == "opera_websearch") {
    const int hosts = tb.num_hosts();
    const auto arrivals = smoke ? sim::Time::ms(1) : sim::Time::ms(5);
    w.config = tb.opera();
    w.horizon = sim::Time::ms(500);
    const std::int64_t threshold = w.config.bulk_threshold_bytes;
    w.generate = [hosts, arrivals, threshold](std::uint64_t seed) {
      return websearch_flows(hosts, arrivals, threshold, seed);
    };
  } else if (name == "fluid_day_k24") {
    // The standard day at 0.26 peak load: ~1.01 M flows whatever the seed.
    // At 0.27 the count straddles 2^20, where vector capacity doubling
    // makes peak RSS jump between ~322 and ~395 MB from seed to seed.
    constexpr double kFluidLoad = 0.26;
    w.config = core::FabricConfig::make(core::FabricKind::kOpera);
    if (smoke) {
      w.config.scale(16, 4);
    } else {
      w.config.scale(432, 12);
    }
    w.config.engine = core::EngineKind::kFluid;
    w.config.bulk_threshold_bytes = 1'000'000;
    w.horizon = smoke ? sim::Time::ms(200) : sim::Time::ms(4000);
    const double phase_ms = smoke ? 2.0 : 400.0;
    const core::FabricConfig cfg = w.config;
    w.generate = [cfg, phase_ms](std::uint64_t seed) {
      exp::ScenarioSpec spec;
      spec.kind = exp::ScenarioKind::kDitl;
      spec.phase_ms = phase_ms;
      spec.load = kFluidLoad;
      spec.seed = seed;
      return exp::scenario_flows(spec, cfg);
    };
  } else {
    return std::nullopt;
  }
  // Single-domain event loop: see perfbench/README.md on threads=1.
  w.config.threads = 1;
  return w;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;
  int iteration = 0;
  std::map<std::string, double> counts;  // counters sampled at this boundary
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int parent) {
    Span s;
    s.name = name;
    s.start = now();
    s.parent = parent;
    s.iteration = iteration_;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  // Adds a span whose interval was measured by the caller.
  void record(Span s) {
    s.iteration = iteration_;
    spans_.push_back(std::move(s));
  }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  double now() const { return since(origin_); }
  void set_iteration(int it) { iteration_ = it; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  int iteration_ = 0;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; a no-op when
// the tracer is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void count(const std::string& key, double value) {
    if (tracer_ != nullptr) tracer_->at(id_).counts[key] = value;
  }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// One iteration
// ---------------------------------------------------------------------------

struct Bucket {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};
constexpr Bucket kBuckets[] = {
    {"lt10k", 0, 10'000},
    {"10k-100k", 10'000, 100'000},
    {"100k-1m", 100'000, 1'000'000},
    {"1m-15m", 1'000'000, 15'000'000},
    {"ge15m", 15'000'000, std::numeric_limits<std::int64_t>::max()},
};

struct Iteration {
  std::map<std::string, double> values;  // times, counts and sim results
  std::vector<double> fct_us;            // every completed flow's FCT
  std::string digest;
  std::vector<std::string> errors;       // output-check failures
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Output checks that hold for any seed: every flow completes exactly once,
// the completion stream is in canonical time order, and no flow beats its
// own serialization time on a host link.
void check_completions(const transport::FlowTracker& tracker, std::size_t submitted,
                       std::int64_t submitted_bytes, double link_bps,
                       std::vector<std::string>* errors) {
  const auto& recs = tracker.completions();
  if (tracker.registered() != submitted) {
    errors->push_back("registered " + std::to_string(tracker.registered()) +
                      " of " + std::to_string(submitted) + " submitted flows");
  }
  std::int64_t bytes = 0;
  sim::Time last = sim::Time::zero();
  std::vector<std::uint64_t> ids;
  ids.reserve(recs.size());
  for (const auto& rec : recs) {
    bytes += rec.flow.size_bytes;
    ids.push_back(rec.flow.id);
    if (rec.end < last) errors->push_back("completion stream out of time order");
    last = rec.end;
    const double ideal_s = static_cast<double>(rec.flow.size_bytes) * 8.0 / link_bps;
    // 1 ns of slack: completion times are truncated to picoseconds.
    if (rec.fct().to_seconds() + 1e-9 < ideal_s) {
      errors->push_back("flow " + std::to_string(rec.flow.id) + " (" +
                        std::to_string(rec.flow.size_bytes) + " B) took " +
                        std::to_string(rec.fct().to_us()) + " us, under its " +
                        std::to_string(ideal_s * 1e6) + " us at line rate");
    }
    if (errors->size() > 8) return;
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    errors->push_back("a flow completed twice");
  }
  if (recs.size() == submitted && bytes != submitted_bytes) {
    errors->push_back("completed bytes differ from submitted bytes");
  }
}

Iteration run_iteration(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  Iteration it;
  auto& v = it.values;
  const auto t_total = Clock::now();
  ScopedSpan root(tracer, "bench.iteration", -1);

  std::vector<workload::FlowSpec> flows;
  {
    ScopedSpan span(tracer, "workload.generate", root.id());
    const auto t0 = Clock::now();
    flows = w.generate(seed);
    v["gen_s"] = since(t0);
    span.count("flows", static_cast<double>(flows.size()));
  }
  v["flows"] = static_cast<double>(flows.size());
  std::int64_t submitted_bytes = 0;
  for (const auto& f : flows) submitted_bytes += f.size_bytes;

  if (tracer != nullptr) {
    // A standalone topology build: the part of set-up that is topo's.
    ScopedSpan span(tracer, "topo.build", root.id());
    const auto t0 = Clock::now();
    const topo::OperaTopology topo(w.config.opera);
    v["topo_build_s"] = since(t0);
  }

  std::unique_ptr<core::Network> net;
  {
    ScopedSpan span(tracer, "core.build", root.id());
    const auto t0 = Clock::now();
    net = core::NetworkFactory::build(w.config);
    v["setup_s"] = since(t0);
  }
  auto* opera_net = dynamic_cast<core::OperaNetwork*>(net.get());
  auto* fluid_net = dynamic_cast<fluid::FluidNetwork*>(net.get());

  double delivered_bytes = 0.0;
  if (tracer != nullptr) {
    net->tracker().set_delivery_hook(
        [&delivered_bytes](const transport::Flow&, std::int64_t bytes, sim::Time) {
          delivered_bytes += static_cast<double>(bytes);
        });
  }

  const auto t_run = Clock::now();
  {
    ScopedSpan span(tracer, "core.submit", root.id());
    const auto t0 = Clock::now();
    for (const auto& f : flows) {
      net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
    }
    v["submit_s"] = since(t0);
  }

  {
    ScopedSpan span(tracer, "sim.run", root.id());
    const auto t0 = Clock::now();
    double tick_start = tracer ? tracer->now() : 0.0;
    std::uint64_t tick_events = 0;
    double pending_max = 0.0;
    double groups_max = 0.0;
    // Same stop test as Network::run_to_completion.
    const auto status = net->run_with_progress(w.horizon, kTick, [&](core::Network& n) {
      if (tracer != nullptr) {
        const double now = tracer->now();
        const std::uint64_t events = n.events_executed();
        const auto pending = static_cast<double>(n.sim().queue().size());
        Span tick;
        tick.name = "sim.tick";
        tick.start = tick_start;
        tick.end = now;
        tick.parent = span.id();
        tick.counts["events"] = static_cast<double>(events - tick_events);
        tick.counts["pending"] = pending;
        pending_max = std::max(pending_max, pending);
        if (fluid_net != nullptr) {
          groups_max =
              std::max(groups_max, static_cast<double>(fluid_net->active_groups()));
        }
        tracer->record(std::move(tick));
        tick_events = events;
        tick_start = tracer->now();
      }
      const auto& tr = n.tracker();
      return tr.registered() > 0 && tr.completed() >= tr.registered();
    });
    v["loop_s"] = since(t0);
    v["ended_at_ms"] = status.ended_at.to_ms();
    v["events"] = static_cast<double>(net->events_executed());
    v["pending_max"] = pending_max;
    v["groups_max"] = groups_max;
    span.count("events", v["events"]);
  }
  v["run_s"] = since(t_run);

  const auto& tracker = net->tracker();
  sim::PercentileSampler all;
  {
    ScopedSpan span(tracer, "transport.fct_query", root.id());
    const auto t0 = Clock::now();
    all = tracker.fct_us(0, std::numeric_limits<std::int64_t>::max());
    v["fct_p50_us"] = all.empty() ? 0.0 : all.percentile(50);
    v["fct_p99_us"] = all.empty() ? 0.0 : all.percentile(99);
    if (tracer != nullptr) {
      for (const auto& b : kBuckets) {
        const auto s = tracker.fct_us(b.lo, b.hi);
        v[std::string("fct_p50_us.") + b.name] = s.empty() ? 0.0 : s.percentile(50);
        v[std::string("fct_p99_us.") + b.name] = s.empty() ? 0.0 : s.percentile(99);
      }
    }
    v["fct_query_s"] = since(t0);
  }
  {
    ScopedSpan span(tracer, "transport.digest", root.id());
    sim::Fingerprint fp;
    tracker.fingerprint(fp);
    it.digest = hex64(fp.digest());
  }
  v["total_s"] = since(t_total);
  // The process's peak so far; run.py reports the first iteration's.
  v["peak_rss_mb"] = static_cast<double>(exp::peak_rss_bytes()) / 1e6;
  it.fct_us = all.samples();

  // Simulated span from the last completion record, not RunStatus::ended_at:
  // run_until parks the clock at the horizon when the stop tick was the
  // last pending event, so ended_at can read the horizon (see README.md).
  v["completed"] = static_cast<double>(tracker.completed());
  v["makespan_ms"] =
      tracker.completions().empty() ? 0.0 : tracker.completions().back().end.to_ms();
  check_completions(tracker, flows.size(), submitted_bytes, w.config.link.rate_bps,
                    &it.errors);

  if (tracer != nullptr) {
    v["delivered_bytes"] = delivered_bytes;
    if (opera_net != nullptr) {
      const auto& st = opera_net->slice_tables().stats();
      v["slice_hits"] = static_cast<double>(st.hits);
      v["slice_demand_builds"] = static_cast<double>(st.demand_builds);
      v["slice_prefetch_builds"] = static_cast<double>(st.prefetch_builds);
      v["slice_evictions"] = static_cast<double>(st.evictions);
      v["slice_peak_bytes"] = static_cast<double>(st.peak_resident_bytes);
      const auto tor = opera_net->tor_stats();
      v["trims"] = static_cast<double>(tor.trims);
      v["drops"] = static_cast<double>(tor.drops);
      v["forward_drops"] = static_cast<double>(tor.forward_drops);
    }
    if (fluid_net != nullptr) {
      const auto& fs = fluid_net->fluid_stats();
      v["fluid_direct_bytes"] = fs.direct_bytes;
      v["fluid_vlb_bytes"] = fs.vlb_bytes;
    }
  }
  return it;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_values(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, x] : values) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + json_num(x);
  }
  return out + "}";
}

std::string json_iteration(const Iteration& it) {
  std::string errors = "[";
  for (const auto& e : it.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_str(e);
  }
  errors += "]";
  return "{\"digest\":" + json_str(it.digest) + ",\"errors\":" + errors +
         ",\"values\":" + json_values(it.values) + "}";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write spans to " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":%s,\"start\":%s,\"end\":%s,\"parent\":%d,"
                    "\"iteration\":%d,\"counts\":%s}%s\n",
                 i, json_str(s.name).c_str(), json_num(s.start).c_str(),
                 json_num(s.end).c_str(), s.parent, s.iteration,
                 json_values(s.counts).c_str(), i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) die("cannot write spans to " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool smoke = false;
  int instances = 0;
  int passes = 0;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--trace") {
      if (val != "0" && val != "1") die("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--instances") {
      a.instances = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (end == val.c_str() || *end != '\0' || a.instances < 1) die("bad --instances");
    } else if (key == "--passes") {
      a.passes = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (end == val.c_str() || *end != '\0' || a.passes < 1) die("bad --passes");
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      die("unknown argument " + key);
    }
  }
  if (a.workload.empty()) die("--workload is required");
  if (!have_seed) die("--seed takes a non-negative integer");
  if (a.instances < 1) die("--instances is required");
  if (a.passes < 1) die("--passes is required");
  if (a.trace && a.spans.empty()) die("--trace 1 needs --spans PATH");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  fluid::register_fluid_engines();
  const auto w = make_workload(args.workload, args.smoke);
  if (!w) die("unknown workload " + args.workload);

  const auto t_start = Clock::now();
  Tracer tracer(t_start);
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  // Instance i is the workload generated from the i-th draw of a stream
  // seeded by --seed, so medians average over inputs as well as over
  // timing noise.
  std::vector<std::uint64_t> seeds;
  sim::Rng instance_seeds(args.seed);
  for (int i = 0; i < args.instances; ++i) seeds.push_back(instance_seeds.next_u64());
  if (args.trace) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      untraced.push_back(run_iteration(*w, seeds[i], nullptr));
      tracer.set_iteration(static_cast<int>(i));
      traced.push_back(run_iteration(*w, seeds[i], &tracer));
    }
  } else {
    // Passes in order, so a slow stretch of the host lands on different
    // passes of each instance; run.py keeps each instance's fastest pass.
    // Every later pass must reproduce the first pass's digests.
    for (int pass = 0; pass < args.passes; ++pass) {
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        untraced.push_back(run_iteration(*w, seeds[i], nullptr));
        if (pass > 0 && untraced.back().digest != untraced[i].digest) {
          untraced.back().errors.push_back("digest differs from the first pass's");
        }
      }
    }
  }

  std::string out = "{\"workload\":" + json_str(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"smoke\":" + (args.smoke ? "true" : "false") + ",\"untraced\":[";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    out += (i ? "," : "") + json_iteration(untraced[i]);
  }
  out += "],\"traced\":[";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    out += (i ? "," : "") + json_iteration(traced[i]);
  }
  // FCT percentiles over the completed flows of the first pass's instances.
  sim::PercentileSampler pooled;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (const double x : untraced[i].fct_us) pooled.add(x);
  }
  out += "],\"pooled_fct_p50_us\":" + json_num(pooled.empty() ? 0.0 : pooled.percentile(50)) +
         ",\"pooled_fct_p99_us\":" + json_num(pooled.empty() ? 0.0 : pooled.percentile(99));
  // Wall time per progress tick over every traced iteration.
  sim::PercentileSampler ticks;
  for (const auto& s : tracer.spans()) {
    if (s.name == "sim.tick") ticks.add(1e3 * (s.end - s.start));
  }
  out += ",\"tick_ms_p50\":" + json_num(ticks.empty() ? 0.0 : ticks.percentile(50)) +
         ",\"tick_ms_p90\":" + json_num(ticks.empty() ? 0.0 : ticks.percentile(90));
  out += ",\"wall_s\":" + json_num(since(t_start)) + "}";
  if (args.trace) write_spans(args.spans, tracer.spans());
  std::printf("%s\n", out.c_str());
  return 0;
}
