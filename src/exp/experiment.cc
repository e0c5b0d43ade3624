#include "exp/experiment.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "fluid/fluid_network.h"

namespace opera::exp {

const std::vector<SizeBucket>& fct_buckets() {
  static const std::vector<SizeBucket> buckets = {
      {0, 10'000, "<10KB"},
      {10'000, 100'000, "10KB-100KB"},
      {100'000, 1'000'000, "100KB-1MB"},
      {1'000'000, 15'000'000, "1MB-15MB"},
      {15'000'000, 1LL << 62, ">=15MB (bulk)"},
  };
  return buckets;
}

Experiment::Experiment(std::string name, int argc, char** argv)
    // The shared flags, or exit 2 naming the malformed one.
    : opts_([&] {
        try {
          return CliOptions::parse(argc, argv);
        } catch (const CliError& e) {
          std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
          std::exit(2);
        }
      }()),
      report_(std::move(name), opts_.format) {
  // Every bench binary goes through Experiment, so this is the one place
  // the fluid/hybrid builders are guaranteed to be installed before the
  // first NetworkFactory::build (core cannot depend on fluid itself).
  fluid::register_fluid_engines();
}

Experiment::RunResult Experiment::run(const std::string& label,
                                      const core::FabricConfig& config,
                                      const std::vector<workload::FlowSpec>& flows,
                                      const RunOptions& opts) {
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;
  result.label = label;
  // --threads applies to any run that didn't pin a count itself.
  core::FabricConfig effective = config;
  if (effective.threads == 0 && opts_.threads > 0) effective.threads = opts_.threads;
  // --engine applies to any run that didn't pin an engine itself.
  if (!opts_.engine.empty() && effective.engine == core::EngineKind::kPacket) {
    const auto engine = core::parse_engine_kind(opts_.engine);
    if (!engine) {
      std::fprintf(stderr,
                   "%s: unknown engine '%s' (expected packet, fluid or "
                   "hybrid)\n",
                   report_.bench().c_str(), opts_.engine.c_str());
      std::exit(2);
    }
    effective.engine = *engine;
  }
  if (effective.engine != noted_engine_) {
    noted_engine_ = effective.engine;
    report_.note("engine=%s", core::engine_kind_name(effective.engine));
  }
  result.net = core::NetworkFactory::build(effective);
  // Emit the shard count as report metadata, from the *resolved* count
  // (which includes the OPERA_TEST_THREADS env default and the rack-count
  // clamp — not just the raw flag), so result artifacts record how the
  // wall-clock was produced (scripts/check_bench_baseline.py carries it
  // through). Re-emitted whenever a sweep's resolved count changes;
  // parse_csv_threads summarizes a mixed artifact as the maximum.
  if (result.net->num_shards() != noted_threads_ &&
      (result.net->num_shards() > 1 || noted_threads_ > 0)) {
    noted_threads_ = result.net->num_shards();
    report_.note("threads=%d", noted_threads_);
  }
  if (opts.setup) opts.setup(*result.net);
  for (const auto& f : flows) {
    if (opts.remap) {
      result.net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start,
                                  opts.force_class);
    } else {
      result.net->submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start,
                              opts.force_class);
    }
    ++result.submitted;
  }
  if (opts.stop_when_done) {
    result.status = result.net->run_to_completion(opts.horizon);
  } else {
    result.net->run_until(opts.horizon);
    result.status = {opts.horizon, false};
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

void Experiment::emit_fct_rows(const std::string& label, double load_pct,
                               const core::Network& net) {
  auto& table = report_.table(
      "fct", {"fabric", "load_pct", "bucket", "flows", "p50_us", "p99_us"});
  const auto& tracker = net.tracker();
  for (const auto& bucket : fct_buckets()) {
    const auto fct = tracker.fct_us(bucket.lo, bucket.hi);
    if (fct.empty()) {
      table.row({label, Value(load_pct, 0), bucket.label,
                 static_cast<std::int64_t>(fct.count()), "-", "-"});
      continue;
    }
    table.row({label, Value(load_pct, 0), bucket.label,
               static_cast<std::int64_t>(fct.count()),
               Value(fct.percentile(50), 1), Value(fct.percentile(99), 1)});
  }
}

void Experiment::run_fct_sweep(const FctSweep& sweep) {
  for (const double load : sweep.loads) {
    const auto flows = sweep.make_flows(load);
    for (const auto& fabric : sweep.fabrics) {
      RunOptions opts;
      opts.horizon = sweep.horizon;
      opts.force_class = fabric.force_class;
      const auto result = run(fabric.label, fabric.config, flows, opts);
      emit_fct_rows(fabric.label, load * 100.0, *result.net);
    }
  }
}

}  // namespace opera::exp
