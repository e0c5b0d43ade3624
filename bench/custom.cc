// bench_custom — ad-hoc fabric sweeps from the command line, no recompile:
//
//   bench_custom --fabric=opera --racks=432 --hosts-per-rack=12
//                --workload=poisson --load=0.25 --duration-ms=1 --seed=1
//
// Builds any fabric through core::FabricConfig::scale() at the requested
// size (e.g. the k=24 / 5184-host Opera sweeps from the ROADMAP), reports
// construction wall-clock, and (unless --construct-only) drives one of the
// standard synthetic workloads through it and reports completion and FCT
// percentiles. --csv/--json choose the output rendering as usual. With
// --construct-only on an Opera fabric it also prints where the topology
// build went: factorization restarts and failed draws, and the wall time
// of factorization, slice acceptance test and slice tables.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "exp/experiment.h"
#include "exp/run_guard.h"
#include "exp/scenario.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"
#include "topo/opera_topology.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace {

using namespace opera;

// --key=value parse helpers (CliOptions already swallows --csv etc.).
const char* arg_value(int argc, char** argv, const char* key) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}
double arg_double(int argc, char** argv, const char* key, double fallback) {
  const char* v = arg_value(argc, argv, key);
  return v != nullptr ? std::atof(v) : fallback;
}
long arg_long(int argc, char** argv, const char* key, long fallback) {
  const char* v = arg_value(argc, argv, key);
  return v != nullptr ? std::atol(v) : fallback;
}
std::string arg_string(int argc, char** argv, const char* key, const char* fallback) {
  const char* v = arg_value(argc, argv, key);
  return v != nullptr ? v : fallback;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_custom [options]\n"
      "  --fabric=opera|clos|expander|rotornet   (default opera)\n"
      "  --racks=N                               (default 108)\n"
      "  --hosts-per-rack=D                      (default 6; Opera u = D)\n"
      "  --workload=poisson|permutation|shuffle|incast|storage|ml\n"
      "                                          (default poisson)\n"
      "  --scenario=SPEC[;SPEC...]  declarative scenarios (docs/SCENARIOS.md):\n"
      "                    ditl / trace / adversarial-perm replace --workload;\n"
      "                    storm-rolling / storm-racks / gray / skew arm\n"
      "                    failure events (opera only; gray/skew need the\n"
      "                    packet engine; any number)\n"
      "  --load=F          poisson offered load  (default 0.10)\n"
      "  --dist=datamining|websearch|hadoop      (default datamining)\n"
      "  --flow-kb=K       fixed-size-flow workloads' flow/object/chunk\n"
      "                    size (default 100; ml: per-member model size)\n"
      "  --duration-ms=T   poisson arrival window (default 1)\n"
      "  --horizon-ms=T    simulation horizon     (default 50)\n"
      "  --seed=S                                (default 1)\n"
      "  --slice-window=W  Opera resident slice tables (default 0 = auto:\n"
      "                    eager if all fit 256 MB, else windowed+LRU)\n"
      "  --threads=N       shard the event loop over N rack domains\n"
      "                    (Opera; bit-identical output for any N)\n"
      "  --engine=packet|fluid|hybrid  simulation engine (Opera only;\n"
      "                    fluid integrates bulk flows as rate groups,\n"
      "                    hybrid splits by bulk threshold — docs/FLUID.md)\n"
      "  --construct-only  build the network, skip the traffic run; Opera\n"
      "                    also rebuilds its topology and every slice\n"
      "                    table once more to print a per-phase breakdown\n"
      "  --csv | --json    output format\n"
      "run guardrails (docs/CHECKPOINT.md):\n"
      "  --checkpoint-every=T  write a checkpoint every T ms of sim time\n"
      "  --checkpoint-to=FILE  checkpoint destination (default\n"
      "                        bench_custom.ckpt; atomic tmp+rename)\n"
      "  --resume=FILE     rebuild + replay from FILE's checkpoint; run\n"
      "                    parameters come from the file (--threads, guard\n"
      "                    flags and output format are still honored;\n"
      "                    --scenario conflicts)\n"
      "  --max-wall-s=S    wall-clock watchdog: checkpoint + partial report\n"
      "                    + exit 43 after S seconds\n"
      "  --max-rss-mb=M    memory guard: degrade (shrink slice window),\n"
      "                    then checkpoint + partial report + exit 44\n"
      "  SIGINT/SIGTERM    checkpoint + partial report + exit 42\n");
  return 2;
}

// Per-phase cost of an Opera topology build, from a second build with
// stats collected. failed_draws / draws is the share of factorization
// work thrown away. Slice tables are built for the whole cycle and
// dropped as they finish (the network may keep only a window of them).
void report_opera_build_phases(exp::Experiment& ex, const topo::OperaParams& params) {
  topo::OperaBuildStats stats;
  const topo::OperaTopology topo(params, &stats);
  const auto tables_start = std::chrono::steady_clock::now();
  sim::parallel_for(static_cast<std::size_t>(topo.num_slices()), [&](std::size_t s) {
    const topo::EcmpTable table = topo.slice_routes(static_cast<int>(s));
    static_cast<void>(table);
  });
  const double tables_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - tables_start)
          .count();
  const auto& f = stats.factorization;
  const double wasted = f.draws > 0 ? static_cast<double>(f.failed_draws) / f.draws : 0.0;
  auto& table = ex.report().table(
      "build_phases", {"realizations", "restarts", "draws", "failed_draws",
                       "wasted_frac", "factorization_s", "acceptance_s",
                       "slice_tables_s"});
  table.row({stats.realizations, f.restarts, f.draws, f.failed_draws,
             exp::Value(wasted, 3), exp::Value(stats.factorization_s, 3),
             exp::Value(stats.acceptance_s, 3), exp::Value(tables_s, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  if (exp::CliOptions::has_flag(argc, argv, "--help")) return usage();

  const std::string fabric_name = arg_string(argc, argv, "--fabric", "opera");
  const auto kind = core::parse_fabric_kind(fabric_name);
  if (!kind) {
    std::fprintf(stderr, "bench_custom: unknown fabric '%s'\n", fabric_name.c_str());
    return usage();
  }
  const auto racks = static_cast<std::int32_t>(arg_long(argc, argv, "--racks", 108));
  const auto hosts_per_rack =
      static_cast<std::int32_t>(arg_long(argc, argv, "--hosts-per-rack", 6));
  const std::string workload_name = arg_string(argc, argv, "--workload", "poisson");
  const double load = arg_double(argc, argv, "--load", 0.10);
  const std::string dist_name = arg_string(argc, argv, "--dist", "datamining");
  const std::int64_t flow_bytes = arg_long(argc, argv, "--flow-kb", 100) * 1000;
  const double duration_ms = arg_double(argc, argv, "--duration-ms", 1.0);
  const double horizon_ms = arg_double(argc, argv, "--horizon-ms", 50.0);
  const auto seed = static_cast<std::uint64_t>(arg_long(argc, argv, "--seed", 1));
  const bool construct_only = exp::CliOptions::has_flag(argc, argv, "--construct-only");
  const std::string scenario_str = arg_string(argc, argv, "--scenario", "");

  // Run guardrails (exp::RunGuard). Any of these flags activates the
  // guarded driver; without them the legacy run path below is untouched.
  const double checkpoint_every_ms =
      arg_double(argc, argv, "--checkpoint-every", 0.0);
  const double max_wall_s = arg_double(argc, argv, "--max-wall-s", 0.0);
  const double max_rss_mb = arg_double(argc, argv, "--max-rss-mb", 0.0);
  const std::string resume_path = arg_string(argc, argv, "--resume", "");
  std::string checkpoint_path = arg_string(argc, argv, "--checkpoint-to", "");
  const bool resuming = !resume_path.empty();
  const bool guard_active = resuming || checkpoint_every_ms > 0 ||
                            max_wall_s > 0 || max_rss_mb > 0;
  if (checkpoint_path.empty()) {
    checkpoint_path = resuming ? resume_path : "bench_custom.ckpt";
  }

  exp::Experiment ex("custom fabric sweep", argc, argv);

  core::FabricConfig config = core::FabricConfig::make(*kind);
  config.scale(racks, hosts_per_rack);
  config.seed = seed;
  config.slice_table_window =
      static_cast<int>(arg_long(argc, argv, "--slice-window", 0));
  config.threads = ex.cli().threads;  // parsed by exp::CliOptions with the other shared flags
  if (!ex.cli().engine.empty()) {
    const auto engine = core::parse_engine_kind(ex.cli().engine);
    if (!engine) {
      std::fprintf(stderr, "bench_custom: unknown engine '%s'\n",
                   ex.cli().engine.c_str());
      return usage();
    }
    config.engine = *engine;
  }

  // Resume: run parameters come from the checkpoint (the recipe), not the
  // CLI — replaying a different workload against a restored time marker
  // could only produce garbage. --threads stays an override (the restored
  // run is bit-identical at any shard count).
  exp::RunRecipe recipe;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  if (resuming) {
    if (!scenario_str.empty()) {
      std::fprintf(stderr,
                   "bench_custom: --scenario conflicts with --resume (the "
                   "scenario suite is recorded in the checkpoint)\n");
      return 2;
    }
    if (!ex.cli().engine.empty()) {
      std::fprintf(stderr,
                   "bench_custom: --engine conflicts with --resume (the "
                   "engine is recorded in the checkpoint)\n");
      return 2;
    }
    auto parsed = sim::load_checkpoint(resume_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_custom: %s\n", parsed.error.c_str());
      return 2;
    }
    if (const std::string err = exp::recipe_from_checkpoint(
            parsed.data, &recipe, &resume_time, &resume_digest);
        !err.empty()) {
      std::fprintf(stderr, "bench_custom: %s: %s\n", resume_path.c_str(),
                   err.c_str());
      return 2;
    }
    if (ex.cli().threads != 0) recipe.config.threads = ex.cli().threads;
    config = recipe.config;
  }
  const std::string scenario_suite = resuming ? recipe.scenario : scenario_str;

  std::vector<exp::ScenarioSpec> scenarios;
  if (!scenario_suite.empty()) {
    auto parsed = exp::parse_scenarios(scenario_suite);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_custom: %s\n", parsed.error.c_str());
      return usage();
    }
    scenarios = std::move(parsed.specs);
    for (const auto& s : scenarios) {
      if (const std::string err = exp::validate_scenario(s, config); !err.empty()) {
        std::fprintf(stderr, "bench_custom: invalid scenario — %s\n", err.c_str());
        return 2;
      }
    }
  }

  const auto build_start = std::chrono::steady_clock::now();
  auto net = core::NetworkFactory::build(config);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start)
          .count();
  // Record the *resolved* shard count (covers the OPERA_TEST_THREADS env
  // default, not just --threads) so CSV artifacts label sharded walls.
  if (net->num_shards() > 1) ex.report().note("threads=%d", net->num_shards());
  if (config.engine != core::EngineKind::kPacket) {
    ex.report().note("engine=%s", core::engine_kind_name(config.engine));
  }

  auto& build_table = ex.report().table(
      "build", {"fabric", "racks", "hosts", "construct_s"});
  build_table.row({net->describe(), net->num_racks(), net->num_hosts(),
                   exp::Value(build_seconds, 3)});
  if (construct_only) {
    if (config.kind == core::FabricKind::kOpera) {
      report_opera_build_phases(ex, config.opera);
    }
    return 0;
  }

  // Scenario wiring: a workload scenario replaces --workload; failure
  // scenarios arm coordinator-phase events before the run starts.
  std::string run_label = workload_name;
  const exp::ScenarioSpec* workload_scenario = nullptr;
  for (const auto& s : scenarios) {
    ex.report().note("scenario: %s", exp::describe(s).c_str());
    if (exp::scenario_is_workload(s)) workload_scenario = &s;
    else exp::arm_scenario(s, *net);  // engine-dispatching overload
  }

  sim::Rng rng(seed + 1);
  std::vector<workload::FlowSpec> flows;
  if (resuming) {
    run_label = recipe.run_label;
    flows = recipe.flows;
  } else if (workload_scenario != nullptr) {
    run_label = exp::scenario_kind_name(workload_scenario->kind);
    std::string err;
    flows = exp::scenario_flows(*workload_scenario, config, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "bench_custom: scenario workload failed — %s\n",
                   err.c_str());
      return 2;
    }
  } else if (workload_name == "poisson") {
    const auto dist = dist_name == "websearch"  ? workload::FlowSizeDistribution::websearch()
                      : dist_name == "hadoop"   ? workload::FlowSizeDistribution::hadoop()
                                                : workload::FlowSizeDistribution::datamining();
    flows = workload::poisson_workload(dist, net->num_hosts(), load,
                                       config.link.rate_bps,
                                       sim::Time::from_us(duration_ms * 1000.0), rng);
  } else if (workload_name == "permutation") {
    flows = workload::permutation_workload(net->num_hosts(), hosts_per_rack,
                                           flow_bytes, rng);
  } else if (workload_name == "shuffle") {
    flows = workload::shuffle_workload(net->num_hosts(), hosts_per_rack, flow_bytes,
                                       sim::Time::zero(), rng);
  } else if (workload_name == "incast") {
    workload::IncastParams p;
    p.flow_bytes = flow_bytes;
    flows = workload::incast_workload(net->num_hosts(), hosts_per_rack, p, rng);
  } else if (workload_name == "storage") {
    workload::StorageReplicationParams p;
    p.object_bytes = flow_bytes;
    flows = workload::storage_replication_workload(net->num_hosts(), hosts_per_rack,
                                                   p, rng);
  } else if (workload_name == "ml") {
    workload::MlCollectiveParams p;
    p.model_bytes = flow_bytes;
    flows = workload::ml_collective_workload(net->num_hosts(), hosts_per_rack, p, rng);
  } else {
    std::fprintf(stderr, "bench_custom: unknown workload '%s'\n",
                 workload_name.c_str());
    return usage();
  }

  // Labels and horizon: from the recipe on resume, from the CLI otherwise.
  const std::string fct_label = resuming ? recipe.fabric_label : fabric_name;
  const double load_pct = resuming ? recipe.load_pct : load * 100.0;
  const sim::Time horizon =
      resuming ? recipe.horizon : sim::Time::from_us(horizon_ms * 1000.0);

  const auto run_start = std::chrono::steady_clock::now();
  for (const auto& f : flows) {
    net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }

  // Result tail, shared between normal completion and the guard's
  // partial-report exit path (SIGINT/watchdog/memory).
  const auto emit_results = [&](sim::Time ended_at, double run_seconds) {
    auto& run_table = ex.report().table(
        "run", {"workload", "flows", "completed", "sim_ms", "wall_s", "events"});
    run_table.row({run_label, static_cast<std::int64_t>(flows.size()),
                   static_cast<std::int64_t>(net->tracker().completed()),
                   exp::Value(ended_at.to_ms(), 3), exp::Value(run_seconds, 3),
                   static_cast<std::int64_t>(net->events_executed())});
    ex.emit_fct_rows(fct_label, load_pct, *net);

    if (!scenarios.empty()) {
      const auto fct =
          net->tracker().fct_us(0, std::numeric_limits<std::int64_t>::max());
      core::OperaNetwork::TorStats tor_stats;
      if (const auto* opera_net = dynamic_cast<const core::OperaNetwork*>(net.get())) {
        tor_stats = opera_net->tor_stats();
      }
      auto& scenario_table = ex.report().table(
          "scenario",
          {"scenario", "flows", "completed", "p50_us", "p99_us", "wire_drops",
           "tor_drops"});
      scenario_table.row(
          {scenario_suite, static_cast<std::int64_t>(flows.size()),
           static_cast<std::int64_t>(net->tracker().completed()),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(99), 1),
           static_cast<std::int64_t>(tor_stats.wire_drops),
           static_cast<std::int64_t>(tor_stats.drops)});
    }

    if (const auto* opera_net = dynamic_cast<const core::OperaNetwork*>(net.get())) {
      const auto& cache = opera_net->slice_tables();
      const auto& st = cache.stats();
      ex.report().note(
          "slice tables: %s window %d of %d, resident %zu (%.1f MB, peak %.1f MB), "
          "builds %llu demand + %llu prefetch, evictions %llu",
          cache.eager() ? "eager" : "windowed", cache.window(), cache.num_slices(),
          st.resident, st.resident_bytes / 1e6, st.peak_resident_bytes / 1e6,
          static_cast<unsigned long long>(st.demand_builds),
          static_cast<unsigned long long>(st.prefetch_builds),
          static_cast<unsigned long long>(st.evictions));
    }
    ex.report().note("peak RSS %.1f MB", exp::peak_rss_bytes() / 1e6);
  };

  core::Network::RunStatus status{};
  if (guard_active) {
    if (!resuming) {
      recipe.run_label = run_label;
      recipe.fabric_label = fct_label;
      recipe.load_pct = load_pct;
      recipe.scenario = scenario_suite;
      recipe.config = config;
      recipe.flows = flows;
      recipe.horizon = horizon;
    }
    exp::RunGuardOptions gopts;
    gopts.checkpoint_every = sim::Time::from_us(checkpoint_every_ms * 1000.0);
    gopts.checkpoint_path = checkpoint_path;
    gopts.max_wall_s = max_wall_s;
    gopts.max_rss_bytes = static_cast<std::size_t>(max_rss_mb * 1e6);
    gopts.resume_time = resume_time;
    gopts.resume_digest = resume_digest;
    gopts.partial_report = [&](const char* reason) {
      ex.report().note("PARTIAL RUN: %s", reason);
      const double run_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start)
              .count();
      emit_results(net->sim().now(), run_seconds);
      ex.report().finish();
    };
    exp::RunGuard guard(std::move(recipe), std::move(gopts));
    status = guard.drive(*net);
  } else {
    status = net->run_to_completion(horizon);
  }
  const double run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();

  emit_results(status.ended_at, run_seconds);
  return 0;
}
