#include "exp/cost_sweep.h"

#include <algorithm>
#include <string_view>

#include "core/cost_model.h"
#include "exp/experiment.h"
#include "fluid/throughput.h"
#include "topo/random_regular.h"

namespace opera::exp {

namespace {

constexpr double kRate = 10e9;

fluid::Demand make_workload(std::string_view name, int racks, int hosts,
                            unsigned seed) {
  using fluid::Demand;
  if (name == "hotrack") return Demand::hotrack(racks, hosts, kRate);
  if (name == "skew[0.2,1]") return Demand::skew(racks, hosts, kRate, 0.2, seed);
  if (name == "permutation") return Demand::permutation(racks, hosts, kRate, seed);
  return Demand::all_to_all(racks, hosts, kRate);
}

}  // namespace

void run_cost_sweep(Experiment& ex, int k, std::uint64_t rng_seed) {
  using core::CostModel;
  const auto hosts = CostModel::clos_hosts(k, 3.0);
  const int opera_racks = static_cast<int>(CostModel::opera_racks(k));
  const int d_opera = k / 2;

  const char* workloads[] = {"hotrack", "skew[0.2,1]", "permutation", "all-to-all"};
  const double alphas[] = {1.0, 1.25, 1.5, 1.75, 2.0};

  ex.report().note("k=%d, %lld hosts", k, static_cast<long long>(hosts));
  auto& table = ex.report().table(
      "throughput", {"workload", "alpha", "opera", "expander", "folded_clos"});

  for (const char* wl : workloads) {
    // Opera and Clos share one Opera-sized demand; Opera is independent
    // of alpha, so compute it once.
    const fluid::Demand opera_demand = make_workload(wl, opera_racks, d_opera, 7);
    fluid::RotorModelParams rp;
    rp.num_racks = opera_racks;
    rp.uplinks = d_opera;
    rp.link_rate_bps = kRate;
    rp.active_fraction = static_cast<double>(d_opera - 1) / d_opera;
    rp.duty_cycle = 0.9;
    const double opera_theta = std::min(1.0, fluid::rotor_throughput(opera_demand, rp));

    for (const double alpha : alphas) {
      // Expander at this cost point.
      const int u_e = CostModel::expander_uplinks(alpha, k);
      const int d_e = k - u_e;
      const int racks_e = static_cast<int>(hosts / d_e);
      sim::Rng rng(rng_seed);
      const auto g = topo::random_regular_graph(racks_e, u_e, rng);
      const double exp_theta = std::min(
          1.0, fluid::expander_throughput(make_workload(wl, racks_e, d_e, 7), g,
                                          kRate));

      // Clos at this cost point.
      const double f = CostModel::clos_oversubscription(alpha);
      const double clos_theta =
          std::min(1.0, fluid::clos_throughput(opera_demand, d_opera, kRate, f));

      table.row({wl, Value(alpha, 2), Value(opera_theta, 3), Value(exp_theta, 3),
                 Value(clos_theta, 3)});
    }
  }
}

}  // namespace opera::exp
