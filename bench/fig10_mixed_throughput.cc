// Figure 10: aggregate network throughput vs Websearch (low-latency) load
// for a combined Websearch + all-to-all shuffle workload, on
// cost-equivalent 648-host networks.
//
// Capacity model (substitution for the paper's htsim runs; see "Model
// substitutions" in docs/ARCHITECTURE.md):
//  * Opera: low-latency bytes ride the expander plane and pay the average
//    path length; the remaining rotor capacity carries shuffle tax-free.
//  * expander: both classes pay the expander's average path length over
//    u=7 uplinks.
//  * Clos: capacity is the oversubscribed uplink bandwidth, path tax-free.
// Throughput is normalized to aggregate host bandwidth; Websearch load is
// admitted up to each network's low-latency limit.
#include <algorithm>

#include "exp/experiment.h"
#include "topo/expander.h"
#include "topo/opera_topology.h"

namespace {

struct NetParams {
  double capacity;  // usable aggregate uplink bits/sec per host bit
  double ll_tax;    // path length multiplier for low-latency bytes
  double bulk_tax;  // path length multiplier for bulk bytes
};

double mixed_throughput(const NetParams& net, double ws_load) {
  // Admit websearch first (priority-queued), up to capacity.
  const double ws = std::min(ws_load, net.capacity / net.ll_tax);
  const double remaining = net.capacity - ws * net.ll_tax;
  const double shuffle = std::max(0.0, remaining / net.bulk_tax);
  return std::min(1.0, ws + shuffle);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opera;
  exp::Experiment ex(
      "Figure 10: throughput vs Websearch load (Websearch + shuffle mix)", argc,
      argv);
  using namespace opera::topo;

  // Opera: u=6, one switch reconfiguring, 90% duty -> capacity in units of
  // host bandwidth (d=6): (u-1)/d * duty.
  OperaParams op;
  op.num_racks = 108;
  op.num_switches = 6;
  op.seed = 1;
  const OperaTopology opera_topo(op);
  const double opera_avg_path = all_pairs_path_stats(opera_topo.slice_graph(2)).average;
  const NetParams opera_net{(6.0 - 1.0) / 6.0 * 0.9, opera_avg_path, 1.0};

  // u=7 expander: capacity u/d, all traffic pays avg path length.
  ExpanderParams ep;
  ep.num_tors = 130;
  ep.uplinks = 7;
  ep.hosts_per_tor = 5;
  ep.seed = 1;
  const ExpanderTopology expander(ep);
  const double exp_avg_path = all_pairs_path_stats(expander.graph()).average;
  const NetParams exp_net{7.0 / 5.0, exp_avg_path, exp_avg_path};

  // 3:1 folded Clos: 1/3 of host bandwidth, no path tax.
  const NetParams clos_net{1.0 / 3.0, 1.0, 1.0};

  auto& table = ex.report().table(
      "throughput", {"websearch_load", "opera", "u7_expander", "clos_3_1"});
  for (const double w : {0.01, 0.025, 0.05, 0.10, 0.20, 0.40}) {
    table.row({exp::Value(w, 3), exp::Value(mixed_throughput(opera_net, w), 3),
               exp::Value(mixed_throughput(exp_net, w), 3),
               exp::Value(mixed_throughput(clos_net, w), 3)});
  }
  ex.report().note(
      "Paper shape: Opera delivers up to ~4x the static networks at low\n"
      "Websearch load and ~2x near its 10%% low-latency admission limit\n"
      "(Opera avg path %.2f hops; expander %.2f hops).",
      opera_avg_path, exp_avg_path);
  return 0;
}
