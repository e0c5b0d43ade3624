// Empirical flow-size distributions (paper Figure 1): Datamining
// (VL2/Microsoft [21]), Websearch (DCTCP [4]), and Hadoop (Facebook [39]).
//
// The CDFs are piecewise log-linear fits digitized from the published
// curves (see "Model substitutions" in docs/ARCHITECTURE.md): the paper's
// evaluation depends on their shape — byte-heavy tails over many size
// decades — which these fits preserve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace opera::workload {

class FlowSizeDistribution {
 public:
  struct Point {
    double bytes;
    double cdf;  // fraction of flows at or below `bytes`
  };

  FlowSizeDistribution(std::string name, std::vector<Point> points);

  // Inverse-transform sampling with log-linear interpolation between
  // points.
  [[nodiscard]] std::int64_t sample(sim::Rng& rng) const;

  // Mean flow size (bytes), integrated over the interpolated CDF; used to
  // convert offered load into a Poisson arrival rate.
  [[nodiscard]] double mean_bytes() const { return mean_bytes_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& flow_cdf() const { return points_; }

  // CDF of *bytes* (paper Fig. 1 bottom): fraction of total traffic volume
  // carried by flows at or below each size.
  [[nodiscard]] std::vector<Point> byte_cdf() const;

  // Fraction of bytes carried by flows >= threshold (e.g. the 15 MB bulk
  // cutoff: the paper's claim that the vast majority of Datamining bytes
  // are bulk).
  [[nodiscard]] double byte_fraction_at_or_above(double threshold_bytes) const;

  static FlowSizeDistribution datamining();  // VL2 [21]: 100 B .. 1 GB
  static FlowSizeDistribution websearch();   // DCTCP [4]: 10 KB .. 30 MB
  static FlowSizeDistribution hadoop();      // Facebook [39]: 100 B .. 100 MB

 private:
  [[nodiscard]] double quantile(double p) const;

  std::string name_;
  std::vector<Point> points_;
  double mean_bytes_ = 0.0;
};

}  // namespace opera::workload
