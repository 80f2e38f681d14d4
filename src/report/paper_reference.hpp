// Published values from the paper, used to print paper-vs-measured
// comparisons in every benchmark (the builders in experiments.hpp).
// We reproduce *shape* (who wins, rough factors, crossovers), not the
// authors' exact figures: our substrate is a calibrated synthetic list,
// not the live November-2024 scrape.
#pragma once

namespace easyc::report {

struct PaperReference {
  // Coverage (Figs. 4-6, Section IV-A).
  static constexpr int kOpCoveredTop500 = 391;
  static constexpr int kEmbCoveredTop500 = 283;
  static constexpr int kOpCoveredPublic = 490;   // 98% of 500
  static constexpr int kEmbCoveredPublic = 404;  // 80.8% of 500
  static constexpr double kBothCoveredTop500Pct = 56.6;

  // Table I missingness (Top500.org / +public).
  static constexpr int kNodesMissingTop500 = 209;
  static constexpr int kNodesMissingPublic = 86;
  static constexpr int kGpusMissingTop500 = 209;
  static constexpr int kGpusMissingPublic = 86;
  static constexpr int kMemMissingTop500 = 499;
  static constexpr int kMemMissingPublic = 292;
  static constexpr int kMemTypeMissingTop500 = 500;
  static constexpr int kMemTypeMissingPublic = 292;
  static constexpr int kSsdMissingTop500 = 500;
  static constexpr int kSsdMissingPublic = 450;
  static constexpr int kUtilMissingTop500 = 500;
  static constexpr int kUtilMissingPublic = 497;
  static constexpr int kEnergyMissingTop500 = 500;
  static constexpr int kEnergyMissingPublic = 492;

  // Headline totals (Section IV-B, Fig. 7).
  static constexpr double kOpTotalCoveredMt = 1.37e6;   // 490 systems
  static constexpr double kEmbTotalCoveredMt = 1.53e6;  // 404 systems
  static constexpr double kOpTotalFullMt = 1.39e6;      // interpolated 500
  static constexpr double kEmbTotalFullMt = 1.88e6;
  static constexpr double kOpInterpolationPct = 1.74;   // +10 systems
  static constexpr double kEmbInterpolationPct = 23.18; // +96 systems

  // Equivalences.
  static constexpr double kOpVehicles = 325000;
  static constexpr double kOpVehicleMilesB = 3.5;  // billions
  static constexpr double kEmbVehicles = 439000;
  static constexpr double kEmbVehicleMilesB = 4.8;

  // Sensitivity (Fig. 9).
  static constexpr double kOpTotalChangePct = 2.85;
  static constexpr double kOpTotalChangeMt = 38000;
  static constexpr double kOpMaxPerSystemPct = 77.5;
  static constexpr double kEmbTotalChangeMt = 670480;
  static constexpr double kEmbTotalChangePct = 78.0;

  // Projection (Figs. 10-11).
  static constexpr double kOpGrowthPerYear = 0.103;
  static constexpr double kEmbGrowthPerYear = 0.02;
  static constexpr double kOp2030Factor = 1.8;   // ~1.8x 2024 by 2030
  static constexpr double kEmb2030Factor = 1.1;
  static constexpr double kPerfPerCarbonSlope = 0.2;  // PF per kMT per yr

  // Named-system contrasts (Appendix discussion).
  static constexpr double kLumiVsLeonardoOpFactor = 4.3;
  static constexpr double kFrontierVsElCapitanEmbFactor = 2.6;

  // EasyC tool facts (Fig. 1).
  static constexpr int kKeyMetrics = 7;
  static constexpr int kOptionalMetrics = 2;
};

}  // namespace easyc::report
