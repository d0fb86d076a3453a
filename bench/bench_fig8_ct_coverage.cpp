// Figure 8 — AUI coverage and analysis workload under different cut-off
// intervals ct. The paper's trendlines: both the number of UI-change
// events analyzed and the number of AUIs identified fall as ct grows;
// ct = 200 ms keeps 94.1 % of the AUIs found at ct = 50 ms while cutting
// the workload by 67.1 %.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_runtime.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Figure 8 — AUI coverage under different ct thresholds");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");

  std::printf("\n  paper reference: ct=50ms -> 2,291 analyses, 203 AUIs;\n"
              "  ct=200ms -> 753 analyses (-67.1%%), 191 AUIs (94.1%% kept)\n\n");

  struct Row {
    int ct;
    long long analyses;
    int covered;
    int exposures;
  };
  std::vector<Row> rows;
  for (int ct : {50, 100, 200, 300, 400, 500}) {
    bench::RuntimeOptions options;
    options.appCount = bench::scaled(30, 4);
    options.darpaConfig.cutoff = ms(ct);
    // The AS notification delay coalesces events at 200 ms; sweeping ct
    // below that would be masked by it, so the service tunes the delay
    // together with ct (as a deployment would).
    options.darpaConfig.notificationDelay = ms(std::min(ct, 200));
    options.seed = 4242;  // SAME population across ct values (paper design)
    const bench::RuntimeResult result = bench::runSessions(detector, options);
    const fleet::FleetSnapshot& snap = result.fleet;
    rows.push_back(Row{ct, static_cast<long long>(snap.ledger.counts().analysesRun),
                       static_cast<int>(snap.auisCovered),
                       static_cast<int>(snap.auiExposures)});
  }

  const double baseAnalyses = static_cast<double>(rows.front().analyses);
  const double baseCovered = static_cast<double>(rows.front().covered);
  std::printf("  ct(ms)  analyses  (vs ct=50)   AUIs found  (vs ct=50)  "
              "exposures\n");
  for (const Row& row : rows) {
    std::printf("  %5d  %8lld   %7.1f%%   %9d   %8.1f%%   %6d\n", row.ct,
                row.analyses, 100.0 * row.analyses / baseAnalyses, row.covered,
                baseCovered == 0 ? 0.0 : 100.0 * row.covered / baseCovered,
                row.exposures);
  }
  // ASCII trendlines, normalized to the ct=50 values.
  std::printf("\n  trend (normalized to ct=50):\n");
  for (const Row& row : rows) {
    const int eBar = static_cast<int>(40.0 * row.analyses / baseAnalyses);
    const int aBar = baseCovered == 0
                         ? 0
                         : static_cast<int>(40.0 * row.covered / baseCovered);
    std::printf("  ct=%3d events |%-40s|\n", row.ct,
                std::string(static_cast<std::size_t>(eBar), '#').c_str());
    std::printf("         AUIs   |%-40s|\n",
                std::string(static_cast<std::size_t>(aBar), '*').c_str());
  }
  return 0;
}
