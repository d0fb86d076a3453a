// Table VI — end-to-end comparison: DARPA vs the FraudDroid-like baseline
// over 100 one-minute Monkey sessions. Every stable screenshot DARPA
// analyzes is labeled against the session ground truth, and the same
// instant's ADB-style UI dump is fed to the FraudDroid-like detector.
#include <cstdio>

#include "bench_runtime.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Table VI — DARPA vs FraudDroid-like (100 apps x 1 min)");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");

  bench::RuntimeOptions options;
  options.appCount = bench::scaled(100, 8);
  options.runFraudDroid = true;
  const bench::RuntimeResult result = bench::runSessions(detector, options);

  std::printf("\n  paper reference (243 AUI / 253 non-AUI screenshots):\n");
  std::printf("    FraudDroid: TP 35  FN 208 | FP 11  TN 242  (recall 14.4%%)\n");
  std::printf("    DARPA:      TP 213 FN 30  | FP 21  TN 232  (recall 87.6%%, precision 91.0%%)\n");
  std::printf("\n  measured (%d AUI / %d non-AUI screenshots, %lld analyses):\n",
              result.darpa.labeledAui(), result.darpa.labeledNonAui(),
              static_cast<long long>(result.fleet.ledger.counts().analysesRun));
  bench::printConfusion("FraudDroid-like", result.fraudDroid);
  bench::printConfusion("DARPA", result.darpa);

  // The paper evaluates on a curated, roughly balanced set (243 AUI / 253
  // non-AUI). Our harness scores every analyzed screenshot, so non-AUI
  // screens outnumber AUIs ~16:1; for comparability, also report the
  // confusion with the non-AUI row scaled to the AUI count.
  auto normalized = [&](const bench::ConfusionMatrix& m) {
    bench::ConfusionMatrix out = m;
    const double scale = m.labeledNonAui() == 0
                             ? 1.0
                             : static_cast<double>(m.labeledAui()) /
                                   m.labeledNonAui();
    out.fp = static_cast<int>(m.fp * scale);
    out.tn = static_cast<int>(m.tn * scale);
    return out;
  };
  std::printf("\n  class-balance-normalized (paper-comparable):\n");
  bench::printConfusion("FraudDroid-like*", normalized(result.fraudDroid));
  bench::printConfusion("DARPA*", normalized(result.darpa));
  const auto covered = static_cast<int>(result.fleet.auisCovered);
  const auto exposures = static_cast<int>(result.fleet.auiExposures);
  std::printf("\n  DARPA coverage of AUI exposures: %d / %d (%.1f%%)\n",
              covered, exposures,
              exposures == 0 ? 0.0 : 100.0 * covered / exposures);

  // --- hybrid row: WebView-hosted AUIs (§VI-C) ----------------------------
  // 75% of third-party AUIs now deliver through a WebView: the whole
  // interstitial is a virtual accessibility subtree with zero resource
  // ids. The string baseline's id coverage — the fraction of metadata
  // nodes it can read at all — collapses, and with it its recall, while
  // DARPA's pixel path doesn't care where the pixels came from.
  bench::RuntimeOptions hybridOptions = options;
  hybridOptions.webViewAuiProb = 0.75;
  const bench::RuntimeResult hybrid =
      bench::runSessions(detector, hybridOptions);

  std::printf("\n  hybrid population (75%% of third-party AUIs in WebViews):\n");
  bench::printConfusion("FraudDroid-like", hybrid.fraudDroid);
  bench::printConfusion("DARPA", hybrid.darpa);
  std::printf("\n  FraudDroid id coverage:  native %.3f  ->  hybrid %.3f\n",
              result.fraudDroidIdCoverage(), hybrid.fraudDroidIdCoverage());
  std::printf("    on AUI screens:        native %.3f  ->  hybrid %.3f\n",
              result.fraudDroidIdsOnAui.ratio(),
              hybrid.fraudDroidIdsOnAui.ratio());
  std::printf("    on non-AUI screens:    native %.3f  ->  hybrid %.3f\n",
              result.fraudDroidIdsOnNonAui.ratio(),
              hybrid.fraudDroidIdsOnNonAui.ratio());
  std::printf("  DARPA recall by host (hybrid run): native-screen %.3f "
              "(%d AUI)  webview-screen %.3f (%d AUI)\n",
              hybrid.darpaOnNative.recall(), hybrid.darpaOnNative.labeledAui(),
              hybrid.darpaOnWeb.recall(), hybrid.darpaOnWeb.labeledAui());

  // Contract: the hybrid population must visibly starve the string
  // features on the screens it changes. Only AUIs move into WebViews, and
  // virtual nodes carry no resource ids, so id coverage on AUI screens has
  // to drop (the margin absorbs cross-run sampling noise). The all-screens
  // ratio is dominated by the unchanged benign screens and is not gated.
  if (hybrid.fraudDroidIdsOnAui.ratio() + 0.005 >=
      result.fraudDroidIdsOnAui.ratio()) {
    std::printf("\nFAIL: hybrid id coverage on AUI screens %.3f did not "
                "collapse vs native %.3f\n",
                hybrid.fraudDroidIdsOnAui.ratio(),
                result.fraudDroidIdsOnAui.ratio());
    return 1;
  }
  return 0;
}
