// Shared runtime harness for the end-to-end benches (Tables VI-VIII, Fig 8):
// spins up simulated devices, runs app sessions under Monkey with DARPA
// connected, and scores every analysis against the session's ground truth.
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/app_model.h"
#include "baselines/frauddroid.h"
#include "bench_common.h"
#include "core/darpa_service.h"
#include "fleet/fleet.h"
#include "perf/device_model.h"

namespace darpa::bench {

struct ConfusionMatrix {
  int tp = 0;  ///< labeled AUI, flagged AUI
  int fn = 0;  ///< labeled AUI, flagged non-AUI
  int fp = 0;  ///< labeled non-AUI, flagged AUI
  int tn = 0;  ///< labeled non-AUI, flagged non-AUI

  /// Counts one screen by its ground truth and its verdict.
  void add(bool truth, bool flagged) {
    ++(truth ? (flagged ? tp : fn) : (flagged ? fp : tn));
  }

  [[nodiscard]] int labeledAui() const { return tp + fn; }
  [[nodiscard]] int labeledNonAui() const { return fp + tn; }
  [[nodiscard]] double precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  [[nodiscard]] double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
};

/// FraudDroid id-coverage telemetry: nodes inspected and how many carried a
/// resource id, i.e. how much of the metadata the string features could
/// read at all.
struct IdCoverage {
  std::int64_t nodesSeen = 0;
  std::int64_t nodesWithId = 0;
  [[nodiscard]] double ratio() const {
    return nodesSeen == 0 ? 0.0
                          : static_cast<double>(nodesWithId) /
                                static_cast<double>(nodesSeen);
  }
};

struct RuntimeResult {
  ConfusionMatrix darpa;       ///< Screenshot-level verdicts vs ground truth.
  ConfusionMatrix fraudDroid;  ///< Same screenshots, FraudDroid-like verdict.
  ConfusionMatrix lint;        ///< Same screens, static-lint-only verdict.
  /// DARPA's verdicts on truth-positive screens split by AUI host, so
  /// hybrid runs can show native-screen recall is untouched while WebView
  /// screens shift the load from lint onto CV. Only tp/fn are meaningful
  /// (negatives have no host).
  ConfusionMatrix darpaOnNative;
  ConfusionMatrix darpaOnWeb;
  /// The sessions' roll-up: ledger, counts, exposures and coverage.
  fleet::FleetSnapshot fleet;
  /// FraudDroid id coverage summed over every analyzed dump (only filled
  /// when runFraudDroid), split by ground truth. WebView hosting changes
  /// only AUI screens, so the hybrid collapse shows on AUI screens and is
  /// diluted by the far more numerous benign ones in the all-screens ratio.
  IdCoverage fraudDroidIdsOnAui;
  IdCoverage fraudDroidIdsOnNonAui;
  /// All-screens id coverage.
  [[nodiscard]] double fraudDroidIdCoverage() const {
    return IdCoverage{
        fraudDroidIdsOnAui.nodesSeen + fraudDroidIdsOnNonAui.nodesSeen,
        fraudDroidIdsOnAui.nodesWithId + fraudDroidIdsOnNonAui.nodesWithId}
        .ratio();
  }
};

struct RuntimeOptions {
  int appCount = 100;
  Millis sessionLength{60'000};  ///< 1 minute per app, like the paper.
  core::DarpaConfig darpaConfig;
  bool runFraudDroid = false;
  std::uint64_t seed = 606;
  /// Applied to every app profile: probability a third-party AUI is
  /// WebView-delivered (virtual nodes, no resource ids). 0 keeps each
  /// session's RNG streams — and so the whole run — byte-identical to the
  /// pre-WebView harness.
  double webViewAuiProb = 0.0;
  /// When set, every analyzed screen is also scored by this lint engine
  /// (independently of any lintPrefilter inside darpaConfig), filling
  /// RuntimeResult::lint for side-by-side lint-vs-CV comparisons.
  const analysis::LintEngine* lintScorer = nullptr;
};

/// Runs `appCount` one-minute sessions as a one-worker fleet with DARPA
/// connected, scoring every analysis against its session's ground truth.
inline RuntimeResult runSessions(const cv::Detector& detector,
                                 const RuntimeOptions& options) {
  fleet::FleetConfig config;
  config.sessions = options.appCount;
  config.duration = options.sessionLength;
  config.seed = options.seed;
  config.darpa = options.darpaConfig;
  config.packagePrefix = "com.bench.app";
  config.sessionTweak = [&options](int, fleet::DeviceSession::Config& session) {
    session.profile.webViewAuiProb = options.webViewAuiProb;
  };
  fleet::Fleet fleet(detector, config);

  RuntimeResult result;
  const baselines::FraudDroidDetector fraudDroid;
  for (int i = 0; i < fleet.sessionCount(); ++i) {
    fleet::DeviceSession& device = fleet.session(i);
    device.setAnalysisListener([&](bool isAui,
                                   const std::vector<cv::Detection>&) {
      android::AndroidSystem& system = device.system();
      const Millis now = system.clock.now();
      const apps::AuiExposure* exposure = device.app().exposureAt(now);
      const bool truth = exposure != nullptr;
      result.darpa.add(truth, isAui);
      if (truth) {
        ConfusionMatrix& byHost =
            exposure->spec.host == apps::AuiHost::kWebView
                ? result.darpaOnWeb
                : result.darpaOnNative;
        byHost.add(truth, isAui);
      }
      if (options.lintScorer == nullptr && !options.runFraudDroid) return;
      // One dump of the analyzed screen feeds both scorers.
      const android::UiDump dump = system.windowManager.dumpTopWindow();
      const Size screen = system.windowManager.config().screenSize;
      if (options.lintScorer != nullptr) {
        result.lint.add(truth,
                        options.lintScorer->run(dump, screen).verdict.isAui);
      }
      if (options.runFraudDroid) {
        const baselines::FraudDroidResult verdict =
            fraudDroid.analyze(dump, screen);
        IdCoverage& ids = truth ? result.fraudDroidIdsOnAui
                                : result.fraudDroidIdsOnNonAui;
        ids.nodesSeen += verdict.nodesSeen;
        ids.nodesWithId += verdict.nodesWithId;
        result.fraudDroid.add(truth, verdict.isAui);
      }
    });
  }

  fleet.run();
  result.fleet = fleet.snapshot();
  return result;
}

inline void printConfusion(const char* name, const ConfusionMatrix& m) {
  std::printf("  %-18s |        flagged AUI   flagged non-AUI\n", name);
  std::printf("    labeled AUI      | %12d %15d\n", m.tp, m.fn);
  std::printf("    labeled non-AUI  | %12d %15d\n", m.fp, m.tn);
  std::printf("    precision %.3f   recall %.3f\n", m.precision(), m.recall());
}

}  // namespace darpa::bench
