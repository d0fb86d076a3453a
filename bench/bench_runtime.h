// Shared runtime harness for the end-to-end benches (Tables VI-VIII, Fig 8):
// spins up simulated devices, runs app sessions under Monkey with DARPA
// connected, and scores every analysis against the session's ground truth.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/app_model.h"
#include "baselines/frauddroid.h"
#include "bench_common.h"
#include "core/darpa_service.h"
#include "fleet/device_session.h"
#include "perf/device_model.h"

namespace darpa::bench {

struct ConfusionMatrix {
  int tp = 0;  ///< labeled AUI, flagged AUI
  int fn = 0;  ///< labeled AUI, flagged non-AUI
  int fp = 0;  ///< labeled non-AUI, flagged AUI
  int tn = 0;  ///< labeled non-AUI, flagged non-AUI

  [[nodiscard]] int labeledAui() const { return tp + fn; }
  [[nodiscard]] int labeledNonAui() const { return fp + tn; }
  [[nodiscard]] double precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  [[nodiscard]] double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
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
  core::WorkLedger ledger;     ///< Per-stage work across every session.
  std::int64_t analyses = 0;
  std::int64_t eventsEmitted = 0;
  int auiExposures = 0;
  int auisCovered = 0;  ///< Exposures with >= 1 positive DARPA analysis.
  double detectorMacs = 0.0;
  /// FraudDroid id-coverage telemetry summed over every analyzed dump
  /// (only filled when runFraudDroid): the fraction of metadata nodes the
  /// string features could even read. Collapses on hybrid populations.
  std::int64_t fraudDroidNodesSeen = 0;
  std::int64_t fraudDroidNodesWithId = 0;
  [[nodiscard]] double fraudDroidIdCoverage() const {
    return fraudDroidNodesSeen == 0
               ? 0.0
               : static_cast<double>(fraudDroidNodesWithId) /
                     static_cast<double>(fraudDroidNodesSeen);
  }
};

struct RuntimeOptions {
  int appCount = 100;
  Millis sessionLength{60'000};  ///< 1 minute per app, like the paper.
  core::DarpaConfig darpaConfig;
  bool runFraudDroid = false;
  bool runMonkey = true;
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

/// Runs `appCount` one-minute sessions, each a fleet-of-1 DeviceSession
/// with DARPA connected, and aggregates verdicts + work. Per-app RNG draws
/// (profile, app seed, monkey seed) keep the outputs byte-identical to the
/// pre-fleet hand-wired harness.
inline RuntimeResult runSessions(const cv::Detector& detector,
                                 const RuntimeOptions& options) {
  RuntimeResult result;
  result.detectorMacs = detector.costMacsPerImage();
  Rng rng(options.seed);
  const baselines::FraudDroidDetector fraudDroid;

  for (int appIdx = 0; appIdx < options.appCount; ++appIdx) {
    fleet::DeviceSession::Config config;
    config.id = appIdx;
    config.darpa = options.darpaConfig;
    config.profile = apps::randomAppProfile(
        "com.bench.app" + std::to_string(appIdx), rng);
    config.profile.webViewAuiProb = options.webViewAuiProb;
    config.appSeed = rng.next();
    config.monkeySeed = rng.next();
    config.duration = options.sessionLength;
    config.monkey = options.runMonkey;
    fleet::DeviceSession device(detector, std::move(config));
    android::AndroidSystem& system = device.system();

    device.setAnalysisListener([&](bool isAui,
                                   const std::vector<cv::Detection>&) {
      ++result.analyses;
      const Millis now = system.clock.now();
      const apps::AuiExposure* exposure = device.app().exposureAt(now);
      const bool truth = exposure != nullptr;
      if (truth && isAui) {
        ++result.darpa.tp;
      } else if (truth && !isAui) {
        ++result.darpa.fn;
      } else if (!truth && isAui) {
        ++result.darpa.fp;
      } else {
        ++result.darpa.tn;
      }
      if (truth) {
        ConfusionMatrix& byHost =
            exposure->spec.host == apps::AuiHost::kWebView
                ? result.darpaOnWeb
                : result.darpaOnNative;
        ++(isAui ? byHost.tp : byHost.fn);
      }
      if (options.lintScorer != nullptr) {
        const analysis::LintReport lintReport = options.lintScorer->run(
            system.windowManager.dumpTopWindow(),
            system.windowManager.config().screenSize);
        const bool flagged = lintReport.verdict.isAui;
        if (truth && flagged) {
          ++result.lint.tp;
        } else if (truth && !flagged) {
          ++result.lint.fn;
        } else if (!truth && flagged) {
          ++result.lint.fp;
        } else {
          ++result.lint.tn;
        }
      }
      if (options.runFraudDroid) {
        const android::UiDump dump = system.windowManager.dumpTopWindow();
        const baselines::FraudDroidResult verdict = fraudDroid.analyze(
            dump, system.windowManager.config().screenSize);
        result.fraudDroidNodesSeen += verdict.nodesSeen;
        result.fraudDroidNodesWithId += verdict.nodesWithId;
        if (truth && verdict.isAui) {
          ++result.fraudDroid.tp;
        } else if (truth && !verdict.isAui) {
          ++result.fraudDroid.fn;
        } else if (!truth && verdict.isAui) {
          ++result.fraudDroid.fp;
        } else {
          ++result.fraudDroid.tn;
        }
      }
    });

    device.runToCompletion();

    result.ledger += device.ledger();
    result.eventsEmitted += device.eventsEmitted();
    result.auiExposures += static_cast<int>(device.auiExposures());
    result.auisCovered += static_cast<int>(device.auisCovered());
  }
  return result;
}

inline void printConfusion(const char* name, const ConfusionMatrix& m) {
  std::printf("  %-18s |        flagged AUI   flagged non-AUI\n", name);
  std::printf("    labeled AUI      | %12d %15d\n", m.tp, m.fn);
  std::printf("    labeled non-AUI  | %12d %15d\n", m.fp, m.tn);
  std::printf("    precision %.3f   recall %.3f\n", m.precision(), m.recall());
}

}  // namespace darpa::bench
