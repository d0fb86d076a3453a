// Example: offline market scan with the static lint pass — no detector,
// no screenshots, no pixels.
//
// The run-time pipeline needs a trained CV model; a market operator
// triaging thousands of submitted APKs does not want to replay every one
// of them through a GPU. This driver runs Monkey sessions against a
// population of synthetic apps and audits nothing but the ADB-style view
// hierarchy dumps: every 400 ms of simulated time the top window's dump
// goes through analysis::LintEngine, and the merged verdicts are scored
// against the sessions' AUI-exposure ground truth. Apps are ranked by
// lint pressure, with per-rule firing counts showing *why* each app was
// flagged — the structured-diagnostic output a review queue needs.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/app_model.h"

using namespace darpa;

int main() {
  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  std::printf("static market scan: 6 lint rules, no CV model in the loop\n");

  struct AppReport {
    std::string package;
    int screensLinted = 0;
    int screensFlagged = 0;
    int auiExposures = 0;
    int exposuresCaught = 0;  ///< Exposures flagged by >= 1 lint pass.
    double maxScore = 0.0;
    bool ghostUpo = false;  ///< Contrast rule saw a near-invisible option.
  };
  std::vector<AppReport> reports;
  std::map<std::string, int> ruleFirings;

  Rng rng(909);
  constexpr int kApps = 24;
  constexpr Millis kSessionLength{60'000};
  constexpr Millis kSampleEvery{400};
  std::printf("auditing %d apps, 1 Monkey-minute each, sampling every %lld ms"
              "...\n\n", kApps, static_cast<long long>(kSampleEvery.count));

  for (int i = 0; i < kApps; ++i) {
    android::AndroidSystem device;
    AppReport report;
    report.package = "com.market.app" + std::to_string(i);
    apps::AppSession session(device,
                             apps::randomAppProfile(report.package, rng),
                             rng.next());
    apps::MonkeyDriver monkey(device, rng.next());

    session.start(kSessionLength);
    monkey.start(device.clock.now() + kSessionLength);

    // Step the looper in sampling-interval increments and lint the top
    // window after each step; exposuresCaught is filled per exposure below.
    std::vector<Millis> flaggedAt;
    const Millis end = device.clock.now() + kSessionLength;
    while (device.looper.now() < end) {
      const Millis next = std::min(device.looper.now() + kSampleEvery, end);
      device.looper.runUntil(next);
      const analysis::LintReport lint = engine.run(
          device.windowManager.dumpTopWindow(),
          device.windowManager.config().screenSize);
      ++report.screensLinted;
      report.maxScore = std::max(report.maxScore, lint.verdict.score);
      if (lint.verdict.isAui) {
        ++report.screensFlagged;
        flaggedAt.push_back(device.looper.now());
        for (const analysis::LintFinding& finding : lint.findings) {
          ++ruleFirings[finding.ruleId];
          if (finding.ruleId == analysis::kContrastAsymmetryId &&
              finding.severity == analysis::Severity::kError) {
            report.ghostUpo = true;
          }
        }
      }
    }

    report.auiExposures = static_cast<int>(session.exposures().size());
    for (const apps::AuiExposure& exposure : session.exposures()) {
      const bool caught = std::any_of(
          flaggedAt.begin(), flaggedAt.end(), [&](Millis t) {
            return t >= exposure.shownAt && t < exposure.hiddenAt;
          });
      report.exposuresCaught += caught;
    }
    reports.push_back(report);
  }

  std::sort(reports.begin(), reports.end(),
            [](const AppReport& a, const AppReport& b) {
              return a.screensFlagged > b.screensFlagged;
            });

  int totalExposures = 0;
  int totalCaught = 0;
  std::printf("  %-22s %8s %9s %10s %9s %s\n", "package", "linted", "flagged",
              "AUIs shown", "caught", "notes");
  for (const AppReport& report : reports) {
    totalExposures += report.auiExposures;
    totalCaught += report.exposuresCaught;
    std::printf("  %-22s %8d %9d %10d %7d/%-2d %s\n", report.package.c_str(),
                report.screensLinted, report.screensFlagged,
                report.auiExposures, report.exposuresCaught,
                report.auiExposures,
                report.ghostUpo ? "ghost escape option" : "");
  }

  std::printf("\n  exposure coverage, lint only: %d / %d (%.1f%%)\n",
              totalCaught, totalExposures,
              totalExposures == 0 ? 0.0
                                  : 100.0 * totalCaught / totalExposures);
  std::printf("\n  rule firings on flagged screens:\n");
  for (const auto& [rule, count] : ruleFirings) {
    std::printf("    %-26s %6d\n", rule.c_str(), count);
  }
  std::printf("\napps with lint pressure go to the manual-review queue; the\n"
              "structured findings (rule, view path, box) tell the reviewer\n"
              "where to look before an emulator is ever booted.\n");
  return 0;
}
