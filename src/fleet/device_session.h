// DeviceSession — one simulated phone, bundled behind a single handle.
//
// The per-device world the paper's runtime assumes — SimClock, Looper,
// WindowManager, AccessibilityManager, the DarpaService with its WorkLedger
// and ScreenshotVault, plus the synthetic app population (AppSession) and a
// Monkey driver — used to be hand-wired by every bench and example. The
// fleet architecture needs that world to be a value you can make N of, so
// DeviceSession owns the whole stack with the right lifetimes:
// construction wires it, runToCompletion() schedules the workload and plays
// it to the end, and the scoring that bench_runtime.h used to do inline
// (positive-analysis timeline -> AUI exposure coverage) is built in.
//
// Thread ownership: during Fleet::run() a session is confined to the one
// worker thread that claimed it; the worker's start and join are the only
// hand-offs (see the ownership rule in core/work_ledger.h). A standalone
// DeviceSession on one thread is a fleet of size 1, byte-identical to the
// pre-fleet hand-wired harness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "android/system.h"
#include "apps/app_model.h"
#include "core/darpa_service.h"
#include "util/clock.h"

namespace darpa::fleet {

class DeviceSession {
 public:
  struct Config {
    int id = 0;  ///< Fleet-unique session index.
    core::DarpaConfig darpa;
    android::WindowManager::Config window;
    apps::AppProfile profile;
    std::uint64_t appSeed = 1;
    std::uint64_t monkeySeed = 2;
    Millis duration{60'000};  ///< Workload length.
    bool monkey = true;
    /// Human-paced exploration (a tap every 1.5-4 s by default): each tap
    /// resets the ct timer, so an aggressive monkey would just multiply
    /// the analyzed-screenshot count.
    int monkeyMinGapMs = 1500;
    int monkeyMaxGapMs = 4000;
  };

  /// The detector is borrowed and must outlive the session (fleets share
  /// one across every session).
  DeviceSession(const cv::Detector& detector, Config config);
  ~DeviceSession();

  DeviceSession(const DeviceSession&) = delete;
  DeviceSession& operator=(const DeviceSession&) = delete;

  /// Schedules the app session (and monkey) on the looper, then runs every
  /// task due within `duration` of now and leaves the clock at that
  /// horizon. Call once.
  void runToCompletion();

  // --- access ---------------------------------------------------------------
  [[nodiscard]] int id() const { return config_.id; }
  [[nodiscard]] android::AndroidSystem& system() { return system_; }
  [[nodiscard]] core::DarpaService& service() { return service_; }
  [[nodiscard]] const core::DarpaService& service() const { return service_; }
  [[nodiscard]] apps::AppSession& app() { return app_; }
  [[nodiscard]] Millis now() const { return system_.clock.now(); }
  [[nodiscard]] const core::DarpaStats& stats() const {
    return service_.stats();
  }
  [[nodiscard]] const core::WorkLedger& ledger() const {
    return service_.ledger();
  }

  /// Forwarded analysis listener (the session keeps its own scoring
  /// listener installed on the service; this one is called after it).
  void setAnalysisListener(
      std::function<void(bool isAui, const std::vector<cv::Detection>&)>
          listener) {
    userListener_ = std::move(listener);
  }

  // --- built-in scoring -----------------------------------------------------
  /// Simulated instants of every AUI-positive analysis verdict.
  [[nodiscard]] const std::vector<Millis>& positiveAnalyses() const {
    return positiveAnalyses_;
  }
  /// Accessibility events the simulated apps emitted so far.
  [[nodiscard]] std::int64_t eventsEmitted() const {
    return system_.accessibility.totalEmitted();
  }
  /// Verdict-cache probes that walked the view tree (the rest were served
  /// by the window manager's fingerprint memo).
  [[nodiscard]] std::int64_t fingerprintWalks() const {
    return system_.windowManager.fingerprintWalks();
  }
  [[nodiscard]] std::int64_t auiExposures() const {
    return static_cast<std::int64_t>(app_.exposures().size());
  }
  /// Exposures with >= 1 positive verdict while visible (Fig.-8 coverage).
  [[nodiscard]] std::int64_t auisCovered() const;

 private:
  Config config_;
  android::AndroidSystem system_;
  core::DarpaService service_;
  apps::AppSession app_;
  apps::MonkeyDriver monkey_;
  std::vector<Millis> positiveAnalyses_;
  std::function<void(bool, const std::vector<cv::Detection>&)> userListener_;
};

}  // namespace darpa::fleet
