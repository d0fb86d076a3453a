// DeviceSession — one simulated phone, bundled behind a single handle.
//
// The per-device world the paper's runtime assumes — SimClock, Looper,
// WindowManager, AccessibilityManager, the DarpaService with its WorkLedger
// and ScreenshotVault, plus the synthetic app population (AppSession) and a
// Monkey driver — used to be hand-wired by every bench and example. The
// fleet architecture needs that world to be a value you can make N of, so
// DeviceSession owns the whole stack with the right lifetimes, and the
// Fig.-8 scoring (positive-analysis timeline -> AUI exposure coverage) is
// built in. Its lifecycle is construct -> run -> settle -> release:
//
//  * construct: the constructor builds and wires the phone. Listeners and
//    extra accessibility services go on it before the run.
//  * run: runToCompletion() schedules the workload and plays it to the
//    horizon.
//  * settle: at the horizon the session copies what its readers need (the
//    WorkLedger, events emitted, AUI exposures and coverage, fingerprint
//    walks) into a small record.
//  * release: it then destroys the phone, on the thread that ran it, so a
//    finished session holds its counters, not its view trees, caches and
//    tasks. stats(), ledger() and the scoring accessors read the settled
//    record from then on; system(), service() and app() abort, naming the
//    session, and now() returns the horizon.
//
// Thread ownership: during Fleet::run() a session is confined to the one
// worker thread that claimed it; the worker's start and join are the only
// hand-offs (see the ownership rule in core/work_ledger.h). A standalone
// DeviceSession on one thread is a fleet of size 1, byte-identical to the
// pre-fleet hand-wired harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
    apps::AppProfile profile;
    std::uint64_t appSeed = 1;
    std::uint64_t monkeySeed = 2;
    Millis duration{60'000};  ///< Workload length.
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

  /// Schedules the app session (and monkey) on the looper, runs every
  /// task due within `duration` of now, then settles the session's counts
  /// and releases the phone. Call once: a second call aborts.
  void runToCompletion();

  // --- the phone: from construction until runToCompletion() returns --------
  // Each accessor aborts, naming the session, once the phone is released.
  [[nodiscard]] android::AndroidSystem& system() {
    return phone("system").system;
  }
  [[nodiscard]] core::DarpaService& service() {
    return phone("service").service;
  }
  [[nodiscard]] apps::AppSession& app() { return phone("app").app; }

  /// Forwarded analysis listener (the session keeps its own scoring
  /// listener installed on the service; this one is called after it). Set
  /// it before the run.
  void setAnalysisListener(
      std::function<void(bool isAui, const std::vector<cv::Detection>&)>
          listener) {
    phone("setAnalysisListener").userListener = std::move(listener);
  }

  // --- always readable --------------------------------------------------------
  [[nodiscard]] int id() const { return id_; }
  /// The simulated time; the horizon once the session has run.
  [[nodiscard]] Millis now() const {
    return phone_ != nullptr ? phone_->system.clock.now() : settled_->horizon;
  }
  [[nodiscard]] const core::DarpaStats& stats() const {
    return ledger().counts();
  }
  [[nodiscard]] const core::WorkLedger& ledger() const {
    return phone_ != nullptr ? phone_->service.ledger() : settled_->ledger;
  }

  // --- built-in scoring -----------------------------------------------------
  /// Accessibility events the simulated apps emitted so far.
  [[nodiscard]] std::int64_t eventsEmitted() const;
  /// Verdict-cache probes that walked the view tree (the rest were served
  /// by the window manager's fingerprint memo).
  [[nodiscard]] std::int64_t fingerprintWalks() const;
  [[nodiscard]] std::int64_t auiExposures() const;
  /// Exposures with >= 1 positive verdict while visible (Fig.-8 coverage).
  [[nodiscard]] std::int64_t auisCovered() const;

 private:
  /// The simulated phone, in one heap record, so releasing it frees its
  /// own storage along with the heap behind it. Members tear down in
  /// reverse order: monkey and app first, then the service (its destructor
  /// removes decorations through the still-alive window manager), then the
  /// Android system.
  struct Phone {
    Phone(const cv::Detector& detector, Config sessionConfig);

    Config config;
    android::AndroidSystem system;
    core::DarpaService service;
    apps::AppSession app;
    apps::MonkeyDriver monkey;
    /// Simulated instants of every AUI-positive analysis verdict.
    std::vector<Millis> positiveAnalyses;
    std::function<void(bool, const std::vector<cv::Detection>&)> userListener;
  };

  /// What the readers need once the phone is gone. Allocated at the
  /// horizon, so an unrun session does not carry a second ledger.
  struct Settled {
    core::WorkLedger ledger;
    Millis horizon{0};
    std::int64_t eventsEmitted = 0;
    std::int64_t auiExposures = 0;
    std::int64_t auisCovered = 0;
    std::int64_t fingerprintWalks = 0;
  };

  /// The live phone; aborts, naming the session and `accessor`, once it
  /// has been released.
  [[nodiscard]] Phone& phone(const char* accessor) {
    if (phone_ == nullptr) [[unlikely]] phoneReleased(accessor);
    return *phone_;
  }
  [[noreturn]] void phoneReleased(const char* accessor) const;

  int id_;
  /// Exactly one of the two is set: the phone until the horizon, the
  /// settled record after it.
  std::unique_ptr<Phone> phone_;
  std::unique_ptr<const Settled> settled_;
};

}  // namespace darpa::fleet
