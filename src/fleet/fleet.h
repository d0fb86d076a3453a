// Fleet — N DeviceSessions, each run to a common simulated horizon by one
// of W worker threads.
//
// The determinism model, in one paragraph: a worker claims a session id
// from one atomic counter and runs that session from 0 to the horizon
// (DeviceSession::runToCompletion), every detect synchronous on that
// worker (DarpaService::analyzeNow), before it claims the next. Sessions
// share no digest-affecting state, so WHO runs a session and WHEN in wall
// clock is irrelevant. A fleet run's aggregated DarpaStats/WorkLedger are
// therefore identical across repeated runs and across worker counts; only
// wall-clock changes. W=1 runs on the calling thread and is the serial
// reference.
//
// Aggregation: per-session ledgers are session-confined (the ownership
// rule in core/work_ledger.h). snapshot() sums them with += on the control
// thread in session-id order once run() has joined its workers, so the
// double summation order is fixed too. perf::DeviceModel consumes the
// roll-up unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detection_executor.h"
#include "core/verdict_tier.h"
#include "fleet/device_session.h"
#include "util/thread_annotations.h"

namespace darpa::fleet {

/// Wall-clock observability for one run. None of it feeds a digest: finish
/// times vary with thread timing; the digest-stable outputs live in the
/// sessions' stats/ledgers.
struct SchedulerMetrics {
  /// Always 0: a worker runs each session it claims to the horizon, so no
  /// session changes hands. Kept because perfbench/main.cpp reads it.
  std::int64_t steals = 0;
  /// Wall-clock ms from run() start to each session's finish, indexed by
  /// session id (the straggler tail: p99 session lag).
  std::vector<double> finishWallMs;
};

struct FleetConfig {
  int sessions = 1;
  /// Worker threads; run() starts min(workers, sessions) of them, and
  /// 1 runs on the calling thread.
  int workers = 1;
  /// Read by nothing: every session runs to `duration` in one pass. Kept
  /// because perfbench/main.cpp sets it.
  Millis epoch{1000};
  Millis duration{60'000};
  std::uint64_t seed = 606;
  core::DarpaConfig darpa;  ///< Per-session service config (verdictTier is
                            ///< overridden by the fleet).
  /// Session i runs app `packagePrefix + i`.
  std::string packagePrefix = "com.fleet.app";
  /// Per-session config hook, applied after the fleet's own seeding and
  /// before the session is built. Lets tests and benches skew individual
  /// sessions (e.g. one deliberately hyperactive straggler). The fleet
  /// re-asserts its own wiring (id, verdict tier) afterwards, so a
  /// tweaked fleet still digests identically across worker counts.
  std::function<void(int, DeviceSession::Config&)> sessionTweak;
  /// Own a fleet-wide SharedVerdictTier (the L2 behind every session's
  /// verdict cache) and point every session at it. Off by default: a
  /// tier-less fleet is byte-identical to the pre-tier build. On, sessions
  /// share verdicts for recurring screens — per-session verdicts are
  /// unchanged, only who pays for them moves, so digests trade
  /// byte-equality for verdict equivalence (see verdict_tier.h).
  bool sharedVerdictTier = false;
};

/// Fleet-wide roll-up.
struct FleetSnapshot {
  int sessions = 0;
  Millis simTime{0};             ///< Simulated time covered per session.
  core::DarpaStats stats;        ///< ledger.counts(), for perfbench/ only.
  core::WorkLedger ledger;       ///< Merged over sessions.
  std::int64_t eventsEmitted = 0;
  std::int64_t auiExposures = 0;
  std::int64_t auisCovered = 0;
  /// Fingerprint probes that walked a view tree (the memo served the rest).
  std::int64_t fingerprintWalks = 0;
  /// Shared L2 counters (zeroed when the tier is off). Observability only
  /// — hit totals depend on cross-session timing, so nothing digest-stable
  /// may consume them.
  core::SharedVerdictTier::Stats verdictTier;
};

class Fleet {
 public:
  /// The detector is borrowed and shared by every session; it must
  /// outlive the fleet and be safe to call from several threads.
  Fleet(const cv::Detector& detector, FleetConfig config);
  /// Stub overload kept for perfbench/main.cpp's defaultInlineExecutor() call.
  Fleet(const cv::Detector& detector, core::DetectionExecutor& /*unused*/,
        FleetConfig config)
      : Fleet(detector, std::move(config)) {}

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drives every session over the whole configured duration: each worker
  /// claims the next unclaimed session id and runs that session to the
  /// horizon, until none is left. Single-use:
  /// a second call aborts (a fleet's sessions have already consumed their
  /// event streams, so "run again" has no meaningful semantics).
  void run();

  [[nodiscard]] int sessionCount() const {
    return static_cast<int>(sessions_.size());
  }
  /// Aborts on an out-of-range index. After run() every session has
  /// released its phone and keeps only its settled counts (DeviceSession).
  [[nodiscard]] DeviceSession& session(int i) {
    checkSessionIndex(i);
    return *sessions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const DeviceSession& session(int i) const {
    checkSessionIndex(i);
    return *sessions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] Millis now() const { return now_; }

  /// Aggregates every session's stats/ledger/coverage: a control-thread
  /// scan in session-id order. Per-session state is session-confined, so
  /// call it only outside run() (before it, or after it returned).
  [[nodiscard]] FleetSnapshot snapshot() const;

  /// Per-session finish wall times; never null, meaningful after run().
  [[nodiscard]] const SchedulerMetrics* schedulerMetrics() const {
    return &metrics_;
  }

  /// The fleet-wide verdict tier, or null when sharedVerdictTier is off.
  [[nodiscard]] core::SharedVerdictTier* verdictTier() { return tier_.get(); }
  [[nodiscard]] const core::SharedVerdictTier* verdictTier() const {
    return tier_.get();
  }

 private:
  void checkSessionIndex(int i) const;  ///< Aborts when out of range.

  FleetConfig config_;
  /// Declared before sessions_: every session's service holds a borrowed
  /// tier pointer, so the tier must outlive all session state.
  std::unique_ptr<core::SharedVerdictTier> tier_;
  /// The vector itself is fixed after construction; each element is
  /// confined to the one worker that claimed it during run(), and to the
  /// control thread outside run() (thread start and join are the
  /// hand-offs).
  std::vector<std::unique_ptr<DeviceSession>> sessions_;
  /// finishWallMs[id] is written only by the worker that ran session id,
  /// and read after run() has joined its workers.
  SchedulerMetrics metrics_ CONFINED_TO("slot id: the worker running id");
  Millis now_ CONFINED_TO("control thread"){0};
  bool started_ CONFINED_TO("control thread") = false;
};

}  // namespace darpa::fleet
