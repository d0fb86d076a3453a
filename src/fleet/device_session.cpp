#include "fleet/device_session.h"

#include <algorithm>

namespace darpa::fleet {

DeviceSession::DeviceSession(const cv::Detector& detector, Config config)
    : config_(std::move(config)),
      service_(detector, config_.darpa),
      app_(system_, config_.profile, config_.appSeed),
      monkey_(system_, config_.monkeySeed) {
  system_.accessibility.connect(service_);
  // The scoring listener records the positive-verdict timeline (Fig.-8
  // coverage needs it) and forwards to the harness's listener, exactly
  // where the hand-wired benches used to hook in.
  service_.setAnalysisListener(
      [this](bool isAui, const std::vector<cv::Detection>& detections) {
        if (isAui) positiveAnalyses_.push_back(system_.clock.now());
        if (userListener_) userListener_(isAui, detections);
      });
}

// Members tear down in reverse order: monkey and app first, then the
// service (its destructor removes decorations through the still-alive
// window manager), then the Android system.
DeviceSession::~DeviceSession() = default;

void DeviceSession::runToCompletion() {
  app_.start(config_.duration);
  const Millis horizon = system_.clock.now() + config_.duration;
  monkey_.start(horizon, config_.monkeyMinGapMs, config_.monkeyMaxGapMs);
  system_.looper.runUntil(horizon);
}

std::int64_t DeviceSession::auisCovered() const {
  std::int64_t covered = 0;
  for (const apps::AuiExposure& exposure : app_.exposures()) {
    const bool hit = std::any_of(
        positiveAnalyses_.begin(), positiveAnalyses_.end(), [&](Millis t) {
          return t >= exposure.shownAt && t < exposure.hiddenAt;
        });
    covered += hit;
  }
  return covered;
}

}  // namespace darpa::fleet
