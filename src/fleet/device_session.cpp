#include "fleet/device_session.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace darpa::fleet {
namespace {

/// AUI exposures with >= 1 positive verdict while they were visible.
std::int64_t coveredExposures(const std::vector<apps::AuiExposure>& exposures,
                              const std::vector<Millis>& positives) {
  std::int64_t covered = 0;
  for (const apps::AuiExposure& exposure : exposures) {
    covered += std::any_of(positives.begin(), positives.end(), [&](Millis t) {
      return t >= exposure.shownAt && t < exposure.hiddenAt;
    });
  }
  return covered;
}

}  // namespace

DeviceSession::Phone::Phone(const cv::Detector& detector, Config sessionConfig)
    : config(std::move(sessionConfig)),
      service(detector, config.darpa),
      app(system, config.profile, config.appSeed),
      monkey(system, config.monkeySeed) {
  system.accessibility.connect(service);
  // The scoring listener records the positive-verdict timeline (Fig.-8
  // coverage needs it) and forwards to the harness's listener, exactly
  // where the hand-wired benches used to hook in.
  service.setAnalysisListener(
      [this](bool isAui, const std::vector<cv::Detection>& detections) {
        if (isAui) positiveAnalyses.push_back(system.clock.now());
        if (userListener) userListener(isAui, detections);
      });
}

DeviceSession::DeviceSession(const cv::Detector& detector, Config config)
    : id_(config.id),
      phone_(std::make_unique<Phone>(detector, std::move(config))) {}

DeviceSession::~DeviceSession() = default;

void DeviceSession::runToCompletion() {
  Phone& p = phone("runToCompletion");
  p.app.start(p.config.duration);
  const Millis horizon = p.system.clock.now() + p.config.duration;
  p.monkey.start(horizon, p.config.monkeyMinGapMs, p.config.monkeyMaxGapMs);
  p.system.looper.runUntil(horizon);

  // Settle, then release the phone on this thread: its views go back to
  // this thread's view block cache for the next session it runs.
  settled_ = std::make_unique<const Settled>(Settled{
      .ledger = p.service.ledger(),
      .horizon = p.system.clock.now(),
      .eventsEmitted = p.system.accessibility.totalEmitted(),
      .auiExposures = static_cast<std::int64_t>(p.app.exposures().size()),
      .auisCovered = coveredExposures(p.app.exposures(), p.positiveAnalyses),
      .fingerprintWalks = p.system.windowManager.fingerprintWalks(),
  });
  phone_.reset();
}

std::int64_t DeviceSession::eventsEmitted() const {
  return phone_ != nullptr ? phone_->system.accessibility.totalEmitted()
                           : settled_->eventsEmitted;
}

std::int64_t DeviceSession::fingerprintWalks() const {
  return phone_ != nullptr ? phone_->system.windowManager.fingerprintWalks()
                           : settled_->fingerprintWalks;
}

std::int64_t DeviceSession::auiExposures() const {
  return phone_ != nullptr
             ? static_cast<std::int64_t>(phone_->app.exposures().size())
             : settled_->auiExposures;
}

std::int64_t DeviceSession::auisCovered() const {
  return phone_ != nullptr ? coveredExposures(phone_->app.exposures(),
                                              phone_->positiveAnalyses)
                           : settled_->auisCovered;
}

void DeviceSession::phoneReleased(const char* accessor) const {
  std::fprintf(stderr,
               "DeviceSession %d: %s() after runToCompletion() released the "
               "phone at the horizon\n",
               id_, accessor);
  std::abort();
}

}  // namespace darpa::fleet
