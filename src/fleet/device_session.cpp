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

DeviceSession::Phone::Phone(const cv::Detector& detector, Config sessionConfig,
                            Listener listener)
    : config(std::move(sessionConfig)),
      service(detector, config.darpa),
      app(system, config.profile, config.appSeed),
      monkey(system, config.monkeySeed),
      userListener(std::move(listener)) {
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
      detector_(&detector),
      blueprint_(std::make_unique<Blueprint>(
          Blueprint{.config = std::move(config), .listener = {}})) {}

DeviceSession::~DeviceSession() = default;

DeviceSession::Phone& DeviceSession::buildPhone(const char* accessor) {
  if (blueprint_ == nullptr) phoneReleased(accessor);
  phone_ = std::make_unique<Phone>(*detector_, std::move(blueprint_->config),
                                   std::move(blueprint_->listener));
  blueprint_.reset();
  return *phone_;
}

void DeviceSession::setAnalysisListener(Listener listener) {
  if (blueprint_ != nullptr) {
    blueprint_->listener = std::move(listener);
  } else {
    phone("setAnalysisListener").userListener = std::move(listener);
  }
}

Millis DeviceSession::now() const {
  if (phone_ != nullptr) return phone_->system.clock.now();
  return settled_ != nullptr ? settled_->horizon : Millis{0};
}

const core::WorkLedger& DeviceSession::ledger() const {
  if (phone_ != nullptr) return phone_->service.ledger();
  if (settled_ != nullptr) return settled_->ledger;
  static const core::WorkLedger kUnbuilt;
  return kUnbuilt;
}

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

// The scoring counts: the live phone's, the settled record's, or a fresh
// phone's zeros before the build.

std::int64_t DeviceSession::eventsEmitted() const {
  if (phone_ != nullptr) return phone_->system.accessibility.totalEmitted();
  return settled_ != nullptr ? settled_->eventsEmitted : 0;
}

std::int64_t DeviceSession::fingerprintWalks() const {
  if (phone_ != nullptr) return phone_->system.windowManager.fingerprintWalks();
  return settled_ != nullptr ? settled_->fingerprintWalks : 0;
}

std::int64_t DeviceSession::auiExposures() const {
  if (phone_ != nullptr) {
    return static_cast<std::int64_t>(phone_->app.exposures().size());
  }
  return settled_ != nullptr ? settled_->auiExposures : 0;
}

std::int64_t DeviceSession::auisCovered() const {
  if (phone_ != nullptr) {
    return coveredExposures(phone_->app.exposures(), phone_->positiveAnalyses);
  }
  return settled_ != nullptr ? settled_->auisCovered : 0;
}

void DeviceSession::phoneReleased(const char* accessor) const {
  std::fprintf(stderr,
               "DeviceSession %d: %s() after runToCompletion() released the "
               "phone at the horizon\n",
               id_, accessor);
  std::abort();
}

}  // namespace darpa::fleet
