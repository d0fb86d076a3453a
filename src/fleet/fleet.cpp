#include "fleet/fleet.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/app_model.h"
#include "util/rng.h"

namespace darpa::fleet {

Fleet::Fleet(const cv::Detector& detector, FleetConfig config)
    : config_(std::move(config)) {
  if (config_.sessions < 1) config_.sessions = 1;
  if (config_.workers < 1) config_.workers = 1;
  if (config_.epoch <= Millis{0}) config_.epoch = Millis{1000};

  if (config_.sharedVerdictTier) {
    tier_ = std::make_unique<core::SharedVerdictTier>();
  }

  // Session seeding mirrors bench_runtime.h's per-app draw order (profile,
  // then app seed, then monkey seed) so a fleet of size 1 replays the
  // single-device benches exactly.
  Rng rng(config_.seed);
  sessions_.reserve(static_cast<std::size_t>(config_.sessions));
  for (int i = 0; i < config_.sessions; ++i) {
    DeviceSession::Config session;
    session.id = i;
    session.darpa = config_.darpa;
    session.window = config_.window;
    session.profile =
        apps::randomAppProfile(config_.packagePrefix + std::to_string(i), rng);
    session.appSeed = rng.next();
    session.monkeySeed = rng.next();
    session.duration = config_.duration;
    session.monkey = config_.monkey;
    if (config_.sessionTweak) config_.sessionTweak(i, session);
    // Fleet-owned wiring, re-asserted after the tweak: the identity and
    // plumbing fields are not the hook's to change.
    session.id = i;
    session.darpa.verdictTier = tier_.get();
    sessions_.push_back(
        std::make_unique<DeviceSession>(detector, std::move(session)));
  }

  WorkStealingScheduler::Config sched;
  sched.epoch = config_.epoch;
  sched.duration = config_.duration;
  sched.workers = config_.workers;
  scheduler_ = std::make_unique<WorkStealingScheduler>(sessions_, sched);
}

void Fleet::checkSessionIndex(int i) const {
  if (i >= 0 && i < static_cast<int>(sessions_.size())) return;
  std::fprintf(stderr, "Fleet::session(%d): index out of range [0, %d)\n", i,
               static_cast<int>(sessions_.size()));
  std::abort();
}

void Fleet::run() {
  if (started_) {
    std::fprintf(stderr,
                 "Fleet::run() called twice; a fleet run is single-use\n");
    std::abort();
  }
  started_ = true;
  for (auto& session : sessions_) session->start();
  scheduler_->run();
  now_ = config_.duration;
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.sessions = static_cast<int>(sessions_.size());
  snap.simTime = now_;
  // Ascending session id: the fixed merge order keeps the double sums
  // bit-identical for any worker count.
  for (const auto& session : sessions_) {
    snap.stats += session->stats();
    snap.ledger += session->ledger();
    snap.eventsEmitted += session->eventsEmitted();
    snap.auiExposures += session->auiExposures();
    snap.auisCovered += session->auisCovered();
    snap.fingerprintWalks += session->fingerprintWalks();
  }
  if (tier_ != nullptr) snap.verdictTier = tier_->stats();
  return snap;
}

}  // namespace darpa::fleet
