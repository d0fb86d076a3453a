#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "apps/app_model.h"
#include "util/clock.h"
#include "util/rng.h"

namespace darpa::fleet {

Fleet::Fleet(const cv::Detector& detector, FleetConfig config)
    : config_(std::move(config)) {
  if (config_.sessions < 1) config_.sessions = 1;
  if (config_.workers < 1) config_.workers = 1;

  if (config_.sharedVerdictTier) {
    tier_ = std::make_unique<core::SharedVerdictTier>();
  }

  // Per-session draws from one seeded stream, in session order: profile,
  // then app seed, then monkey seed.
  Rng rng(config_.seed);
  sessions_.reserve(static_cast<std::size_t>(config_.sessions));
  for (int i = 0; i < config_.sessions; ++i) {
    DeviceSession::Config session;
    session.id = i;
    session.darpa = config_.darpa;
    session.profile =
        apps::randomAppProfile(config_.packagePrefix + std::to_string(i), rng);
    session.appSeed = rng.next();
    session.monkeySeed = rng.next();
    session.duration = config_.duration;
    if (config_.sessionTweak) config_.sessionTweak(i, session);
    // Fleet-owned wiring, re-asserted after the tweak: the identity and
    // plumbing fields are not the hook's to change.
    session.id = i;
    session.darpa.verdictTier = tier_.get();
    sessions_.push_back(
        std::make_unique<DeviceSession>(detector, std::move(session)));
  }
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
  const int n = static_cast<int>(sessions_.size());
  metrics_.finishWallMs.assign(sessions_.size(), 0.0);
  // Finish times are wall-clock observability (the straggler tail), never
  // a digest axis.
  // detlint: begin-allow(wall-clock-in-digest-path) observability axis only
  const double startWall = wallMicros();
  std::atomic<int> nextId{0};
  const auto work = [&] {
    for (int id = nextId++; id < n; id = nextId++) {
      const auto slot = static_cast<std::size_t>(id);
      sessions_[slot]->runToCompletion();
      metrics_.finishWallMs[slot] = (wallMicros() - startWall) / 1000.0;
    }
  };
  // detlint: end-allow(wall-clock-in-digest-path)

  const int workers = std::min(config_.workers, n);
  if (workers == 1) {
    work();
  } else {
    // Every thread is joined when `threads` goes out of scope, also when
    // starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(work);
  }
  now_ = config_.duration;
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.sessions = static_cast<int>(sessions_.size());
  snap.simTime = now_;
  // Ascending session id: the fixed merge order keeps the double sums
  // bit-identical for any worker count.
  for (const auto& session : sessions_) {
    snap.ledger += session->ledger();
    snap.eventsEmitted += session->eventsEmitted();
    snap.auiExposures += session->auiExposures();
    snap.auisCovered += session->auisCovered();
    snap.fingerprintWalks += session->fingerprintWalks();
  }
  snap.stats = snap.ledger.counts();
  if (tier_ != nullptr) snap.verdictTier = tier_->stats();
  return snap;
}

}  // namespace darpa::fleet
