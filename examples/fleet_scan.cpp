// Example: fleet-scale scanning with the work-stealing scheduler.
//
// One DARPA deployment rarely watches one phone: a market operator or a
// research fleet runs many simulated device sessions against one shared
// detector. This example runs 8 sessions on 4 worker threads; each detect
// runs synchronously on the worker advancing its session, as on one phone.
// It prints the merged fleet snapshot, which is identical for any worker
// count, and the scheduler's steals and p99 session finish time, which
// depend on thread timing.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cv/one_stage.h"
#include "dataset/dataset.h"
#include "fleet/fleet.h"

using namespace darpa;

int main() {
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 240;
  dataConfig.seed = 7;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);
  cv::TrainConfig trainConfig;
  trainConfig.epochs = 14;
  trainConfig.benignImages = 60;
  std::printf("training detector...\n");
  const cv::OneStageDetector detector =
      cv::OneStageDetector::train(data, cv::OneStageConfig{}, trainConfig);

  fleet::FleetConfig config;
  config.sessions = 8;
  config.workers = 4;       // sessions advance on 4 threads
  config.epoch = ms(1000);  // slice quantum of the scheduler
  config.duration = ms(30'000);
  std::printf("running %d sessions x %lld simulated ms on %d workers...\n",
              config.sessions, static_cast<long long>(config.duration.count),
              config.workers);

  fleet::Fleet fleet(detector, config);
  fleet.run();

  const fleet::FleetSnapshot snap = fleet.snapshot();
  std::printf("\nfleet snapshot (%d sessions, %lld ms simulated each):\n",
              snap.sessions, static_cast<long long>(snap.simTime.count));
  std::printf("  events received     %lld\n",
              static_cast<long long>(snap.stats.eventsReceived));
  std::printf("  analyses run        %lld (verdict-cache hits %lld)\n",
              static_cast<long long>(snap.stats.analysesRun),
              static_cast<long long>(snap.stats.verdictCacheHits));
  std::printf("  AUIs flagged        %lld\n",
              static_cast<long long>(snap.stats.auisFlagged));
  std::printf("  decorations drawn   %lld\n",
              static_cast<long long>(snap.stats.decorationsDrawn));
  std::printf("  AUI exposures       %lld, covered %lld\n",
              static_cast<long long>(snap.auiExposures),
              static_cast<long long>(snap.auisCovered));
  std::printf("  modeled CPU         %.1f ms total, detect %.1f ms\n",
              snap.ledger.totalCpuMs(),
              snap.ledger.tally(core::Stage::kDetect).cpuMs);

  const fleet::SchedulerMetrics& scheduler = *fleet.schedulerMetrics();
  std::vector<double> finish = scheduler.finishWallMs;
  std::sort(finish.begin(), finish.end());
  const std::size_t p99 = std::min(
      finish.size() - 1, static_cast<std::size_t>(0.99 * finish.size()));
  std::printf("\nscheduler: %lld slices, %lld steals, p99 session finish "
              "%.1f ms wall\n",
              static_cast<long long>(scheduler.slicesRun),
              static_cast<long long>(scheduler.steals), finish[p99]);
  std::printf("the snapshot is identical for any worker count; steals and "
              "finish times are not.\n");
  return 0;
}
