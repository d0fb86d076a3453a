// The paper-facing output digest of a fleet run: the Fig.-8 counts, the
// session counts, the merged ledger and the Table VII device metrics,
// fixed-point formatted so comparisons are exact string equality, not
// epsilon tolerance. FleetSchedulerTest, SharedVerdictTierTest and
// bench_fleet_throughput compare it across worker counts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "fleet/fleet.h"
#include "perf/device_model.h"

namespace darpa::fleet {

inline std::string digestOf(const FleetSnapshot& snap) {
  const perf::DeviceModel device;
  const Millis window{static_cast<std::int64_t>(snap.sessions) *
                      snap.simTime.count};
  const perf::PerfMetrics perf = device.withWork(snap.ledger, window);
  const core::DarpaStats& counts = snap.ledger.counts();
  const auto n = [](std::int64_t v) { return static_cast<long long>(v); };

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fig8: analyses=%lld events=%lld exposures=%lld covered=%lld\n"
      "stats: shots=%lld flagged=%lld decorated=%lld bypass=%lld lint=%lld "
      "lintskip=%lld cachehits=%lld tierhits=%lld anchors=%lld\n"
      "ledger: cpuMs=%.6f cacheHits=%lld cacheMisses=%lld "
      "peakFrameBytes=%lld\n"
      "table7: cpu=%.4f mem=%.4f fps=%.4f power=%.4f\n",
      n(counts.analysesRun), n(snap.eventsEmitted), n(snap.auiExposures),
      n(snap.auisCovered), n(counts.screenshotsTaken),
      n(counts.auisFlagged), n(counts.decorationsDrawn),
      n(counts.bypassClicks), n(counts.lintRuns),
      n(counts.cvSkippedByLint), n(counts.verdictCacheHits),
      n(counts.verdictTierHits), n(counts.anchorMeasurements),
      snap.ledger.totalCpuMs(), n(snap.ledger.cacheHits()),
      n(snap.ledger.cacheMisses()), n(snap.ledger.peakFrameBytes()),
      perf.cpuPercent, perf.memoryMb, perf.frameRate, perf.powerMw);
  return buf;
}

}  // namespace darpa::fleet
