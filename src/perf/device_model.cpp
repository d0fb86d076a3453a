#include "perf/device_model.h"

#include <algorithm>
#include <ostream>

namespace darpa::perf {

std::ostream& operator<<(std::ostream& os, const PerfMetrics& m) {
  return os << "cpu=" << m.cpuPercent << "% mem=" << m.memoryMb
            << "MB fps=" << m.frameRate << " power=" << m.powerMw << "mW";
}

PerfMetrics DeviceModel::baseline() const {
  return PerfMetrics{config_.baseCpuPercent, config_.baseMemoryMb,
                     config_.baseFrameRate, config_.basePowerMw};
}

PerfMetrics DeviceModel::withWork(const core::WorkLedger& ledger,
                                  Millis window, bool monitoring,
                                  bool detection, bool decoration) const {
  using core::Stage;
  const double windowMs =
      std::max<double>(static_cast<double>(window.count), 1.0);

  double cpuMs = 0.0;
  double memMb = 0.0;
  double powerExtra = 0.0;
  double fpsExtra = 0.0;

  if (monitoring) {
    cpuMs += ledger.tally(Stage::kEvent).cpuMs;
    cpuMs += ledger.tally(Stage::kLint).cpuMs;
    cpuMs += ledger.tally(Stage::kScreenshot).cpuMs;
    cpuMs += ledger.tally(Stage::kVerdict).cpuMs;  // merge + cache lookups
    memMb += config_.monitoringMemMb;
    // Working set of the perception data plane: one screen frame held at a
    // time per session (§IV-E). The ledger reports the peak single-frame
    // footprint, a property of the screen geometry alone.
    memMb += static_cast<double>(ledger.peakFrameBytes()) / (1024.0 * 1024.0);
    const auto screenshots =
        static_cast<double>(ledger.tally(Stage::kScreenshot).runs);
    powerExtra +=
        screenshots * config_.screenshotPowerMw * (60000.0 / windowMs);
    // Screenshot capture stalls the render thread for a frame or two.
    fpsExtra +=
        (1000.0 * screenshots / windowMs) * config_.screenshotFpsPerPerSec;
  }
  if (detection) {
    cpuMs += ledger.tally(Stage::kDetect).cpuMs;
    memMb += config_.detectionMemMb;
  }
  if (decoration) {
    cpuMs += ledger.tally(Stage::kAct).cpuMs;
    memMb += config_.decorationMemMb;
    if (ledger.decorations() > 0) fpsExtra += config_.decorationFpsCost;
  }

  const double extraCpuPercent = 100.0 * cpuMs / windowMs;
  PerfMetrics metrics = baseline();
  metrics.cpuPercent =
      std::min(metrics.cpuPercent + extraCpuPercent, 100.0 * 8.0);  // 8 cores
  metrics.memoryMb += memMb;
  // UI-thread contention: extra CPU steals frame-deadline headroom, plus
  // the fixed capture/composition costs above.
  metrics.frameRate = std::max(
      metrics.frameRate - extraCpuPercent * config_.fpsPerCpuPercent -
          fpsExtra,
      15.0);
  metrics.powerMw +=
      extraCpuPercent * config_.powerPerCpuPercent + powerExtra;
  return metrics;
}

}  // namespace darpa::perf
