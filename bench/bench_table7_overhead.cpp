// Table VII — performance overhead of DARPA, decomposed by component
// (UI monitoring, AUI detection, UI decoration) over 100 one-minute app
// sessions on the simulated device. All accounting flows through the
// WorkLedger the pipeline prices as it runs: the per-stage decomposition
// below is the same record the device model folds into Table VII's rows.
#include <cstdio>

#include "bench_runtime.h"

using namespace darpa;

namespace {
void printPerfRow(const char* name, const perf::PerfMetrics& m,
                  const perf::PerfMetrics& base) {
  std::printf("  %-42s %6.2f%% (%+5.2f%%)  %8.2fMB (%+6.2f)  %5.1f fps (%+5.1f)"
              "  %7.2f mW (%+6.2f)\n",
              name, m.cpuPercent, m.cpuPercent - base.cpuPercent, m.memoryMb,
              m.memoryMb - base.memoryMb, m.frameRate,
              m.frameRate - base.frameRate, m.powerMw, m.powerMw - base.powerMw);
}

void printStageTable(const core::WorkLedger& ledger, int appCount) {
  std::printf("\n  per-stage work (totals over %d app-minutes):\n", appCount);
  std::printf("    %-12s %10s %10s %14s %12s\n", "stage", "runs", "skips",
              "cpu-ms", "share");
  const double total = ledger.totalCpuMs();
  for (const core::Stage stage : core::kAllStages) {
    const core::StageTally& t = ledger.tally(stage);
    std::printf("    %-12s %10lld %10lld %14.1f %11.1f%%\n",
                std::string(core::stageName(stage)).c_str(),
                static_cast<long long>(t.runs),
                static_cast<long long>(t.skips), t.cpuMs,
                total > 0.0 ? 100.0 * t.cpuMs / total : 0.0);
  }
}
}  // namespace

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Table VII — Performance overhead of DARPA");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");

  bench::RuntimeOptions options;
  options.appCount = bench::scaled(100, 8);
  // Paper rows are measured with the verdict cache off: Table VII's device
  // ran every analysis in full, so the comparable configuration must too.
  options.darpaConfig.verdictCacheCapacity = 0;
  const bench::RuntimeResult result = bench::runSessions(detector, options);
  const core::WorkLedger& ledger = result.fleet.ledger;

  const perf::DeviceModel device;
  const perf::PerfMetrics base = device.baseline();
  // One ledger spans every session, so the model's window is the total
  // monitored time: appCount one-minute sessions.
  const Millis window{options.appCount * options.sessionLength.count};

  std::printf("\n  paper reference (avg over 100 apps):\n");
  std::printf("    Baseline                55.22%%  4291.96MB  81fps  443.85mW\n");
  std::printf("    + UI monitoring         55.91%%  4352.21MB  79fps  451.88mW\n");
  std::printf("    + AUI detection         57.11%%  4407.56MB  78fps  469.63mW\n");
  std::printf("    DARPA (all components)  57.76%%  4413.85MB  74fps  474.12mW\n");
  std::printf("    Total overhead          +4.6%%cpu +2.8%%mem  -8.6%%fps +6.8%%power\n");

  printStageTable(ledger, options.appCount);

  std::printf("\n  measured (device model over the ledger):\n");
  printPerfRow("Baseline (w/o DARPA)", base, base);
  printPerfRow("Baseline + UI monitoring",
               device.withWork(ledger, window, true, false, false), base);
  printPerfRow("Baseline + monitoring + AUI detection",
               device.withWork(ledger, window, true, true, false), base);
  const perf::PerfMetrics full = device.withWork(ledger, window);
  printPerfRow("DARPA (monitoring + detection + decoration)", full, base);

  std::printf("\n  total overhead: cpu %+.1f%%  mem %+.1f%%  fps %+.1f%%  "
              "power %+.1f%%  (paper: +4.6 / +2.8 / -8.6 / +6.8)\n",
              100.0 * (full.cpuPercent - base.cpuPercent) / base.cpuPercent,
              100.0 * (full.memoryMb - base.memoryMb) / base.memoryMb,
              100.0 * (full.frameRate - base.frameRate) / base.frameRate,
              100.0 * (full.powerMw - base.powerMw) / base.powerMw);

  // Beyond the paper: the same workload with the screen-fingerprint verdict
  // cache enabled (the default shipping configuration).
  bench::RuntimeOptions cachedOptions = options;
  cachedOptions.darpaConfig.verdictCacheCapacity = 32;
  const bench::RuntimeResult cachedResult =
      bench::runSessions(detector, cachedOptions);
  const core::WorkLedger& cached = cachedResult.fleet.ledger;
  const perf::PerfMetrics fullCached = device.withWork(cached, window);
  const double hits = static_cast<double>(cached.cacheHits());
  const double probes = hits + static_cast<double>(cached.cacheMisses());
  std::printf("\n  with verdict cache (capacity 32, beyond the paper):\n");
  printPerfRow("DARPA + verdict cache", fullCached, base);
  std::printf("    cache hit rate %.1f%% (%lld/%lld)   analysis cpu "
              "%.1fms -> %.1fms (%+.1f%%)\n",
              probes > 0.0 ? 100.0 * hits / probes : 0.0,
              static_cast<long long>(cached.cacheHits()),
              static_cast<long long>(probes),
              ledger.analysisCpuMs(), cached.analysisCpuMs(),
              ledger.analysisCpuMs() > 0.0
                  ? 100.0 * (cached.analysisCpuMs() - ledger.analysisCpuMs()) /
                        ledger.analysisCpuMs()
                  : 0.0);
  return 0;
}
