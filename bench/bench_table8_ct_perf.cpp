// Table VIII — device performance under different cut-off intervals ct.
#include <algorithm>
#include <cstdio>

#include "bench_runtime.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Table VIII — Performance of DARPA under different ct");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");

  std::printf("\n  paper reference:\n");
  std::printf("    ct(ms)  cpu%%   mem(MB)   fps  power(mW)\n");
  std::printf("       50   86.5   4452.53   59    586.92\n");
  std::printf("      100   69.8   4419.69   66    499.55\n");
  std::printf("      200   57.8   4413.85   74    474.12\n");
  std::printf("      300   54.8   4401.12   69    481.50\n");
  std::printf("      400   59.7   4360.52   76    469.96\n");
  std::printf("      500   56.1   4354.63   79    464.85\n");

  std::printf("\n  measured:\n");
  std::printf("    ct(ms)  cpu%%   mem(MB)   fps  power(mW)  analyses/app\n");
  const perf::DeviceModel device;
  for (int ct : {50, 100, 200, 300, 400, 500}) {
    bench::RuntimeOptions options;
    options.appCount = bench::scaled(30, 4);
    // Table VIII sweeps the raw debounce knee; the verdict cache would
    // flatten exactly the workload differences the sweep measures.
    options.darpaConfig.verdictCacheCapacity = 0;
    options.darpaConfig.cutoff = ms(ct);
    // The AS notification delay coalesces events at 200 ms; sweeping ct
    // below that would be masked by it, so the service tunes the delay
    // together with ct (as a deployment would).
    options.darpaConfig.notificationDelay = ms(std::min(ct, 200));
    options.seed = 9000;  // same recorded app population for every ct
    const bench::RuntimeResult result = bench::runSessions(detector, options);
    const Millis window{options.appCount * options.sessionLength.count};
    const perf::PerfMetrics metrics =
        device.withWork(result.fleet.ledger, window);
    std::printf("    %5d   %4.1f   %7.2f   %2.0f    %6.2f   %8.1f\n", ct,
                metrics.cpuPercent, metrics.memoryMb, metrics.frameRate,
                metrics.powerMw,
                static_cast<double>(result.fleet.ledger.counts().analysesRun) /
                    options.appCount);
  }
  std::printf("\n  shape check: cpu/power fall and fps rises as ct grows;\n"
              "  ct=200ms is the knee balancing workload vs coverage (Fig 8).\n");
  return 0;
}
