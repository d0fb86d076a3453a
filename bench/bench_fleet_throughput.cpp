// Fleet throughput: screens analyzed per wall-clock second as the fleet
// grows from 1 to 256 simulated device sessions, the 256-session fleet at
// W = 1, 2 and 4 workers, and thousand-session fleets with their peak RSS
// and p50/p99 straggler tail. Every detect runs synchronously on the worker
// running its session. Two sweeps over a shared app population ride
// along: the shared verdict tier off vs on (reported, not gated) and the
// WebView-share stage mix. The W=1 256-session row also reports the share
// of view blocks its thread's view block cache reused, and a walk row per
// screen kind times topWindowFingerprint() per node on fresh windows of
// the shared population's generated screens (reported, not gated). Two
// more rows time SharedVerdictTier::find hits on a populated tier from 1
// and from 4 threads, and read the heap per session of a shared-population
// fleet before its run and at its horizon, by mallinfo2 (both reported,
// not gated).
//
// Gates (exit nonzero on failure), each on an exact or roomy quantity:
//  1. The 256-session digest (fig8 counts, stats, ledger cpuMs, Table VII)
//     is byte-identical at W=1 and W=4.
//  2. Stage mix: at a fully WebView population the lint short-circuit rate
//     falls below the all-native rate and detector runs do not fall.
//  3. Peak RSS of the largest big fleet stays within budget: 128 MB at
//     1,024 sessions (--quick), 512 MB at 16,384 sessions (full mode).
//     A big fleet whose budget exceeds MemAvailable is not built: the
//     bench prints the size, the budget and MemAvailable and exits 1
//     instead of being OOM-killed.
//  4. The W=1 256-session row serves >= 95 % of its view blocks from the
//     view block cache: each session releases its phone at the horizon,
//     so the next one reuses its blocks. One thread's alloc/free sequence
//     is deterministic, so the share is exact for a given build.
//  5. The shared-population tier-off 256-session row walks the view tree
//     on at most 0.4192 fingerprint probes per analysis (0.5055 when the
//     memo held one window): a window keeps its memo while an AUI covers
//     it. Each session's walks follow from its own event stream, so the
//     value is exact at any W.
// Emits every row to BENCH_fleet.json (next to the binary): the fleet rows
// under "samples", the walk rows under "fingerprint_walks", the tier find
// rows under "tier_finds" and the heap per session under "session_heap".
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "android/view.h"
#include "android/window_manager.h"
#include "apps/app_model.h"
#include "apps/screen_generator.h"
#include "bench_common.h"
#include "core/work_ledger.h"
#include "fleet/fleet.h"
#include "fleet_digest.h"
#include "util/rng.h"

namespace darpa::bench {
namespace {

struct Sample {
  int sessions = 0;
  int workers = 0;
  double wallMs = 0.0;
  double screensPerSec = 0.0;
  double sessionsPerSec = 0.0;
  std::int64_t analyses = 0;
  double detectCpuMs = 0.0;     ///< Modeled, fleet-wide.
  double stragglerP50Ms = 0.0;  ///< Median session finish.
  double stragglerP99Ms = 0.0;  ///< Tail session finish.
  double peakRssMb = 0.0;       ///< VmHWM over fleet construction + run.
  /// Fingerprint probes that walked a view tree, per analysis; the
  /// window manager's memo served the others.
  double walksPerAnalysis = 0.0;
  /// Share of view blocks the view block cache served from its free lists
  /// over construction and run, when the fleet ran on the calling thread;
  /// -1 (null in the JSON) when it ran on worker threads, whose counters
  /// end with them.
  double viewBlockReuse = -1.0;
  std::string digest;           ///< Paper-facing outputs (see digestOf).
  // Shared-verdict-tier sweep only (zeros elsewhere):
  bool tiered = false;
  double l2HitRate = 0.0;  ///< hits / (hits + misses).
  std::int64_t l2Hits = 0;
  std::int64_t l2Misses = 0;
  std::int64_t publishes = 0;
};

int fleetWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 8);
}

/// Nearest-rank percentile over an unsorted copy; q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

/// Resets this process's peak-RSS mark (VmHWM) to its current RSS.
void resetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The "<key> <n> kB" field of a /proc file, in MB (0 when unreadable).
double procFieldMb(const char* path, const char* key) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0.0;
  const std::size_t keyLength = std::strlen(key);
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, keyLength) == 0 &&
        std::sscanf(line + keyLength, "%ld", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// This process's peak RSS (VmHWM), in MB.
double peakRssMb() { return procFieldMb("/proc/self/status", "VmHWM:"); }

/// Memory the kernel can still hand out without swapping, in MB.
double memAvailableMb() {
  return procFieldMb("/proc/meminfo", "MemAvailable:");
}

fleet::FleetConfig fleetConfig(int sessions, int workers, Millis duration) {
  fleet::FleetConfig config;
  config.sessions = sessions;
  config.workers = workers;
  config.duration = duration;
  return config;
}

Sample runFleet(const cv::Detector& detector,
                const fleet::FleetConfig& config) {
  resetPeakRss();
  const android::ViewBlockStats blocksBefore = android::viewBlockStats();
  fleet::Fleet fleet(detector, config);
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  const fleet::FleetSnapshot snap = fleet.snapshot();
  const android::ViewBlockStats& blocks = android::viewBlockStats();
  const std::int64_t reused = blocks.reused - blocksBefore.reused;
  const std::int64_t served = reused + blocks.fresh - blocksBefore.fresh;

  Sample sample;
  sample.sessions = config.sessions;
  sample.workers = config.workers;
  sample.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
  sample.analyses = snap.ledger.counts().analysesRun;
  const double seconds = sample.wallMs / 1000.0;
  sample.screensPerSec = seconds <= 0.0 ? 0.0 : sample.analyses / seconds;
  sample.sessionsPerSec = seconds <= 0.0 ? 0.0 : config.sessions / seconds;
  sample.detectCpuMs = snap.ledger.tally(core::Stage::kDetect).cpuMs;
  const fleet::SchedulerMetrics& metrics = *fleet.schedulerMetrics();
  sample.stragglerP50Ms = percentile(metrics.finishWallMs, 0.50);
  sample.stragglerP99Ms = percentile(metrics.finishWallMs, 0.99);
  sample.peakRssMb = peakRssMb();
  sample.walksPerAnalysis =
      sample.analyses == 0 ? 0.0
                           : static_cast<double>(snap.fingerprintWalks) /
                                 static_cast<double>(sample.analyses);
  if (std::min(config.workers, config.sessions) == 1 && served > 0) {
    sample.viewBlockReuse =
        static_cast<double>(reused) / static_cast<double>(served);
  }
  sample.digest = fleet::digestOf(snap);
  sample.tiered = config.sharedVerdictTier;
  sample.l2Hits = snap.verdictTier.hits;
  sample.l2Misses = snap.verdictTier.misses;
  const std::int64_t probes = sample.l2Hits + sample.l2Misses;
  sample.l2HitRate = probes == 0 ? 0.0
                                 : static_cast<double>(sample.l2Hits) /
                                       static_cast<double>(probes);
  sample.publishes = snap.verdictTier.publishes;
  return sample;
}

// ----------------------------------- shared-verdict-tier offered-load sweep

/// A SHARED app population (`apps` distinct apps, session i running app
/// i % apps with the same profile and app seed) with two twists that give
/// a fleet-wide tier real work: AUI churn on a stable base screen (the
/// recurring-fingerprint pattern an L2 serves) and a staggered per-session
/// analysis debounce, so sessions of one app reach each screen at
/// different instants — the late cohorts are served from the tier.
std::function<void(int, fleet::DeviceSession::Config&)> sharedPopulation(
    int apps) {
  struct App {
    apps::AppProfile profile;
    std::uint64_t appSeed;
  };
  auto population = std::make_shared<std::vector<App>>();
  Rng rng(4242);
  for (int a = 0; a < apps; ++a) {
    App app{apps::randomAppProfile("com.shared.app" + std::to_string(a), rng),
            rng.next()};
    app.profile.screenChangeMeanMs = 6000;
    app.profile.auisPerMinute = 40.0;
    app.profile.auiMinVisibleMs = 600;
    app.profile.auiMaxVisibleMs = 1600;
    population->push_back(std::move(app));
  }
  return [population, apps](int i, fleet::DeviceSession::Config& config) {
    const App& app = (*population)[static_cast<std::size_t>(i % apps)];
    config.profile = app.profile;
    config.appSeed = app.appSeed;
    // Stagger WITHIN each app's cohort (i / apps), not across apps: every
    // app's sessions split into eight debounce waves, so only the first
    // wave pays the detector for a new fingerprint and the rest are served
    // from the shared tier once it lands.
    config.darpa.cutoff = ms(200 + 150 * ((i / apps) % 8));
  };
}

/// One shared-population fleet with the tier on or off (off = the
/// who-pays baseline for the same offered load).
Sample runTierFleet(const cv::Detector& detector, int sessions,
                    bool tierEnabled) {
  fleet::FleetConfig config = fleetConfig(sessions, fleetWorkers(), ms(4000));
  config.sessionTweak = sharedPopulation(/*apps=*/8);
  config.sharedVerdictTier = tierEnabled;
  // A deliberately small L1 keeps re-encounters flowing to the shared
  // tier; with the default 32-entry L1 this workload would be absorbed
  // per-session and measure nothing fleet-wide.
  config.darpa.verdictCacheCapacity = 1;
  return runFleet(detector, config);
}

/// One row of the hybrid-population sweep: deterministic stage-mix
/// counters for a shared-population fleet where `webProb` of third-party
/// AUIs deliver through a WebView (virtual nodes, rgba dim overlays that
/// native scrim heuristics cannot see). Everything reported here is on
/// the modeled axis — lint/CV run counts and modeled CPU are functions of
/// the simulated event streams only, so the rows (and the contract on
/// them) are stable across worker counts and host load.
struct HybridSample {
  double webProb = 0.0;
  std::int64_t analyses = 0;
  std::int64_t lintRuns = 0;
  std::int64_t cvSkippedByLint = 0;
  std::int64_t detectRuns = 0;
  double lintCpuMs = 0.0;
  double detectCpuMs = 0.0;
  /// Fraction of lint passes confident enough to short-circuit CV.
  [[nodiscard]] double lintShortCircuitRate() const {
    return lintRuns == 0
               ? 0.0
               : static_cast<double>(cvSkippedByLint) /
                     static_cast<double>(lintRuns);
  }
};

/// Shared-population fleet with a lint prefilter wired into every session
/// and `webProb` of third-party AUIs WebView-hosted. The shared tier stays
/// OFF: its hit counts are cross-session-timing dependent, and this
/// sweep's whole point is a deterministic stage-mix story.
HybridSample runHybridFleet(const cv::Detector& detector,
                            const analysis::LintEngine& lint,
                            double webProb) {
  fleet::FleetConfig config = fleetConfig(64, fleetWorkers(), ms(4000));
  auto base = sharedPopulation(/*apps=*/8);
  config.sessionTweak = [base, webProb,
                         &lint](int i, fleet::DeviceSession::Config& c) {
    base(i, c);
    c.profile.webViewAuiProb = webProb;
    c.darpa.lintPrefilter = &lint;
  };

  fleet::Fleet fleet(detector, config);
  fleet.run();
  const fleet::FleetSnapshot snap = fleet.snapshot();

  HybridSample sample;
  sample.webProb = webProb;
  const core::DarpaStats& counts = snap.ledger.counts();
  sample.analyses = counts.analysesRun;
  sample.lintRuns = counts.lintRuns;
  sample.cvSkippedByLint = counts.cvSkippedByLint;
  sample.detectRuns = snap.ledger.tally(core::Stage::kDetect).runs;
  sample.lintCpuMs = snap.ledger.tally(core::Stage::kLint).cpuMs;
  sample.detectCpuMs = snap.ledger.tally(core::Stage::kDetect).cpuMs;
  return sample;
}

// ------------------------------------------------- fingerprint walk cost

/// topWindowFingerprint()'s cost per node on windows it has never walked,
/// for one screen kind.
struct WalkSample {
  const char* screens = "";
  int walks = 0;              ///< Walks per round.
  double nodesPerWalk = 0.0;  ///< Nodes of one screen's dump, mean.
  double nsPerNode = 0.0;     ///< Fastest round's walk time per node.
};

/// Times topWindowFingerprint() on fresh windows of the screens the shared
/// population's apps show: the same generator laid out for the same app
/// frame, with a fixed seed, benign screens or AUIs. Each round builds the
/// same screens in batches of 16 windows, untimed, then walks each batch
/// under one timer; the fastest of kWalkRounds rounds is reported.
WalkSample timeFingerprintWalks(const char* screens, bool aui) {
  constexpr int kWalkRounds = 7;
  constexpr int kBatch = 16;
  const int walks = scaled(2000, 1000);
  const Rect frame = android::WindowManager().appFrame(false);
  apps::ScreenGenerator::Params params;
  params.frame = {frame.width, frame.height};
  WalkSample sample;
  sample.screens = screens;
  sample.walks = walks;
  double bestNs = 0.0;
  std::int64_t nodes = 0;
  for (int round = 0; round < kWalkRounds; ++round) {
    apps::ScreenGenerator generator(params, 4242);
    double roundNs = 0.0;
    nodes = 0;
    for (int done = 0; done < walks; done += kBatch) {
      std::vector<android::WindowManager> batch(
          static_cast<std::size_t>(std::min(kBatch, walks - done)));
      for (android::WindowManager& wm : batch) {
        apps::GeneratedScreen screen =
            aui ? generator.makeAui(generator.randomSpec())
                : generator.makeBenign();
        wm.showAppWindow("com.shared.app", std::move(screen.root), false);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (const android::WindowManager& wm : batch) {
        static_cast<void>(wm.topWindowFingerprint());  // walks: a fresh window
      }
      const auto t1 = std::chrono::steady_clock::now();
      roundNs += std::chrono::duration<double, std::nano>(t1 - t0).count();
      for (const android::WindowManager& wm : batch) {
        nodes += static_cast<std::int64_t>(wm.dumpTopWindow().size());
      }
    }
    if (round == 0 || roundNs < bestNs) bestNs = roundNs;
  }
  sample.nodesPerWalk = static_cast<double>(nodes) / walks;
  sample.nsPerNode = nodes == 0 ? 0.0 : bestNs / static_cast<double>(nodes);
  std::printf("  %-8s %7d %12.2f %10.2f %10.1f\n", screens, walks,
              sample.nodesPerWalk, sample.nsPerNode,
              sample.nsPerNode * sample.nodesPerWalk);
  std::fflush(stdout);
  return sample;
}

// ------------------------------------------------ tier finds, session heap

/// SharedVerdictTier::find hits from `threads` threads at once.
struct FindSample {
  int threads = 0;
  int records = 0;
  int findsPerThread = 0;
  double nsPerFind = 0.0;  ///< Fastest round's mean over threads.
};

/// Times find() hits on a tier holding 128 records, about what the
/// fleet-shared workload's L2 holds (115-130): one in four an AUI verdict
/// with two detections, the rest empty. Each thread probes every key in
/// turn from its own offset; the fastest of kFindRounds rounds is reported.
FindSample timeTierFinds(int threads) {
  constexpr int kRecords = 128;
  constexpr int kFindRounds = 7;
  const int finds = scaled(400'000, 100'000);
  core::SharedVerdictTier tier;
  Rng rng(77);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < kRecords; ++i) {
    keys.push_back(rng.next());
    core::VerdictCache::Entry record{i % 4 == 0, {}};
    if (record.isAui) {
      record.detections.assign(
          2, cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f});
    }
    tier.publish(keys.back(), std::move(record));
  }
  FindSample sample{threads, kRecords, finds, 0.0};
  for (int round = 0; round < kFindRounds; ++round) {
    std::vector<double> ns(static_cast<std::size_t>(threads), 0.0);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::int64_t> served{0};
    {
      std::vector<std::jthread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          ready.fetch_add(1);
          while (!go.load(std::memory_order_acquire)) {
          }
          std::int64_t hits = 0;
          const auto t0 = std::chrono::steady_clock::now();
          for (int i = 0; i < finds; ++i) {
            hits += tier.find(keys[static_cast<std::size_t>(
                                    (i + 31 * t) % kRecords)])
                        .has_value();
          }
          const auto t1 = std::chrono::steady_clock::now();
          ns[static_cast<std::size_t>(t)] =
              std::chrono::duration<double, std::nano>(t1 - t0).count() /
              finds;
          served.fetch_add(hits);
        });
      }
      while (ready.load() < threads) {
      }
      go.store(true, std::memory_order_release);
    }
    if (served.load() != static_cast<std::int64_t>(threads) * finds) {
      std::printf("  warning: %lld of %lld finds missed\n",
                  static_cast<long long>(
                      static_cast<std::int64_t>(threads) * finds -
                      served.load()),
                  static_cast<long long>(
                      static_cast<std::int64_t>(threads) * finds));
    }
    double mean = 0.0;
    for (const double v : ns) mean += v / threads;
    if (round == 0 || mean < sample.nsPerFind) sample.nsPerFind = mean;
  }
  std::printf("  %-8d %8d %14d %12.1f\n", sample.threads, sample.records,
              sample.findsPerThread, sample.nsPerFind);
  std::fflush(stdout);
  return sample;
}

/// Heap in use, every arena: small chunks plus mmapped ones.
std::int64_t heapInUseBytes() {
  const struct mallinfo2 m = ::mallinfo2();
  return static_cast<std::int64_t>(m.uordblks + m.hblkhd);
}

struct SessionHeapSample {
  int sessions = 0;
  double unbuiltKb = 0.0;   ///< Per session, after construction.
  double finishedKb = 0.0;  ///< Per session, after the run.
};

/// The heap a shared-population fleet with the tier on (the perfbench
/// fleet-shared shape) holds per session once constructed, before any
/// phone is built, and once every session has run and released its phone.
/// The run uses worker threads, whose per-thread caches end with them.
SessionHeapSample measureSessionHeap(const cv::Detector& detector,
                                     int sessions) {
  fleet::FleetConfig config =
      fleetConfig(sessions, fleetWorkers(), ms(scaled(2000, 500)));
  config.sessionTweak = sharedPopulation(/*apps=*/8);
  config.sharedVerdictTier = true;
  const std::int64_t before = heapInUseBytes();
  fleet::Fleet fleet(detector, config);
  const std::int64_t constructed = heapInUseBytes();
  fleet.run();
  const std::int64_t finished = heapInUseBytes();
  SessionHeapSample sample;
  sample.sessions = sessions;
  sample.unbuiltKb =
      static_cast<double>(constructed - before) / 1024.0 / sessions;
  sample.finishedKb =
      static_cast<double>(finished - before) / 1024.0 / sessions;
  std::printf("  %-8d %16.3f %18.3f\n", sample.sessions, sample.unbuiltKb,
              sample.finishedKb);
  std::fflush(stdout);
  return sample;
}

void writeJson(const std::vector<Sample>& samples,
               const std::vector<WalkSample>& walkRows,
               const std::vector<FindSample>& findRows,
               const SessionHeapSample& heap, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"session_heap\": {\"sessions\": %d, "
                  "\"unbuilt_kb_per_session\": %.3f, "
                  "\"finished_kb_per_session\": %.3f},\n",
               heap.sessions, heap.unbuiltKb, heap.finishedKb);
  std::fprintf(f, "  \"tier_finds\": [\n");
  for (std::size_t i = 0; i < findRows.size(); ++i) {
    const FindSample& r = findRows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"records\": %d, "
                 "\"finds_per_thread\": %d, \"l2_find_ns\": %.2f}%s\n",
                 r.threads, r.records, r.findsPerThread, r.nsPerFind,
                 i + 1 < findRows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fingerprint_walks\": [\n");
  for (std::size_t i = 0; i < walkRows.size(); ++i) {
    const WalkSample& w = walkRows[i];
    std::fprintf(f,
                 "    {\"screens\": \"%s\", \"walks\": %d, "
                 "\"nodes_per_walk\": %.2f, "
                 "\"fingerprint_ns_per_node\": %.2f}%s\n",
                 w.screens, w.walks, w.nodesPerWalk, w.nsPerNode,
                 i + 1 < walkRows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"samples\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char reuse[32] = "null";
    if (s.viewBlockReuse >= 0.0) {
      std::snprintf(reuse, sizeof reuse, "%.4f", s.viewBlockReuse);
    }
    std::fprintf(f,
                 "    {\"sessions\": %d, \"workers\": %d, "
                 "\"wall_ms\": %.3f, \"screens_per_sec\": %.3f, "
                 "\"sessions_per_sec\": %.3f, "
                 "\"analyses\": %lld, \"detect_cpu_ms\": %.3f, "
                 "\"straggler_p50_ms\": %.3f, \"straggler_p99_ms\": %.3f, "
                 "\"peak_rss_mb\": %.1f, \"walks_per_analysis\": %.4f, "
                 "\"view_block_reuse\": %s, "
                 "\"tiered\": %s, \"l2_hit_rate\": %.4f, "
                 "\"l2_hits\": %lld, \"l2_misses\": %lld, "
                 "\"publishes\": %lld}%s\n",
                 s.sessions, s.workers, s.wallMs, s.screensPerSec,
                 s.sessionsPerSec, static_cast<long long>(s.analyses),
                 s.detectCpuMs, s.stragglerP50Ms, s.stragglerP99Ms,
                 s.peakRssMb, s.walksPerAnalysis, reuse,
                 s.tiered ? "true" : "false", s.l2HitRate,
                 static_cast<long long>(s.l2Hits),
                 static_cast<long long>(s.l2Misses),
                 static_cast<long long>(s.publishes),
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path);
}

}  // namespace
}  // namespace darpa::bench

int main(int argc, char** argv) {
  using namespace darpa;
  using namespace darpa::bench;
  initFromArgs(argc, argv);

  printHeader("Fleet throughput: sessions x workers, synchronous detect");
  const dataset::AuiDataset data = paperDataset();
  const cv::OneStageDetector detector = trainOrLoadOneStage(data, "default");

  // Session sweep on one worker, then the 256-session fleet at W=1/2/4.
  const Millis duration = ms(scaled(10'000, 3'000));
  std::vector<std::pair<int, int>> grid;  // (sessions, workers)
  for (const int sessions : quick() ? std::vector<int>{1, 8, 64}
                                    : std::vector<int>{1, 4, 16, 64}) {
    grid.emplace_back(sessions, 1);
  }
  for (const int workers : {1, 2, 4}) grid.emplace_back(256, workers);

  std::printf("  %-8s %7s %10s %12s %14s\n", "sessions", "workers", "wall ms",
              "screens/s", "detect cpu ms");
  std::vector<Sample> samples;
  Sample serial256;
  Sample four256;
  for (const auto& [sessions, workers] : grid) {
    const Sample s =
        runFleet(detector, fleetConfig(sessions, workers, duration));
    std::printf("  %-8d %7d %10.1f %12.1f %14.1f\n", s.sessions, s.workers,
                s.wallMs, s.screensPerSec, s.detectCpuMs);
    std::fflush(stdout);
    samples.push_back(s);
    if (sessions == 256 && workers == 1) serial256 = s;
    if (sessions == 256 && workers == 4) four256 = s;
  }
  std::printf("  256 sessions, W=1 -> W=4: %.2fx wall-clock speed-up\n",
              four256.wallMs <= 0.0 ? 0.0 : serial256.wallMs / four256.wallMs);
  std::printf("  256 sessions, W=1: %.2f%% of view blocks reused from the "
              "view block cache\n",
              100.0 * serial256.viewBlockReuse);

  // Big fleets over a short horizon: sessions/sec (driver overhead per
  // session), the p99/p50 straggler spread, and peak RSS per fleet size.
  const std::vector<int> bigSweep =
      quick() ? std::vector<int>{1024} : std::vector<int>{4096, 16384};
  const double rssBudgetMb = quick() ? 128.0 : 512.0;
  std::printf("\n  big fleets, W=%d:\n", fleetWorkers());
  std::printf("  %-8s %10s %14s %14s %14s %12s\n", "sessions", "wall ms",
              "sessions/s", "p50 finish ms", "p99 finish ms", "peak RSS MB");
  Sample largest;
  for (const int sessions : bigSweep) {
    const double availableMb = memAvailableMb();
    if (availableMb > 0.0 && availableMb < rssBudgetMb) {
      std::printf("FAIL: not building %d sessions: the %.0f MB RSS "
                  "budget exceeds MemAvailable (%.0f MB)\n",
                  sessions, rssBudgetMb, availableMb);
      return 1;
    }
    const Sample s =
        runFleet(detector,
                 fleetConfig(sessions, fleetWorkers(), ms(scaled(500, 300))));
    std::printf("  %-8d %10.1f %14.1f %14.2f %14.2f %12.1f\n", s.sessions,
                s.wallMs, s.sessionsPerSec, s.stragglerP50Ms,
                s.stragglerP99Ms, s.peakRssMb);
    std::fflush(stdout);
    samples.push_back(s);
    largest = s;
  }

  // Shared-verdict-tier sweep: 8 apps serve the whole fleet, tier off vs
  // on at each size. Hit rates depend on cross-session timing, so this is
  // reported, not gated (SharedVerdictTierTest holds the tier's contract).
  printHeader("Shared verdict tier: shared app population, tier off vs on");
  std::printf("  %-8s %-5s %10s %9s %8s %12s %12s\n", "sessions", "tier",
              "wall ms", "hit rate", "l2 hits", "detect cpu", "walks/anal.");
  Sample untiered256;
  for (const int sessions : {16, 64, 256}) {
    for (const bool tierEnabled : {false, true}) {
      const Sample s = runTierFleet(detector, sessions, tierEnabled);
      if (sessions == 256 && !tierEnabled) untiered256 = s;
      std::printf("  %-8d %-5s %10.1f %8.1f%% %8lld %12.1f %12.3f\n",
                  s.sessions, s.tiered ? "on" : "off", s.wallMs,
                  100.0 * s.l2HitRate, static_cast<long long>(s.l2Hits),
                  s.detectCpuMs, s.walksPerAnalysis);
      std::fflush(stdout);
      samples.push_back(s);
    }
  }

  // Hybrid-population sweep: same shared population, lint prefilter on,
  // with 0% / 50% / 100% of third-party AUIs delivered through WebViews.
  // Web AUIs dim with rgba overlay colors instead of native scrim views,
  // so the lint stage keeps running but stops being confident — the same
  // screens shift from lint short-circuits onto the CV detector. All
  // columns are modeled-axis counters (deterministic across threading).
  printHeader("Hybrid population: WebView share vs lint/CV stage mix");
  std::printf("  %-8s %9s %9s %11s %12s %11s %13s %9s\n", "webProb",
              "analyses", "lintRuns", "lintSkips", "lint cpu ms", "detects",
              "detect cpu ms", "shortcct");
  const analysis::LintEngine hybridLint =
      analysis::LintEngine::withDefaultRules();
  std::vector<HybridSample> hybridRows;
  for (const double webProb : {0.0, 0.5, 1.0}) {
    const HybridSample h = runHybridFleet(detector, hybridLint, webProb);
    std::printf("  %-8.2f %9lld %9lld %11lld %12.1f %11lld %13.1f %8.1f%%\n",
                h.webProb, static_cast<long long>(h.analyses),
                static_cast<long long>(h.lintRuns),
                static_cast<long long>(h.cvSkippedByLint), h.lintCpuMs,
                static_cast<long long>(h.detectRuns), h.detectCpuMs,
                100.0 * h.lintShortCircuitRate());
    std::fflush(stdout);
    hybridRows.push_back(h);
  }

  // The fingerprint walk on its own: its cost per node on fresh windows.
  printHeader("Fingerprint walk: fresh windows of shared-population screens");
  std::printf("  %-8s %7s %12s %10s %10s\n", "screens", "walks",
              "nodes/walk", "ns/node", "ns/walk");
  const std::vector<WalkSample> walkRows = {
      timeFingerprintWalks("benign", false), timeFingerprintWalks("aui", true)};

  // The shared tier's read path on its own: find() hits, 1 and 4 threads.
  printHeader("Shared verdict tier: find() hits on a populated tier");
  std::printf("  %-8s %8s %14s %12s\n", "threads", "records", "finds/thread",
              "ns/find");
  const std::vector<FindSample> findRows = {timeTierFinds(1),
                                            timeTierFinds(4)};

  // What a session costs the heap before its phone exists and after it
  // has been released.
  printHeader("Heap per session: shared population, tier on (mallinfo2)");
  std::printf("  %-8s %16s %18s\n", "sessions", "unbuilt KB/sess",
              "finished KB/sess");
  const SessionHeapSample heap =
      measureSessionHeap(detector, scaled(8192, 2048));

  writeJson(samples, walkRows, findRows, heap,
            artifactPath("BENCH_fleet.json").c_str());

  bool failed = false;
  // Gate 1: the worker count never reaches the paper-facing outputs.
  const bool sameDigest = serial256.digest == four256.digest;
  std::printf("\n  256-session digest, W=1 vs W=4: %s (gate: identical)\n",
              sameDigest ? "identical" : "DIFFERENT");
  if (!sameDigest) {
    std::printf("FAIL: the digest changed with the worker count\n"
                "--- W=1 ---\n%s--- W=4 ---\n%s",
                serial256.digest.c_str(), four256.digest.c_str());
    failed = true;
  }

  // Gate 2: the stage mix must actually shift. At a fully WebView
  // population the lint short-circuit rate has to fall below the all-native
  // rate (web dim overlays are invisible to the native scrim heuristics, so
  // lint verdicts lose confidence and CV carries the load), and the CV
  // detector must run at least as often. Both sides are modeled-axis
  // counters, so this gate is deterministic, not a wall-clock race.
  const HybridSample& allNative = hybridRows.front();
  const HybridSample& allWeb = hybridRows.back();
  std::printf("  hybrid@64: lint short-circuit %.1f%% (native) -> %.1f%% "
              "(web), detect runs %lld -> %lld (gate: rate drops, detects "
              "do not)\n",
              100.0 * allNative.lintShortCircuitRate(),
              100.0 * allWeb.lintShortCircuitRate(),
              static_cast<long long>(allNative.detectRuns),
              static_cast<long long>(allWeb.detectRuns));
  if (allWeb.lintShortCircuitRate() >= allNative.lintShortCircuitRate() ||
      allWeb.detectRuns < allNative.detectRuns) {
    std::printf("FAIL: WebView population did not shift load from lint "
                "onto CV\n");
    failed = true;
  }

  // Gate 3: per-session memory stays flat at fleet scale.
  std::printf("  peak RSS at %d sessions: %.1f MB (gate: <= %.0f MB)\n",
              largest.sessions, largest.peakRssMb, rssBudgetMb);
  if (largest.peakRssMb > rssBudgetMb) {
    std::printf("FAIL: peak RSS over budget\n");
    failed = true;
  }

  // Gate 4: finished sessions give their view blocks back.
  constexpr double kMinViewBlockReuse = 0.95;
  std::printf("  256 sessions, W=1: view block reuse %.4f (gate: >= %.2f)\n",
              serial256.viewBlockReuse, kMinViewBlockReuse);
  if (serial256.viewBlockReuse < kMinViewBlockReuse) {
    std::printf("FAIL: finished sessions kept their view blocks\n");
    failed = true;
  }

  // Gate 5: an AUI pop does not re-walk the window it uncovers.
  constexpr double kMaxWalksPerAnalysis = 0.4192;
  std::printf("  shared population, 256 sessions, tier off: %.4f walks per "
              "analysis (gate: <= %.4f)\n",
              untiered256.walksPerAnalysis, kMaxWalksPerAnalysis);
  if (untiered256.walksPerAnalysis > kMaxWalksPerAnalysis) {
    std::printf("FAIL: the fingerprint memo re-walks uncovered windows\n");
    failed = true;
  }

  if (failed) return 1;
  std::printf("  contracts PASSED\n");
  return 0;
}
