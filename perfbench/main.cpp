// perfbench — the repository benchmark.
//
// Drives the DARPA runtime only through public entry points
// (Fleet::run()/snapshot(), DarpaService::analyzeNow(), and the layer
// functions timed in layers.h) on one of three workloads, checks the
// verdicts against the generators' ground truth, and prints one JSON result
// line last. See perfbench/README.md for the workloads and every metric.
//
//   perfbench --prepare --model FILE        load the paper model, or train
//                                           and save it once (not timed)
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --model FILE
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// untraced and then traced, and prints the per-layer metrics. Exit status
// is 0 only when the correctness gate passes.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/app_model.h"
#include "apps/screen_generator.h"
#include "core/darpa_service.h"
#include "core/detection_executor.h"
#include "fleet/fleet.h"
#include "harness.h"
#include "layers.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using darpa::Millis;
using darpa::ms;
namespace analysis = darpa::analysis;
namespace android = darpa::android;
namespace apps = darpa::apps;
namespace core = darpa::core;
namespace fleet = darpa::fleet;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  std::string model = "darpa_model_default.bin";
};

/// Verdicts against ground truth.
struct Confusion {
  std::int64_t tp = 0;
  std::int64_t fp = 0;
  std::int64_t fn = 0;
  std::int64_t tn = 0;

  void add(bool truth, bool flagged) {
    ++(truth ? (flagged ? tp : fn) : (flagged ? fp : tn));
  }
  Confusion& operator+=(const Confusion& o) {
    tp += o.tp;
    fp += o.fp;
    fn += o.fn;
    tn += o.tn;
    return *this;
  }
  [[nodiscard]] double precision() const {
    return tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
  }
  [[nodiscard]] double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
  friend bool operator==(const Confusion&, const Confusion&) = default;
};

/// Counts a run reproduces exactly when repeated with the same seed.
struct Counts {
  std::int64_t analyses = 0;   ///< DarpaStats::analysesRun (attempted).
  std::int64_t completed = 0;  ///< Analysis-listener callbacks.
  std::int64_t detects = 0;    ///< Detect stage runs (WorkLedger).
  std::int64_t exposures = 0;  ///< AUI exposures (fleets) / AUI screens.
  std::int64_t covered = 0;    ///< Exposures with a positive verdict.
  Confusion verdicts;          ///< Per analysis (fleets) / per screen.
  friend bool operator==(const Counts&, const Counts&) = default;
};

void printCounts(const char* tag, const Counts& c) {
  std::printf("  %-10s analyses %" PRId64 " completed %" PRId64
              " detects %" PRId64 " exposures %" PRId64 " covered %" PRId64
              " tp %" PRId64 " fp %" PRId64 " fn %" PRId64 " tn %" PRId64 "\n",
              tag, c.analyses, c.completed, c.detects, c.exposures, c.covered,
              c.verdicts.tp, c.verdicts.fp, c.verdicts.fn, c.verdicts.tn);
}

int fleetWorkers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

double since(double t0) { return nowS() - t0; }

/// Elementwise minimum of equally long sample vectors (one per repeat of
/// the same work): each item's fastest observation.
std::vector<double> minAcross(const std::vector<std::vector<double>>& reps) {
  std::vector<double> out = reps.empty() ? std::vector<double>{} : reps[0];
  for (const std::vector<double>& r : reps) {
    for (std::size_t i = 0; i < out.size() && i < r.size(); ++i) {
      out[i] = std::min(out[i], r[i]);
    }
  }
  return out;
}

/// Screenshots the traced run keeps for the cv/nn replay: every
/// kCaptureStride-th detect input, topped up with screens the screen-layer
/// sampling composited (fleet-shared runs almost no detects).
constexpr int kCaptureLimit = 32;
constexpr int kCaptureStride = 7;
constexpr int kReplayRepeats = 2;

std::vector<darpa::gfx::Bitmap> replaySet(ScreenSample& detected,
                                          ScreenSample& composited) {
  std::vector<darpa::gfx::Bitmap> screens = detected.take();
  for (darpa::gfx::Bitmap& screen : composited.take()) {
    if (static_cast<int>(screens.size()) >= kCaptureLimit) break;
    screens.push_back(std::move(screen));
  }
  return screens;
}

/// The per-layer metrics every workload reports the same way: screen-side
/// layers sampled during the traced run, detect steps replayed on its
/// captured screenshots.
void setDetectAndScreenLayers(Result& result, const ScreenLayerSums& s,
                              const DetectLayers& d) {
  const double n = static_cast<double>(std::max<std::int64_t>(s.samples, 1));
  const double nd =
      static_cast<double>(std::max<std::int64_t>(s.decorateSamples, 1));
  std::printf("layer samples: %" PRId64 " screens, %" PRId64
              " decorations, %d replayed detects (%d equal to detect())\n",
              s.samples, s.decorateSamples, d.screens, d.agreeing);
  result.set("android.composite_ms", s.compositeMs / n, "ms");
  result.set("android.dump_us", s.dumpUs / n, "us");
  result.set("android.fingerprint_us", s.fingerprintUs / n, "us");
  result.set("analysis.lint_us", s.lintUs / n, "us");
  result.set("core.decorate_ms", s.decorateMs / nd, "ms");
  result.set("cv.detect_ms", d.detectMs, "ms");
  result.set("cv.feature_map_ms", d.featureMapMs, "ms");
  result.set("cv.descriptor_fill_ms", d.descriptorFillMs, "ms");
  result.set("cv.nms_us", d.nmsUs, "us");
  result.set("cv.refine_ms", d.refineMs, "ms");
  result.set("cv.detect_unattributed_ms", d.unattributedMs, "ms");
  result.set("cv.replay_agreement",
             d.screens == 0 ? 0.0 : static_cast<double>(d.agreeing) / d.screens,
             "ratio");
  result.set("nn.head_ms", d.headMs, "ms");
  result.set("nn.head_ns_per_candidate", d.headNsPerCandidate, "ns");
}

// ============================================================== fleets

struct FleetWorkload {
  const char* name;
  int sessions;
  Millis duration;
  /// 8 shared apps with AUI churn, lint prefilter and the shared L2 tier.
  bool shared;
};

/// Correctness floors for both fleets (HEAD measures ~0.70 recall and
/// ~0.98 precision on fleet-distinct, ~0.99 and 1.0 on fleet-shared).
constexpr double kFleetRecallFloor = 0.50;
constexpr double kFleetPrecisionFloor = 0.50;
/// Memory-guard budget: ~30 KB per session is measured at HEAD.
constexpr double kBudgetKbPerSession = 64.0;
constexpr double kBudgetBaseMb = 256.0;

constexpr int kSharedApps = 8;
/// Sessions whose every analysis is timed (evenly spaced; all sessions when
/// the fleet is smaller).
constexpr int kTimedSessions = 256;
/// The traced run samples the screen layers on every kLayerEvery-th
/// analysis of kLayerSessions evenly spaced sessions.
constexpr int kLayerSessions = 32;
constexpr int kLayerEvery = 8;

/// The shared population: `kSharedApps` fixed apps, session i running app
/// i % kSharedApps, with AUI churn on stable base screens so the fleet-wide
/// L2 tier sees recurring fingerprints. The apps are part of the workload's
/// definition (as in bench_fleet_throughput) and the workload seed varies
/// each session's Monkey: with seed-drawn apps, every per-analysis figure
/// would depend on which eight apps a seed drew.
std::function<void(int, fleet::DeviceSession::Config&)> sharedPopulation() {
  struct App {
    apps::AppProfile profile;
    std::uint64_t appSeed;
  };
  auto population = std::make_shared<std::vector<App>>();
  darpa::Rng rng(4242);
  for (int a = 0; a < kSharedApps; ++a) {
    App app{apps::randomAppProfile("com.shared.app" + std::to_string(a), rng),
            rng.next()};
    app.profile.screenChangeMeanMs = 6000;
    app.profile.auisPerMinute = 40.0;
    app.profile.auiMinVisibleMs = 600;
    app.profile.auiMaxVisibleMs = 1600;
    population->push_back(std::move(app));
  }
  return [population](int i, fleet::DeviceSession::Config& config) {
    const App& app = (*population)[static_cast<std::size_t>(i % kSharedApps)];
    config.profile = app.profile;
    config.appSeed = app.appSeed;
  };
}

fleet::FleetConfig fleetConfig(const FleetWorkload& w, std::uint64_t seed,
                               const analysis::LintEngine& lint) {
  fleet::FleetConfig config;
  config.sessions = w.sessions;
  config.workers = fleetWorkers();
  config.epoch = ms(1000);
  config.duration = w.duration;
  config.seed = seed;
  if (w.shared) {
    config.sessionTweak = sharedPopulation();
    config.sharedVerdictTier = true;
    config.darpa.lintPrefilter = &lint;
  }
  return config;
}

/// Marks each ct expiry of one session in wall-clock time. Connected to the
/// session's AccessibilityManager ahead of DARPA, with DARPA's notification
/// delay, it sees the same event deliveries first and so re-arms the same
/// cut-off timer: its marker task is due at the very instant DARPA's
/// analysis task is, and runs just before it (the looper is FIFO among due
/// tasks). The analysis listener then reads "ct expiry -> analysis done".
class CtExpiryMarker final : public android::AccessibilityService {
 public:
  explicit CtExpiryMarker(const core::DarpaConfig& config)
      : cutoff_(config.cutoff), delay_(config.notificationDelay) {}
  CtExpiryMarker(const CtExpiryMarker&) = delete;
  CtExpiryMarker& operator=(const CtExpiryMarker&) = delete;

  void onServiceConnected() override {
    setEventTypesMask(android::kAllEventTypesMask);
    setNotificationTimeout(delay_);
  }
  void onAccessibilityEvent(const android::AccessibilityEvent&) override {
    android::Looper* loop = looper();
    if (loop == nullptr) return;
    if (pending_ != 0) loop->cancel(pending_);
    pending_ = loop->postDelayed(
        [this] {
          pending_ = 0;
          expiredAtS_ = nowS();
        },
        cutoff_);
  }
  /// Wall time of the latest ct expiry; < 0 before the first.
  [[nodiscard]] double expiredAtS() const { return expiredAtS_; }

 private:
  Millis cutoff_;
  Millis delay_;
  android::TaskId pending_ = 0;
  double expiredAtS_ = -1.0;
};

/// Per-session listener state, written only by the thread advancing the
/// session (padded so neighbouring sessions do not share a cache line).
struct alignas(64) SessionTally {
  std::int64_t completed = 0;
  Confusion verdicts;
  ScreenLayerSums layers;
  const CtExpiryMarker* marker = nullptr;  ///< Set on timed sessions.
  std::vector<double> latencyMs;           ///< ct expiry -> analysis done.
};

struct FleetRep {
  double constructS = 0.0;
  double runS = 0.0;
  Counts counts;
  std::int64_t peakRssKb = 0;
  double kbPerSession = 0.0;
  /// Analysis latencies of the timed sessions, in session then analysis
  /// order (the same analyses, in the same order, in every same-seed rep).
  std::vector<double> latencyMs;
  // Observability (not digest-stable).
  core::DarpaStats stats;
  core::SharedVerdictTier::Stats tier;
  double finishP99S = 0.0;
  std::int64_t steals = 0;
  ScreenLayerSums layers;
};

/// One fleet, built and run. `detector` is the model or, in a traced rep, a
/// TimedDetector in front of it; a non-null `composites` turns on the
/// screen-layer sampling in the analysis listener.
FleetRep runFleetRep(const cv::Detector& detector,
                     const fleet::FleetConfig& config,
                     const analysis::LintEngine& lint,
                     ScreenSample* composites) {
  FleetRep rep;
  resetPeakRss();
  const std::int64_t rss0 = statusKb("VmRSS");
  const double t0 = nowS();
  // Declared before the fleet, which holds pointers to both: markers in the
  // sessions' managers, tallies in the analysis listeners.
  std::vector<std::unique_ptr<CtExpiryMarker>> markers;
  std::vector<SessionTally> tallies(static_cast<std::size_t>(config.sessions));
  fleet::Fleet f(detector, core::defaultInlineExecutor(), config);
  const int n = f.sessionCount();
  const int layerStride = std::max(1, n / kLayerSessions);
  const int timedStride = std::max(1, n / kTimedSessions);
  const bool decorates = config.darpa.decorate && !config.darpa.autoBypass;
  for (int i = 0; i < n; ++i) {
    fleet::DeviceSession& s = f.session(i);
    SessionTally& tally = tallies[static_cast<std::size_t>(i)];
    if (i % timedStride == 0) {
      // Reconnect DARPA behind the marker so the marker is delivered first.
      android::AccessibilityManager& manager = s.system().accessibility;
      markers.push_back(std::make_unique<CtExpiryMarker>(config.darpa));
      manager.disconnect(s.service());
      manager.connect(*markers.back());
      manager.connect(s.service());
      tally.marker = markers.back().get();
    }
    ScreenSample* sample = i % layerStride == 0 ? composites : nullptr;
    s.setAnalysisListener([&s, &tally, &lint, sample, decorates](
                              bool isAui,
                              const std::vector<cv::Detection>& detections) {
      if (tally.marker != nullptr && tally.marker->expiredAtS() >= 0) {
        tally.latencyMs.push_back((nowS() - tally.marker->expiredAtS()) * 1e3);
      }
      ++tally.completed;
      tally.verdicts.add(s.app().exposureAt(s.now()) != nullptr, isAui);
      if (sample != nullptr && tally.completed % kLayerEvery == 1) {
        sampleScreenLayers(s.service(), lint, isAui && decorates, detections,
                           *sample, tally.layers);
      }
    });
  }
  rep.constructS = since(t0);

  const double t1 = nowS();
  f.run();
  rep.runS = since(t1);
  rep.peakRssKb = statusKb("VmHWM");
  rep.kbPerSession = static_cast<double>(rep.peakRssKb - rss0) / n;

  const fleet::FleetSnapshot snap = f.snapshot();
  rep.stats = snap.stats;
  rep.tier = snap.verdictTier;
  rep.counts.analyses = snap.stats.analysesRun;
  rep.counts.detects = snap.ledger.tally(core::Stage::kDetect).runs;
  rep.counts.exposures = snap.auiExposures;
  rep.counts.covered = snap.auisCovered;
  for (const SessionTally& t : tallies) {
    rep.counts.completed += t.completed;
    rep.counts.verdicts += t.verdicts;
    rep.layers += t.layers;
    rep.latencyMs.insert(rep.latencyMs.end(), t.latencyMs.begin(),
                         t.latencyMs.end());
  }
  if (const fleet::SchedulerMetrics* m = f.schedulerMetrics()) {
    rep.finishP99S = percentile(m->finishWallMs, 0.99) / 1e3;
    rep.steals = m->steals;
  }
  return rep;
}

void runFleetWorkload(const FleetWorkload& w, const Options& opt,
                      const cv::OneStageDetector& model, double modelLoadS,
                      Result& result) {
  const int workers = fleetWorkers();
  std::printf("workload %s: %d sessions x %.0f s simulated, W=%d, %s\n",
              w.name, w.sessions, w.duration.count / 1e3, workers,
              w.shared ? "8 shared apps, lint prefilter + shared L2 tier"
                       : "distinct random apps, lint off, tier off");

  // Memory guard: refuse a size that cannot fit instead of being OOM-killed.
  const std::int64_t availMb = memAvailableMb();
  const double needMb =
      kBudgetBaseMb + w.sessions * kBudgetKbPerSession / 1024.0;
  std::printf("memory guard: need ~%.0f MB, MemAvailable %" PRId64 " MB\n",
              needMb, availMb);
  if (availMb >= 0 && needMb > static_cast<double>(availMb)) {
    result.attempted = 1;
    result.failed = 1;
    result.fail("memory guard refused " + std::to_string(w.sessions) +
                " sessions: need ~" + std::to_string(static_cast<int>(needMb)) +
                " MB, MemAvailable " + std::to_string(availMb) + " MB");
    return;
  }

  const double s0 = nowS();
  const analysis::LintEngine lint = analysis::LintEngine::withDefaultRules();
  const fleet::FleetConfig config = fleetConfig(w, opt.seed, lint);
  const double configS = since(s0);

  // Warm-up: one full rep, which is also the same-seed reference run of the
  // determinism gate.
  const FleetRep warm = runFleetRep(model, config, lint, nullptr);
  printCounts("warm-up", warm.counts);

  std::vector<FleetRep> plain;
  std::vector<FleetRep> traced;
  std::vector<double> constructS{warm.constructS};
  const double m0 = nowS();
  const double plainBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t minPlain = opt.trace ? 2 : 4;
  while (plain.size() < minPlain || since(m0) < plainBudget) {
    plain.push_back(runFleetRep(model, config, lint, nullptr));
    constructS.push_back(plain.back().constructS);
  }
  ScreenSample detected(kCaptureLimit);
  ScreenSample composited(kCaptureLimit);
  TimedDetector timed(model, detected, kCaptureStride);
  while (opt.trace && (traced.empty() || since(m0) < opt.seconds)) {
    traced.push_back(runFleetRep(timed, config, lint, &composited));
  }

  // --- correctness gate
  std::vector<const FleetRep*> all;
  for (const FleetRep& r : plain) all.push_back(&r);
  for (const FleetRep& r : traced) all.push_back(&r);
  for (const FleetRep* r : all) {
    result.attempted += r->counts.analyses;
    result.failed += r->counts.analyses - r->counts.completed;
    Counts expect = warm.counts;
    Counts got = r->counts;
    // With the shared tier, who detects a new fingerprint first is a
    // wall-clock race between sessions; verdicts (and so every other count)
    // are the same whichever session pays, but the detect count is not.
    if (w.shared) expect.detects = got.detects = 0;
    if (!(got == expect)) {
      printCounts("rep", r->counts);
      result.fail("counts differ from the same-seed warm-up run");
    }
  }
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) +
                " analyses attempted but never completed");
  }
  const Counts& c = warm.counts;
  const double recall =
      c.exposures == 0 ? 0.0 : static_cast<double>(c.covered) / c.exposures;
  const double precision = c.verdicts.precision();
  std::printf("verdicts: exposures %" PRId64 " covered %" PRId64
              " (recall %.4f, floor %.2f); per analysis precision %.4f "
              "(floor %.2f), recall %.4f\n",
              c.exposures, c.covered, recall, kFleetRecallFloor, precision,
              kFleetPrecisionFloor, c.verdicts.recall());
  if (recall < kFleetRecallFloor) result.fail("aui_recall below its floor");
  if (precision < kFleetPrecisionFloor) {
    result.fail("aui_precision below its floor");
  }

  // Host noise only ever slows work down: throughput comes from the fastest
  // rep, and latency percentiles from each timed analysis's fastest run
  // across the reps.
  std::vector<double> runS;
  std::vector<std::vector<double>> latencyReps;
  std::int64_t peakKb = 0;
  for (const FleetRep& r : plain) {
    runS.push_back(r.runS);
    latencyReps.push_back(r.latencyMs);
    peakKb = std::max(peakKb, r.peakRssKb);
  }
  const std::vector<double> latency = minAcross(latencyReps);
  const double fastestS = *std::min_element(runS.begin(), runS.end());
  std::printf("reps: warm-up %.3f s; measured", warm.runS);
  for (double s : runS) std::printf(" %.3f", s);
  std::printf(" s; %zu timed analyses x %zu reps\n", latency.size(),
              latencyReps.size());

  if (!opt.trace) {
    result.set("setup_s", modelLoadS + configS + median(constructS) + warm.runS,
               "s");
    result.set("screens_per_s",
               static_cast<double>(warm.counts.completed) / fastestS, "1/s");
    result.set("analysis_p50_ms", percentile(latency, 0.50), "ms");
    result.set("analysis_p99_ms", percentile(latency, 0.99), "ms");
    result.set("peak_rss_mb", static_cast<double>(peakKb) / 1024.0, "MB");
    result.set("aui_recall", recall, "ratio");
    result.set("aui_precision", precision, "ratio");
    return;
  }

  // --- per-layer metrics from the traced reps
  ScreenLayerSums layers;
  double tracedRunS = 0.0;
  double tracedFastestS = 1e300;
  std::vector<double> finishP99;
  std::vector<double> steals;
  core::DarpaStats stats;
  core::SharedVerdictTier::Stats tier;
  std::int64_t detects = 0;
  for (const FleetRep& r : traced) {
    layers += r.layers;
    tracedRunS += r.runS;
    tracedFastestS = std::min(tracedFastestS, r.runS);
    finishP99.push_back(r.finishP99S);
    steals.push_back(static_cast<double>(r.steals));
    stats += r.stats;
    tier.hits += r.tier.hits;
    tier.misses += r.tier.misses;
    detects += r.counts.detects;
  }
  setDetectAndScreenLayers(result, layers,
                           replayDetectLayers(model,
                                              replaySet(detected, composited),
                                              kReplayRepeats));
  const double analyses = static_cast<double>(std::max<std::int64_t>(
      stats.analysesRun, 1));
  result.set("core.analyses", analyses / traced.size(), "count");
  result.set("core.l1_hit_rate", stats.verdictCacheHits / analyses, "ratio");
  const std::int64_t probesL2 = tier.hits + tier.misses;
  result.set("core.l2_hit_rate",
             probesL2 == 0 ? 0.0 : static_cast<double>(tier.hits) / probesL2,
             "ratio");
  result.set("core.detects_per_analysis", detects / analyses, "ratio");
  result.set("analysis.lint_short_circuit_rate",
             stats.lintRuns == 0
                 ? 0.0
                 : static_cast<double>(stats.cvSkippedByLint) / stats.lintRuns,
             "ratio");
  result.set("cv.detect_calls",
             static_cast<double>(timed.calls()) / traced.size(), "count");
  result.set("cv.detect_live_ms",
             timed.calls() == 0 ? 0.0 : timed.busySeconds() * 1e3 / timed.calls(),
             "ms");
  result.set("fleet.detect_busy_share",
             timed.busySeconds() / (tracedRunS * workers), "ratio");
  result.set("fleet.finish_p99_s", median(finishP99), "s");
  result.set("fleet.steals", median(steals), "count");
  // From the warm-up: the first fleet in the process, so its growth is not
  // hidden by heap an earlier fleet freed but the allocator kept.
  result.set("fleet.kb_per_session", warm.kbPerSession, "KB");
  result.set("trace_overhead_pct",
             100.0 * (tracedFastestS - fastestS) / fastestS, "%");
}

// ======================================================== device-replay

/// Far beyond any replay's simulated span: the ct timer never fires, so
/// every analysis is one of the benchmark's direct analyzeNow() calls.
constexpr Millis kNeverCutoff = ms(1'000'000'000);
/// Unique screens per pass, so p99 has 10 screens past it.
constexpr int kCorpusScreens = 1002;
/// Screens of the warm-up pass (a prefix of the same corpus).
constexpr int kWarmScreens = 60;
/// Screens analyzed on one CPU before the pass moves to the next.
constexpr int kScreensPerCpu = 50;

/// Pins the calling thread to one CPU of `allowed` (round robin by `slot`)
/// and restores the original mask on destruction. Neighbours on the shared
/// host slow one CPU at a time, so each pass visits the CPUs in a different
/// order and each screen's fastest call lands on a quiet one.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    ok_ = pthread_getaffinity_np(pthread_self(), sizeof original_,
                                 &original_) == 0;
    for (int c = 0; ok_ && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int slot) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(slot) % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  bool ok_ = false;
  std::vector<int> cpus_;
};

struct ReplayPass {
  double constructS = 0.0;
  double wallS = 0.0;
  std::vector<double> latencyMs;  ///< Per screen, in corpus order.
  std::vector<char> verdicts;     ///< Per screen, in corpus order.
  Counts counts;
  std::int64_t peakRssKb = 0;
  std::int64_t rss0Kb = 0;
  core::DarpaStats stats;
  ScreenLayerSums layers;
};

/// Shows the first `screens` screens of the seed's corpus (1/3 AUI, 1/3
/// benign, 1/3 hard negative) one at a time on a fresh device and analyzes
/// each with a direct analyzeNow(), timing the call.
ReplayPass runReplayPass(const cv::Detector& detector, std::uint64_t seed,
                         int screens, int passIndex,
                         const analysis::LintEngine* sampleLint,
                         ScreenSample* composites) {
  ReplayPass pass;
  CpuRotation cpus;
  resetPeakRss();
  pass.rss0Kb = statusKb("VmRSS");
  const double t0 = nowS();
  // Declared before the service, whose listener refers to them.
  std::int64_t completed = 0;
  bool lastVerdict = false;
  std::vector<cv::Detection> lastDetections;
  android::AndroidSystem device;
  core::DarpaConfig config;
  config.cutoff = kNeverCutoff;
  core::DarpaService service(detector, config);
  device.accessibility.connect(service);
  service.setAnalysisListener(
      [&](bool isAui, const std::vector<cv::Detection>& detections) {
        ++completed;
        lastVerdict = isAui;
        if (sampleLint != nullptr) lastDetections = detections;
      });
  apps::ScreenGenerator::Params params;
  const darpa::Rect frame = device.windowManager.appFrame(false);
  params.frame = {frame.width, frame.height};
  apps::ScreenGenerator generator(params, seed);
  pass.constructS = since(t0);

  const double w0 = nowS();
  for (int i = 0; i < screens; ++i) {
    if (i % kScreensPerCpu == 0) cpus.pin(i / kScreensPerCpu + passIndex);
    apps::GeneratedScreen screen =
        i % 3 == 0   ? generator.makeAui(generator.randomSpec())
        : i % 3 == 1 ? generator.makeBenign()
                     : generator.makeHardNegative();
    if (device.windowManager.appWindowCount() > 0) {
      device.windowManager.popAppWindow();
    }
    device.windowManager.showAppWindow("com.replay.app",
                                       std::move(screen.root), false);
    // Deliver the window events (the notification delay coalesces them).
    device.looper.runFor(ms(250));
    const std::int64_t before = completed;
    const double a0 = nowS();
    service.analyzeNow();
    pass.latencyMs.push_back(since(a0) * 1e3);
    const bool verdict = completed > before && lastVerdict;
    pass.verdicts.push_back(verdict ? 1 : 0);
    pass.counts.verdicts.add(screen.truth.isAui, verdict);
    if (screen.truth.isAui) {
      ++pass.counts.exposures;
      pass.counts.covered += verdict ? 1 : 0;
    }
    if (sampleLint != nullptr && composites != nullptr && i % 4 == 0) {
      sampleScreenLayers(service, *sampleLint, verdict && config.decorate,
                         lastDetections, *composites, pass.layers);
    }
  }
  pass.wallS = since(w0);
  pass.peakRssKb = statusKb("VmHWM");
  pass.stats = service.stats();
  pass.counts.analyses = service.stats().analysesRun;
  pass.counts.completed = completed;
  pass.counts.detects = service.ledger().tally(core::Stage::kDetect).runs;
  return pass;
}

void runDeviceReplay(const Options& opt, const cv::OneStageDetector& model,
                     double modelLoadS, Result& result) {
  std::printf("workload device-replay: %d unique screens per pass, one "
              "device, direct analyzeNow(), ct timer disabled\n",
              kCorpusScreens);
  const ReplayPass warm =
      runReplayPass(model, opt.seed, kWarmScreens, 0, nullptr, nullptr);

  // Untraced passes over the same corpus, each on a fresh device: at least
  // two (one before a traced pass), more while another fits in --seconds.
  std::vector<ReplayPass> plain;
  const double m0 = nowS();
  const std::size_t minPasses = opt.trace ? 1 : 2;
  while (plain.size() < minPasses ||
         (!opt.trace && since(m0) + plain.back().wallS < opt.seconds)) {
    plain.push_back(runReplayPass(model, opt.seed, kCorpusScreens,
                                  static_cast<int>(plain.size()), nullptr,
                                  nullptr));
  }
  const analysis::LintEngine lint = analysis::LintEngine::withDefaultRules();
  ScreenSample detected(kCaptureLimit);
  ScreenSample composited(kCaptureLimit);
  TimedDetector timed(model, detected, kCaptureStride);
  ReplayPass traced;
  if (opt.trace) {
    traced = runReplayPass(timed, opt.seed, kCorpusScreens, 0, &lint,
                           &composited);
  }

  // --- correctness gate
  const ReplayPass& first = plain.front();
  std::vector<const ReplayPass*> passes;
  for (const ReplayPass& p : plain) passes.push_back(&p);
  if (opt.trace) passes.push_back(&traced);
  for (const ReplayPass* p : passes) {
    result.attempted += p->counts.analyses;
    result.failed += p->counts.analyses - p->counts.completed;
    if (p->counts.analyses != kCorpusScreens) {
      result.fail("analyses ran " + std::to_string(p->counts.analyses) +
                  " times for " + std::to_string(kCorpusScreens) +
                  " direct calls (the ct timer fired)");
    }
    if (!(p->counts == first.counts) || p->verdicts != first.verdicts) {
      printCounts("pass", p->counts);
      result.fail("verdicts differ between same-seed passes");
    }
  }
  if (!std::equal(warm.verdicts.begin(), warm.verdicts.end(),
                  first.verdicts.begin())) {
    result.fail("verdicts differ from the same-seed warm-up pass");
  }
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) +
                " analyses attempted but never completed");
  }
  const Confusion& v = first.counts.verdicts;
  constexpr double kRecallFloor = 0.65;
  constexpr double kPrecisionFloor = 0.90;
  printCounts("pass", first.counts);
  std::printf("verdicts per screen: recall %.4f (floor %.2f), precision "
              "%.4f (floor %.2f)\n",
              v.recall(), kRecallFloor, v.precision(), kPrecisionFloor);
  if (v.recall() < kRecallFloor) result.fail("aui_recall below its floor");
  if (v.precision() < kPrecisionFloor) {
    result.fail("aui_precision below its floor");
  }

  // Host noise only ever slows a call down: latency percentiles and
  // throughput come from each screen's fastest call across the passes.
  std::vector<std::vector<double>> latencyReps;
  std::vector<double> constructS{warm.constructS};
  std::int64_t peakKb = 0;
  std::printf("passes:");
  for (const ReplayPass& p : plain) {
    latencyReps.push_back(p.latencyMs);
    constructS.push_back(p.constructS);
    peakKb = std::max(peakKb, p.peakRssKb);
    std::printf(" %.3f s (p50 %.3f ms)", p.wallS, percentile(p.latencyMs, 0.5));
  }
  const std::vector<double> latency = minAcross(latencyReps);
  double analyzeS = 0.0;
  for (double ms : latency) analyzeS += ms / 1e3;
  std::printf("; %zu screens x %zu timed calls each\n", latency.size(),
              latencyReps.size());
  if (!opt.trace) {
    result.set("setup_s", modelLoadS + median(constructS) + warm.wallS, "s");
    result.set("screens_per_s", latency.size() / analyzeS, "1/s");
    result.set("analysis_p50_ms", percentile(latency, 0.50), "ms");
    result.set("analysis_p99_ms", percentile(latency, 0.99), "ms");
    result.set("peak_rss_mb", static_cast<double>(peakKb) / 1024.0, "MB");
    result.set("aui_recall", v.recall(), "ratio");
    result.set("aui_precision", v.precision(), "ratio");
    return;
  }

  setDetectAndScreenLayers(
      result, traced.layers,
      replayDetectLayers(model, replaySet(detected, composited),
                         kReplayRepeats));
  // One device, no tier, no lint prefilter: l2 and lint rates are 0 by
  // construction and reported so every workload prints the same layer set.
  const double analyses = static_cast<double>(traced.counts.analyses);
  result.set("core.analyses", analyses, "count");
  result.set("core.l1_hit_rate", traced.stats.verdictCacheHits / analyses,
             "ratio");
  result.set("core.l2_hit_rate", 0.0, "ratio");
  result.set("core.detects_per_analysis",
             static_cast<double>(traced.counts.detects) / analyses, "ratio");
  result.set("analysis.lint_short_circuit_rate", 0.0, "ratio");
  result.set("cv.detect_calls", static_cast<double>(timed.calls()), "count");
  result.set("cv.detect_live_ms",
             timed.calls() == 0 ? 0.0 : timed.busySeconds() * 1e3 / timed.calls(),
             "ms");
  result.set("fleet.detect_busy_share", timed.busySeconds() / traced.wallS,
             "ratio");
  result.set("fleet.finish_p99_s", traced.wallS, "s");
  result.set("fleet.steals", 0.0, "count");
  result.set("fleet.kb_per_session",
             static_cast<double>(first.peakRssKb - first.rss0Kb), "KB");
  const double p50Plain = percentile(first.latencyMs, 0.50);
  result.set("trace_overhead_pct",
             100.0 * (percentile(traced.latencyMs, 0.50) - p50Plain) / p50Plain,
             "%");
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

const FleetWorkload kFleetDistinct{"fleet-distinct", 256, ms(30'000), false};
const FleetWorkload kFleetShared{"fleet-shared", 8192, ms(30'000), true};

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--prepare") {
      opt.prepare = true;
    } else if (arg == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return false;
    } else if (arg == "--seconds" && hasValue) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        return false;
      }
    } else if (arg == "--trace" && hasValue) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (arg == "--model" && hasValue) {
      opt.model = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --prepare --model FILE\n"
                 "       perfbench --workload fleet-distinct|fleet-shared|"
                 "device-replay --seed N --seconds S --trace 0|1 "
                 "--model FILE\n");
    return 2;
  }
  if (opt.prepare) {
    const double t0 = nowS();
    const cv::OneStageDetector model = loadOrTrainPaperModel(opt.model);
    printProvenance(provenanceOf(model, opt.model));
    std::printf("model ready in %.1f s\n", nowS() - t0);
    return 0;
  }
  const FleetWorkload* fleetWorkload = nullptr;
  if (opt.workload == kFleetDistinct.name) fleetWorkload = &kFleetDistinct;
  if (opt.workload == kFleetShared.name) fleetWorkload = &kFleetShared;
  if (fleetWorkload == nullptr && opt.workload != "device-replay") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);

  // Set-up starts with the model: loaded three times, the median counts.
  std::vector<double> loadS;
  std::unique_ptr<cv::OneStageDetector> model;
  for (int i = 0; i < 3; ++i) {
    const double t0 = nowS();
    model = std::make_unique<cv::OneStageDetector>(loadPaperModel(opt.model));
    loadS.push_back(nowS() - t0);
  }
  printProvenance(provenanceOf(*model, opt.model));

  Result result;
  if (fleetWorkload != nullptr) {
    runFleetWorkload(*fleetWorkload, opt, *model, median(loadS), result);
  } else {
    runDeviceReplay(opt, *model, median(loadS), result);
  }
  printResult(result);
  return result.correct ? 0 : 1;
}
