// WorkLedger — the single accounting substrate for the run-time pipeline.
//
// The seed implementation reported work through a flat WorkKind callback
// that every bench adapted by hand (count events here, divide by apps
// there). The ledger replaces that with one structured record the whole
// stack consumes uniformly:
//
//  * per-stage tallies (runs, skips, modeled CPU-ms) for every pipeline
//    stage of the Fig.-5 life-cycle — event handling, lint, screenshot,
//    CV detection, verdict merge, act (decorate/bypass);
//  * verdict-cache hit/miss counters (the repeat-screen fast path);
//  * the peak single-frame footprint (peakFrameBytes), folded into the
//    Table VII memory row by perf::DeviceModel;
//  * the analysis count and the simulated-clock debounce latency (time a
//    screen waited for ct stability before being analyzed).
//
// The per-operation CPU costs live in StageCosts — one table shared by the
// pipeline (which prices work as it happens) and perf::DeviceModel (which
// folds priced work into Table VII/VIII device metrics). There is exactly
// one copy of every constant.
//
// Thread-ownership rule (fleet scale): a WorkLedger is SESSION-CONFINED —
// only the thread currently advancing its DeviceSession may record into it,
// and sessions never share a ledger. The ledger itself carries no
// synchronization. Aggregation happens only after Fleet::run() has joined
// its workers (the happens-before edge): the control thread adds each
// session's ledger with += in session-id order, so double addition is
// bit-reproducible for any worker count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/clock.h"
#include "util/thread_annotations.h"

namespace darpa::core {

/// The stages of the run-time analysis pipeline, in execution order.
enum class Stage {
  kEvent,       ///< Accessibility-event handling + debounce bookkeeping.
  kLint,        ///< Static pre-filter over the UI dump (no pixels).
  kScreenshot,  ///< takeScreenshot into the vault.
  kDetect,      ///< CV detector over the screenshot.
  kVerdict,     ///< Verdict merge + fingerprint cache lookup/store.
  kAct,         ///< Decoration overlays or the auto-bypass click.
};

inline constexpr int kStageCount = 6;
inline constexpr std::array<Stage, kStageCount> kAllStages = {
    Stage::kEvent,  Stage::kLint,    Stage::kScreenshot,
    Stage::kDetect, Stage::kVerdict, Stage::kAct,
};

[[nodiscard]] std::string_view stageName(Stage stage);

/// Per-operation modeled CPU costs in milliseconds on the device's big
/// core. The single source of truth: the pipeline prices work with this
/// table as it records into the ledger, and perf::DeviceModel::Config
/// embeds the same table for its Table VII/VIII arithmetic.
struct StageCosts {
  double eventCpuMs = 0.35;        ///< One delivered accessibility event.
  double lintCpuMs = 0.18;         ///< One static lint pass over a dump.
  double screenshotCpuMs = 2.2;    ///< One capture (compose + copy).
  double macsPerCpuMs = 1.8e6;     ///< Detection = detector MACs / this.
  double verdictCpuMs = 0.02;      ///< Verdict merge (pointer work).
  double cacheLookupCpuMs = 0.08;  ///< View-tree walk + fingerprint + LRU.
  double decorationCpuMs = 45.0;   ///< addView: full relayout + recompose.
  double bypassClickCpuMs = 1.5;   ///< One dispatched bypass gesture.
};

/// Accumulators for one pipeline stage.
struct StageTally {
  std::int64_t runs = 0;   ///< Times the stage actually executed.
  std::int64_t skips = 0;  ///< Times the pipeline skipped it (cache/lint).
  double cpuMs = 0.0;      ///< Modeled CPU-ms spent in the stage.

  // Wall-clock axis: real host microseconds measured around the stage's
  // execution (steady_clock). Strictly observability — it varies run to
  // run and with worker count, so NOTHING digest-stable (totalCpuMs, the
  // Table VII rows, the bench digests) may ever read it. The modeled cpuMs
  // above stays the deterministic axis.
  double actualUs = 0.0;  ///< Measured wall-clock microseconds.

  StageTally& operator+=(const StageTally& o) {
    runs += o.runs;
    skips += o.skips;
    cpuMs += o.cpuMs;
    actualUs += o.actualUs;
    return *this;
  }
};

class WorkLedger {
 public:
  WorkLedger() = default;
  explicit WorkLedger(StageCosts costs) : costs_(costs) {}

  [[nodiscard]] const StageCosts& costs() const { return costs_; }

  // --- recording (called by the service / pipeline stages) -----------------

  /// One delivered accessibility event.
  void recordEvent();

  /// Counts an analysis pass. `debounceLatency` is the simulated-clock
  /// time the screen waited for ct stability (trigger event -> analysis).
  void beginAnalysis(Millis debounceLatency = {});

  /// Stage executed, costing `cpuMs` of modeled CPU.
  void recordRun(Stage stage, double cpuMs);
  /// `n` executions of the same stage at `cpuMsEach` (bench convenience).
  void recordRuns(Stage stage, std::int64_t n, double cpuMsEach);
  /// Stage skipped by pipeline routing (cache hit, lint short-circuit...).
  void recordSkip(Stage stage);

  /// One decoration overlay added / one bypass click dispatched. Both
  /// record under Stage::kAct at the table cost and keep their own counts
  /// (the device model's frame-pacing term only cares about decorations).
  void recordDecoration();
  void recordBypass();

  void recordCacheHit();
  void recordCacheMiss();

  /// One screen capture of `bytes`: raises peakFrameBytes when larger.
  /// Adds no modeled CPU.
  void recordFrameBytes(std::size_t bytes);

  /// Measured wall-clock microseconds for a stage execution whose modeled
  /// cost was recorded elsewhere (or not at all). Pure observability.
  void recordActual(Stage stage, double actualUs);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] const StageTally& tally(Stage stage) const {
    return tallies_[static_cast<std::size_t>(stage)];
  }
  /// Modeled CPU-ms across every stage (events included).
  [[nodiscard]] double totalCpuMs() const;
  /// Modeled CPU-ms of the analysis path only (everything but kEvent).
  [[nodiscard]] double analysisCpuMs() const;

  [[nodiscard]] std::int64_t analyses() const { return analyses_; }
  [[nodiscard]] std::int64_t decorations() const { return decorations_; }
  [[nodiscard]] std::int64_t bypassClicks() const { return bypassClicks_; }
  [[nodiscard]] std::int64_t cacheHits() const { return cacheHits_; }
  [[nodiscard]] std::int64_t cacheMisses() const { return cacheMisses_; }

  /// Largest single screen capture recorded — the per-frame working-set
  /// term perf::DeviceModel adds to the Table VII memory row.
  [[nodiscard]] std::int64_t peakFrameBytes() const { return peakFrameBytes_; }

  /// Simulated-clock time screens spent waiting for ct stability.
  [[nodiscard]] Millis totalDebounceLatency() const {
    return totalDebounceLatency_;
  }

  /// Merges another ledger's tallies/counters (per-app session roll-up and
  /// the fleet roll-up). Per the thread-ownership rule above, `o`'s owning
  /// session must be quiescent.
  WorkLedger& operator+=(const WorkLedger& o);

 private:
  // Every member is session-confined per the thread-ownership rule above:
  // no lock anywhere in this class is not an accident, it is the contract.
  // CONFINED_TO documents it where the state lives; cross-session merges
  // (+=) read only quiescent sessions.
  StageCosts costs_ CONFINED_TO("owning session");
  std::array<StageTally, kStageCount> tallies_ CONFINED_TO("owning session"){};
  std::int64_t analyses_ = 0;
  std::int64_t decorations_ = 0;
  std::int64_t bypassClicks_ = 0;
  std::int64_t cacheHits_ = 0;
  std::int64_t cacheMisses_ = 0;
  Millis totalDebounceLatency_{0};
  std::int64_t peakFrameBytes_ = 0;  ///< Max single recorded buffer.
};

}  // namespace darpa::core
