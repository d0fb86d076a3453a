// WorkLedger — the one account of a session's run-time work.
//
// Every outcome of the Fig.-5 life-cycle is recorded by one ledger call,
// and the ledger is the only place that counts it:
//
//  * per-stage tallies (runs, skips, modeled CPU-ms) for every pipeline
//    stage — event handling, lint, screenshot, CV detection, verdict
//    merge, act (decorate/bypass);
//  * the session's counts (DarpaStats): events, analyses, captures,
//    flagged AUIs, decorations, bypass clicks, lint resolutions, verdict
//    cache and tier hits, anchor measurements;
//  * verdict-cache misses;
//  * the peak single-frame footprint (peakFrameBytes), folded into the
//    Table VII memory row by perf::DeviceModel.
//
// The per-operation CPU costs are one constant, kStageCosts. In src/ only
// the ledger reads it: each record call prices its own outcome, so a stage
// tally can never run ahead of, or behind, the count it belongs to.
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
/// core.
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

/// The one cost table. The ledger's record calls price every outcome with
/// it; benches and tests read it to state what a priced run costs.
inline constexpr StageCosts kStageCosts{};

/// A session's counts: what DARPA received and did. Only WorkLedger's
/// record calls write them; fleets add them with += once the run is over.
struct DarpaStats {
  std::int64_t eventsReceived = 0;
  std::int64_t analysesRun = 0;
  /// Successful captures only.
  std::int64_t screenshotsTaken = 0;
  std::int64_t auisFlagged = 0;
  std::int64_t decorationsDrawn = 0;
  std::int64_t bypassClicks = 0;
  /// Static pre-filter passes.
  std::int64_t lintRuns = 0;
  /// Analyses resolved without CV.
  std::int64_t cvSkippedByLint = 0;
  /// Analyses served from the session L1 cache.
  std::int64_t verdictCacheHits = 0;
  /// Analyses served from the fleet-wide L2 tier (disjoint from
  /// verdictCacheHits: each cache-served analysis counts in exactly one).
  std::int64_t verdictTierHits = 0;
  /// §IV-D offset calibrations.
  std::int64_t anchorMeasurements = 0;

  DarpaStats& operator+=(const DarpaStats& o);
  friend bool operator==(const DarpaStats&, const DarpaStats&) = default;
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
  // --- recording: one call per outcome (called by the service) -------------

  /// One delivered accessibility event.
  void recordEvent();
  /// One analysis pass started.
  void beginAnalysis();
  /// One verdict-cache lookup (L1 or L2), priced under Stage::kVerdict.
  void recordCacheLookup();
  /// The verdict-cache probe was served by the session L1 / the fleet L2,
  /// or by neither.
  void recordCacheHit();
  void recordTierHit();
  void recordCacheMiss();
  /// One static lint pass; a confident verdict resolves the analysis
  /// without CV.
  void recordLint(bool confident);
  /// One usable screen capture of `bytes`: raises peakFrameBytes when
  /// larger.
  void recordScreenshot(std::size_t bytes);
  /// One detector run costing `macs` multiply-accumulates.
  void recordDetect(double macs);
  /// One verdict merge.
  void recordVerdict();
  /// One analysis flagged its screen as an AUI.
  void recordAuiFlagged();
  /// One decoration overlay added / one bypass click dispatched. Both
  /// record under Stage::kAct at the table cost.
  void recordDecoration();
  void recordBypass();
  /// One §IV-D anchor-view offset measurement.
  void recordAnchorMeasurement();

  /// Stage skipped by pipeline routing (cache hit, lint short-circuit...).
  void recordSkip(Stage stage);

  /// Measured wall-clock microseconds for a stage execution whose modeled
  /// cost was recorded elsewhere (or not at all). Pure observability.
  void recordActual(Stage stage, double actualUs);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] const StageTally& tally(Stage stage) const {
    return tallies_[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] const DarpaStats& counts() const { return counts_; }
  /// Modeled CPU-ms across every stage (events included).
  [[nodiscard]] double totalCpuMs() const;
  /// Modeled CPU-ms of the analysis path only (everything but kEvent).
  [[nodiscard]] double analysisCpuMs() const;

  /// Analyses served by either cache tier.
  [[nodiscard]] std::int64_t cacheHits() const {
    return counts_.verdictCacheHits + counts_.verdictTierHits;
  }
  [[nodiscard]] std::int64_t cacheMisses() const { return cacheMisses_; }

  /// Largest single screen capture recorded — the per-frame working-set
  /// term perf::DeviceModel adds to the Table VII memory row.
  [[nodiscard]] std::int64_t peakFrameBytes() const { return peakFrameBytes_; }

  /// Merges another ledger's tallies/counters (per-app session roll-up and
  /// the fleet roll-up). Per the thread-ownership rule above, `o`'s owning
  /// session must be quiescent.
  WorkLedger& operator+=(const WorkLedger& o);

 private:
  /// Stage executed, costing `cpuMs` of modeled CPU. Private, so that
  /// every priced run comes with its count from one record call above.
  void recordRun(Stage stage, double cpuMs);

  // Every member is session-confined per the thread-ownership rule above:
  // no lock anywhere in this class is not an accident, it is the contract.
  // CONFINED_TO documents it where the state lives; cross-session merges
  // (+=) read only quiescent sessions.
  std::array<StageTally, kStageCount> tallies_ CONFINED_TO("owning session"){};
  DarpaStats counts_ CONFINED_TO("owning session");
  std::int64_t cacheMisses_ CONFINED_TO("owning session") = 0;
  /// Max single recorded buffer.
  std::int64_t peakFrameBytes_ CONFINED_TO("owning session") = 0;
};

}  // namespace darpa::core
