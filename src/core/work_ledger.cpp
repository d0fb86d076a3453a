#include "core/work_ledger.h"

#include <algorithm>

namespace darpa::core {

std::string_view stageName(Stage stage) {
  switch (stage) {
    case Stage::kEvent: return "event";
    case Stage::kLint: return "lint";
    case Stage::kScreenshot: return "screenshot";
    case Stage::kDetect: return "detect";
    case Stage::kVerdict: return "verdict";
    case Stage::kAct: return "act";
  }
  return "?";
}

DarpaStats& DarpaStats::operator+=(const DarpaStats& o) {
  eventsReceived += o.eventsReceived;
  analysesRun += o.analysesRun;
  screenshotsTaken += o.screenshotsTaken;
  auisFlagged += o.auisFlagged;
  decorationsDrawn += o.decorationsDrawn;
  bypassClicks += o.bypassClicks;
  lintRuns += o.lintRuns;
  cvSkippedByLint += o.cvSkippedByLint;
  verdictCacheHits += o.verdictCacheHits;
  verdictTierHits += o.verdictTierHits;
  anchorMeasurements += o.anchorMeasurements;
  return *this;
}

void WorkLedger::recordEvent() {
  ++counts_.eventsReceived;
  recordRun(Stage::kEvent, kStageCosts.eventCpuMs);
}

void WorkLedger::beginAnalysis() { ++counts_.analysesRun; }

void WorkLedger::recordCacheLookup() {
  recordRun(Stage::kVerdict, kStageCosts.cacheLookupCpuMs);
}

void WorkLedger::recordCacheHit() { ++counts_.verdictCacheHits; }
void WorkLedger::recordTierHit() { ++counts_.verdictTierHits; }
void WorkLedger::recordCacheMiss() { ++cacheMisses_; }

void WorkLedger::recordLint(bool confident) {
  ++counts_.lintRuns;
  if (confident) ++counts_.cvSkippedByLint;
  recordRun(Stage::kLint, kStageCosts.lintCpuMs);
}

void WorkLedger::recordScreenshot(std::size_t bytes) {
  ++counts_.screenshotsTaken;
  peakFrameBytes_ =
      std::max(peakFrameBytes_, static_cast<std::int64_t>(bytes));
  recordRun(Stage::kScreenshot, kStageCosts.screenshotCpuMs);
}

void WorkLedger::recordDetect(double macs) {
  recordRun(Stage::kDetect, macs / kStageCosts.macsPerCpuMs);
}

void WorkLedger::recordVerdict() {
  recordRun(Stage::kVerdict, kStageCosts.verdictCpuMs);
}

void WorkLedger::recordAuiFlagged() { ++counts_.auisFlagged; }

void WorkLedger::recordDecoration() {
  ++counts_.decorationsDrawn;
  recordRun(Stage::kAct, kStageCosts.decorationCpuMs);
}

void WorkLedger::recordBypass() {
  ++counts_.bypassClicks;
  recordRun(Stage::kAct, kStageCosts.bypassClickCpuMs);
}

void WorkLedger::recordAnchorMeasurement() { ++counts_.anchorMeasurements; }

void WorkLedger::recordRun(Stage stage, double cpuMs) {
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  ++tally.runs;
  tally.cpuMs += cpuMs;
}

void WorkLedger::recordSkip(Stage stage) {
  ++tallies_[static_cast<std::size_t>(stage)].skips;
}

void WorkLedger::recordActual(Stage stage, double actualUs) {
  tallies_[static_cast<std::size_t>(stage)].actualUs += actualUs;
}

double WorkLedger::totalCpuMs() const {
  double total = 0.0;
  for (const StageTally& tally : tallies_) total += tally.cpuMs;
  return total;
}

double WorkLedger::analysisCpuMs() const {
  return totalCpuMs() - tally(Stage::kEvent).cpuMs;
}

WorkLedger& WorkLedger::operator+=(const WorkLedger& o) {
  for (std::size_t i = 0; i < tallies_.size(); ++i) tallies_[i] += o.tallies_[i];
  counts_ += o.counts_;
  cacheMisses_ += o.cacheMisses_;
  // The peak is a max, not a sum: sessions share one frame size.
  peakFrameBytes_ = std::max(peakFrameBytes_, o.peakFrameBytes_);
  return *this;
}

}  // namespace darpa::core
