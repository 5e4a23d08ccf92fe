// One untraced round of a workload: set-up, serve, cold start, audit, then
// the correctness checks. A run of the benchmark is a sequence of rounds,
// each in a fresh process, so that every round's set-up is a cold one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RoundOutput {
  Problems problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The end-to-end metrics.
  std::vector<Metric> metrics;
  /// Figures reported for reference only (the simulated-cycle Fig. 9
  /// throughput of the same stream).
  std::vector<Metric> reference;
};

/// Runs one round on the inputs of `seed`. `process_start` is when the
/// process began: set-up time is counted from it. With `selftest_ok`, the
/// round's evidence also goes through the checks' self-test, whose verdict
/// is stored there.
RoundOutput run_round(Workload workload, uint64_t seed,
                      Clock::time_point process_start,
                      bool* selftest_ok = nullptr);

/// Operations a round of `workload` attempts: its billed requests and cold
/// starts, or its modules.
uint64_t round_operations(Workload workload);

/// Times a round audits its ledgers: each pass is the whole offline audit
/// (scrape, verify_ledger_set, reconcile_set), and the round reports the
/// median pass. The polybench_cold ledger is small, so it takes more.
uint32_t audit_passes(Workload workload);

// Shapes shared by the untraced rounds and the traced replay.
inline constexpr size_t kLedgerCheckpointEvery = 64;
inline constexpr uint32_t kKeyMargin = 4;
/// resize_billed: an interim log every this many executed instructions
/// (2 interim logs per request, 3 at 160 px).
inline constexpr uint64_t kResizeCheckpointInterval = 750'000;

}  // namespace perfbench
