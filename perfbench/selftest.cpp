#include "selftest.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace perfbench {

using namespace acctee;

namespace {

/// `ledger` with the first entry's billed weighted instructions raised by
/// one in its stored bytes, signature untouched; nullopt if the log's
/// canonical bytes cannot be found in the ledger file.
std::optional<audit::Ledger> tamper_first_entry(const audit::Ledger& ledger) {
  if (ledger.entries().empty()) return std::nullopt;
  Bytes file = ledger.serialize();
  const core::ResourceUsageLog& log = ledger.entries()[0].signed_log.log;
  core::ResourceUsageLog forged = log;
  forged.weighted_instructions += 1;
  Bytes canonical = log.serialize();
  Bytes forged_bytes = forged.serialize();
  auto at = std::search(file.begin(), file.end(), canonical.begin(),
                        canonical.end());
  if (at == file.end() || forged_bytes.size() != canonical.size()) {
    return std::nullopt;
  }
  std::copy(forged_bytes.begin(), forged_bytes.end(), at);
  return audit::Ledger::deserialize(file);
}

/// One case: runs `check` and compares the verdict with the expectation.
template <typename Evidence, typename Check>
bool run_case(const char* name, const Evidence& evidence, Check check,
              bool expect_ok) {
  Problems problems;
  check(evidence, problems);
  const bool pass = problems.ok() == expect_ok;
  std::fprintf(stderr, "selftest %-24s %s (%s)\n", name,
               pass ? "PASS" : "FAIL",
               problems.ok() ? "checks pass"
                             : ("checks report: " + problems.shown()[0]).c_str());
  return pass;
}

}  // namespace

bool selftest_gateway(const GatewayEvidence& clean,
                      const std::vector<const audit::Ledger*>& ledgers,
                      const std::vector<crypto::Digest>& identities,
                      const std::string& scrape) {
  bool ok = run_case("clean_round", clean, check_gateway, true);

  GatewayEvidence flipped = clean;
  flipped.outputs[0][0] ^= 0xff;
  ok &= run_case("flipped_output_byte", flipped, check_gateway, false);

  GatewayEvidence off_by_one = clean;
  off_by_one.billed[0].weighted += 1;
  ok &= run_case("off_by_one_billed_count", off_by_one, check_gateway, false);

  std::optional<audit::Ledger> tampered = tamper_first_entry(*ledgers[0]);
  if (!tampered) {
    std::fprintf(stderr, "selftest tampered_ledger_entry    FAIL (no entry)\n");
    return false;
  }
  std::vector<const audit::Ledger*> set = ledgers;
  set[0] = &*tampered;
  GatewayEvidence forged = clean;
  forged.set_report = audit::verify_ledger_set(set, identities);
  forged.reconcile_report = audit::reconcile_set(set, scrape, 0.0);
  forged.billed = billed_per_request(*clean.requests, set);
  ok &= run_case("tampered_ledger_entry", forged, check_gateway, false);
  return ok;
}

bool selftest_modules(const ModuleEvidence& clean, const audit::Ledger& ledger,
                      const crypto::Digest& identity,
                      const std::string& scrape) {
  bool ok = run_case("clean_round", clean, check_modules, true);

  ModuleEvidence flipped = clean;
  flipped.result_bits[0][0] ^= 0xff;
  ok &= run_case("flipped_output_byte", flipped, check_modules, false);

  ModuleEvidence off_by_one = clean;
  off_by_one.billed_weighted[0] += 1;
  ok &= run_case("off_by_one_billed_count", off_by_one, check_modules, false);

  std::optional<audit::Ledger> tampered = tamper_first_entry(ledger);
  if (!tampered) {
    std::fprintf(stderr, "selftest tampered_ledger_entry    FAIL (no entry)\n");
    return false;
  }
  ModuleEvidence forged = clean;
  forged.set_report = audit::verify_ledger_set({&*tampered}, {identity});
  forged.reconcile_report = audit::reconcile_set({&*tampered}, scrape, 0.0);
  forged.billed_weighted = billed_per_module(*tampered);
  ok &= run_case("tampered_ledger_entry", forged, check_modules, false);
  return ok;
}

}  // namespace perfbench
