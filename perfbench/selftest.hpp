// Self-test of the correctness checks: the checks must pass a clean round
// and report each of three broken copies of it as incorrect — a flipped
// output byte, an off-by-one billed count and a tampered ledger entry.
#pragma once

#include <string>
#include <vector>

#include "audit/ledger.hpp"
#include "checks.hpp"

namespace perfbench {

/// Returns true iff the clean evidence passes and every broken copy fails.
/// Prints one line per case to stderr.
bool selftest_gateway(const GatewayEvidence& clean,
                      const std::vector<const acctee::audit::Ledger*>& ledgers,
                      const std::vector<acctee::crypto::Digest>& identities,
                      const std::string& scrape);

bool selftest_modules(const ModuleEvidence& clean,
                      const acctee::audit::Ledger& ledger,
                      const acctee::crypto::Digest& identity,
                      const std::string& scrape);

}  // namespace perfbench
