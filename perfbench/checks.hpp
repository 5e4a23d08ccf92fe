// Correctness checks of one round, kept apart from the code that runs the
// round so that the self-test can feed them deliberately broken evidence.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/ledger.hpp"
#include "audit/reconcile.hpp"
#include "audit/verifier.hpp"
#include "faas/sharded_gateway.hpp"
#include "inputs.hpp"

namespace perfbench {

class Problems {
 public:
  void add(std::string problem);
  bool ok() const { return count_ == 0; }
  size_t count() const { return count_; }
  /// The first few problems, for the report.
  const std::vector<std::string>& shown() const { return shown_; }

 private:
  size_t count_ = 0;
  std::vector<std::string> shown_;
};

/// What the ledgers billed for one request: its final log, found by the
/// trace id the gateway derives from (tenant, per-tenant admission ordinal).
struct BilledRequest {
  bool found = false;
  uint64_t weighted = 0;
  uint64_t io_bytes_in = 0;
  uint64_t io_bytes_out = 0;
};

/// Matches every request to its final log. The k-th request of a tenant in
/// stream order is that tenant's k-th admission: one producer and one
/// worker per shard keep each shard's queue in stream order.
std::vector<BilledRequest> billed_per_request(
    const std::vector<acctee::faas::Request>& requests,
    const std::vector<const acctee::audit::Ledger*>& ledgers);

/// Everything a gateway round produced that the checks look at.
struct GatewayEvidence {
  const std::vector<acctee::faas::Request>* requests = nullptr;
  const std::vector<Bytes>* expected = nullptr;
  std::vector<Bytes> outputs;
  std::vector<uint64_t> reference_weighted;  // uninstrumented, per request
  std::vector<BilledRequest> billed;
  acctee::audit::LedgerSetReport set_report;
  acctee::audit::ReconcileReport reconcile_report;
  std::map<std::string, acctee::audit::UsageTotals> gateway_totals;
  uint64_t executed = 0;
  uint64_t shed = 0;
  uint64_t quota_rejected = 0;
  double service_seconds = 0;  // sum of per-request service times
  double wall_seconds = 0;
  uint32_t workers = 0;
};

void check_gateway(const GatewayEvidence& e, Problems& problems);

/// Everything a polybench_cold round produced that the checks look at.
struct ModuleEvidence {
  const std::vector<ModuleInput>* modules = nullptr;
  std::vector<std::vector<uint64_t>> result_bits;     // billed runs
  std::vector<std::vector<uint64_t>> reference_bits;  // uninstrumented runs
  std::vector<uint64_t> reference_weighted;
  std::vector<uint64_t> billed_weighted;  // final log of module i
  acctee::audit::LedgerSetReport set_report;
  acctee::audit::ReconcileReport reconcile_report;
};

/// Weighted instructions of every final log of `ledger`, in ledger order
/// (the polybench_cold round appends one final log per module, in order).
std::vector<uint64_t> billed_per_module(const acctee::audit::Ledger& ledger);

void check_modules(const ModuleEvidence& e, Problems& problems);

}  // namespace perfbench
