// Set-up of each workload — enclave construction (one-time key derivation
// included), instrumenting the deployed function, deploy_billing — and the
// billing steps the untraced rounds and the traced replay share.
#pragma once

#include <memory>
#include <vector>

#include "audit/ledger.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "faas/sharded_gateway.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "sgx/platform.hpp"
#include "spans.hpp"

namespace perfbench {

/// The function a gateway workload deploys.
acctee::wasm::Module gateway_function(Workload workload);
/// 0 (final logs only) for echo_billed, kResizeCheckpointInterval for
/// resize_billed.
uint64_t checkpoint_interval(Workload workload);

/// Signatures each request draws from its worker AE: the final log plus
/// the interim logs its run emits, counted on a plain instance of the
/// instrumented function (once per distinct input size).
std::vector<uint64_t> signatures_per_request(Workload workload,
                                             const GatewayInputs& inputs);

/// Signing capacity for an AE that signs `logs` logs into a ledger that
/// checkpoints every kLedgerCheckpointEvery entries, plus kKeyMargin.
uint32_t signing_capacity_for(uint64_t logs);

struct GatewayDeployment {
  std::unique_ptr<acctee::sgx::Platform> ie_host;
  std::unique_ptr<acctee::sgx::Platform> cold_host;
  std::unique_ptr<acctee::core::InstrumentationEnclave> ie;
  Bytes binary;  // the uninstrumented function
  acctee::core::InstrumentationEnclave::Output deployed;
  std::unique_ptr<acctee::faas::ShardedGateway> gateway;
  /// Worker AE configuration; signing_capacity covers the busiest worker.
  acctee::core::AccountingEnclave::Config worker_config;
  /// Onboards the function again and again: prepared-module cache off, so
  /// every prepare misses as a first deploy does.
  std::unique_ptr<acctee::core::AccountingEnclave> cold_ae;
  uint64_t keys_derived = 0;  // one-time keys of every enclave set up
};

/// The gateway a round deploys its function on: kShards shards, one
/// worker each. Built first, since the inputs are balanced over its shards.
std::unique_ptr<acctee::faas::ShardedGateway> make_gateway(Workload workload,
                                                           SpanRecorder* spans);

/// The seeded stream of a gateway workload, balanced over `gateway`'s shards.
GatewayInputs make_gateway_inputs(Workload workload, uint64_t seed,
                                  const acctee::faas::ShardedGateway& gateway);

/// Sets up a gateway round for `inputs` on `gateway`, where request i draws
/// `signatures[i]` signatures. Records set-up spans into `spans` if given.
GatewayDeployment deploy_gateway(
    Workload workload, std::unique_ptr<acctee::faas::ShardedGateway> gateway,
    const GatewayInputs& inputs, const std::vector<uint64_t>& signatures,
    SpanRecorder* spans);

struct ModuleDeployment {
  std::unique_ptr<acctee::sgx::Platform> ie_host;
  std::unique_ptr<acctee::sgx::Platform> cloud;
  std::unique_ptr<acctee::core::InstrumentationEnclave> ie;
  std::unique_ptr<acctee::core::AccountingEnclave> ae;
  std::unique_ptr<acctee::audit::Ledger> ledger;  // checkpoints signed by ae
  uint64_t keys_derived = 0;
};

/// The metrics plane a provider exports next to the AE when it bills
/// without the gateway: acctee_billing_* counters fed from verified final
/// logs, in a registry of its own (the reconcile_set input).
class BillingPlane {
 public:
  void record(const std::string& tenant, const acctee::core::ResourceUsageLog& log);
  std::string scrape() const { return registry_.prometheus(); }

 private:
  acctee::obs::Registry registry_;
};

/// One module onboarded from its binary to its first verified log:
/// IE instrument_binary, AE prepare, one execute, log verify, then (if the
/// log verifies) ledger append.
struct Onboarded {
  acctee::core::AccountingEnclave::Outcome outcome;
  bool verified = false;
  double cold_ms = 0;     // the whole path
  double request_ms = 0;  // execute + verify + append
};

Onboarded onboard(acctee::core::InstrumentationEnclave& ie,
                  acctee::core::AccountingEnclave& ae,
                  acctee::audit::Ledger& ledger, const Bytes& binary,
                  const std::string& tenant, const Bytes& input);

uint64_t ledger_entries(const std::vector<const acctee::audit::Ledger*>& ledgers);
uint64_t ledger_checkpoints(
    const std::vector<const acctee::audit::Ledger*>& ledgers);
/// Serialized size of the ledgers, in bytes.
uint64_t ledger_bytes(const std::vector<const acctee::audit::Ledger*>& ledgers);

/// Sets up a polybench_cold round that onboards `modules` modules.
ModuleDeployment deploy_modules(size_t modules, SpanRecorder* spans);

}  // namespace perfbench
