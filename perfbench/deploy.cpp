#include "deploy.hpp"

#include <algorithm>
#include <map>

#include "rounds.hpp"
#include "wasm/binary.hpp"
#include "workloads/faas_functions.hpp"

namespace perfbench {

using namespace acctee;

wasm::Module gateway_function(Workload workload) {
  return workload == Workload::ResizeBilled ? workloads::faas_resize()
                                            : workloads::faas_echo();
}

uint64_t checkpoint_interval(Workload workload) {
  return workload == Workload::ResizeBilled ? kResizeCheckpointInterval : 0;
}

std::vector<uint64_t> signatures_per_request(Workload workload,
                                             const GatewayInputs& inputs) {
  std::vector<uint64_t> signatures(inputs.requests.size(), 1);
  const uint64_t interval = checkpoint_interval(workload);
  if (interval == 0) return signatures;
  interp::CompiledModulePtr instrumented = interp::compile(
      instrument::instrument(gateway_function(workload), instrument_options())
          .module);
  // A request's instruction count depends only on its input's size.
  std::map<size_t, uint64_t> interim_by_size;
  for (size_t i = 0; i < signatures.size(); ++i) {
    const Bytes& input = inputs.requests[i].input;
    auto it = interim_by_size.find(input.size());
    if (it == interim_by_size.end()) {
      it = interim_by_size
               .emplace(input.size(),
                        count_checkpoints(instrumented, interval, input))
               .first;
    }
    signatures[i] += it->second;
  }
  return signatures;
}

uint32_t signing_capacity_for(uint64_t logs) {
  uint64_t checkpoints =
      (logs + kLedgerCheckpointEvery - 1) / kLedgerCheckpointEvery;
  return static_cast<uint32_t>(logs + checkpoints + kKeyMargin);
}

namespace {

core::AccountingEnclave::Config base_ae_config(const crypto::Digest& ie) {
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie;
  config.instrumentation = instrument_options();
  return config;
}

}  // namespace

std::unique_ptr<faas::ShardedGateway> make_gateway(Workload workload,
                                                   SpanRecorder* spans) {
  faas::ShardedGatewayConfig config;
  config.base.setup = faas::Setup::WasmSgxHwIo;
  config.base.workers = kShards;
  config.shards = kShards;
  config.workers_per_shard = 1;
  SpanRecorder::Scope s(spans, "faas.gateway_construct");
  return std::make_unique<faas::ShardedGateway>(gateway_function(workload),
                                                "run", config);
}

GatewayInputs make_gateway_inputs(Workload workload, uint64_t seed,
                                  const faas::ShardedGateway& gateway) {
  Router shard_of = [&gateway](const std::string& tenant) {
    return gateway.shard_for(tenant);
  };
  return workload == Workload::ResizeBilled ? make_resize_inputs(seed, shard_of)
                                            : make_echo_inputs(seed, shard_of);
}

GatewayDeployment deploy_gateway(Workload workload,
                                 std::unique_ptr<faas::ShardedGateway> gateway,
                                 const GatewayInputs& inputs,
                                 const std::vector<uint64_t>& signatures,
                                 SpanRecorder* spans) {
  GatewayDeployment d;
  d.gateway = std::move(gateway);
  d.binary = wasm::encode(gateway_function(workload));
  const uint64_t cold_starts = inputs.cold_starts.size();
  d.ie_host = std::make_unique<sgx::Platform>("perfbench-ie-host",
                                              to_bytes("perfbench-ie-seed"));
  {
    SpanRecorder::Scope s(spans, "core.ie_construct");
    d.ie = std::make_unique<core::InstrumentationEnclave>(
        *d.ie_host, instrument_options(),
        static_cast<uint32_t>(1 + cold_starts + kKeyMargin));
  }
  {
    SpanRecorder::Scope s(spans, "core.ie_instrument");
    d.deployed = d.ie->instrument_binary(d.binary);
  }
  // One worker per shard: the tenant hash fixes each worker's signatures.
  std::vector<uint64_t> per_shard(kShards, 0);
  for (size_t i = 0; i < inputs.requests.size(); ++i) {
    per_shard[d.gateway->shard_for(inputs.requests[i].tenant)] += signatures[i];
  }
  const uint64_t busiest = *std::max_element(per_shard.begin(), per_shard.end());
  d.worker_config = base_ae_config(d.ie->identity());
  d.worker_config.checkpoint_interval = checkpoint_interval(workload);
  d.worker_config.signing_capacity = signing_capacity_for(busiest);
  {
    SpanRecorder::Scope s(spans, "faas.deploy_billing");
    d.gateway->deploy_billing("perfbench-cloud", to_bytes("perfbench-cloud-seed"),
                              d.worker_config, d.deployed.instrumented_binary,
                              d.deployed.evidence, kLedgerCheckpointEvery);
  }
  core::AccountingEnclave::Config cold = base_ae_config(d.ie->identity());
  cold.prepared_cache_capacity = 0;
  cold.signing_capacity = signing_capacity_for(cold_starts);
  d.cold_host = std::make_unique<sgx::Platform>("perfbench-cold-host",
                                                to_bytes("perfbench-cold-seed"));
  {
    SpanRecorder::Scope s(spans, "core.cold_ae_construct");
    d.cold_ae = std::make_unique<core::AccountingEnclave>(*d.cold_host, cold);
  }
  d.keys_derived = 1 + cold_starts + kKeyMargin +
                   uint64_t{kShards} * d.worker_config.signing_capacity +
                   cold.signing_capacity;
  return d;
}

void BillingPlane::record(const std::string& tenant,
                          const core::ResourceUsageLog& log) {
  const std::string labels = obs::label_pair("tenant", tenant) + "," +
                             obs::label_pair("function", "run");
  registry_.counter("acctee_billing_logs_total", labels).inc();
  registry_.counter("acctee_billing_weighted_instructions_total", labels)
      .add(log.weighted_instructions);
  registry_.counter("acctee_billing_peak_memory_bytes_total", labels)
      .add(log.peak_memory_bytes);
  registry_.counter("acctee_billing_memory_integral_total", labels)
      .add(log.memory_integral);
  registry_.counter("acctee_billing_io_bytes_in_total", labels)
      .add(log.io_bytes_in);
  registry_.counter("acctee_billing_io_bytes_out_total", labels)
      .add(log.io_bytes_out);
}

Onboarded onboard(core::InstrumentationEnclave& ie, core::AccountingEnclave& ae,
                  audit::Ledger& ledger, const Bytes& binary,
                  const std::string& tenant, const Bytes& input) {
  Onboarded o;
  auto t0 = Clock::now();
  auto instrumented = ie.instrument_binary(binary);
  auto prepared =
      ae.prepare(instrumented.instrumented_binary, instrumented.evidence);
  auto t1 = Clock::now();
  o.outcome = ae.execute(*prepared, "run", {}, input);
  o.verified = o.outcome.signed_log.verify(ae.identity());
  if (o.verified) ledger.append({tenant, "run", o.outcome.signed_log});
  o.request_ms = seconds_since(t1) * 1e3;
  o.cold_ms = seconds_since(t0) * 1e3;
  return o;
}

uint64_t ledger_entries(const std::vector<const audit::Ledger*>& ledgers) {
  uint64_t n = 0;
  for (const audit::Ledger* l : ledgers) n += l->entries().size();
  return n;
}

uint64_t ledger_checkpoints(const std::vector<const audit::Ledger*>& ledgers) {
  uint64_t n = 0;
  for (const audit::Ledger* l : ledgers) n += l->checkpoints().size();
  return n;
}

uint64_t ledger_bytes(const std::vector<const audit::Ledger*>& ledgers) {
  uint64_t n = 0;
  for (const audit::Ledger* l : ledgers) n += l->serialize().size();
  return n;
}

ModuleDeployment deploy_modules(size_t modules, SpanRecorder* spans) {
  ModuleDeployment d;
  d.ie_host = std::make_unique<sgx::Platform>("perfbench-ie-host",
                                              to_bytes("perfbench-ie-seed"));
  d.cloud = std::make_unique<sgx::Platform>("perfbench-cloud",
                                            to_bytes("perfbench-cloud-seed"));
  const uint32_t ie_capacity = static_cast<uint32_t>(modules) + kKeyMargin;
  {
    SpanRecorder::Scope s(spans, "core.ie_construct");
    d.ie = std::make_unique<core::InstrumentationEnclave>(
        *d.ie_host, instrument_options(), ie_capacity);
  }
  core::AccountingEnclave::Config config = base_ae_config(d.ie->identity());
  config.signing_capacity = signing_capacity_for(modules);
  {
    SpanRecorder::Scope s(spans, "core.ae_construct");
    d.ae = std::make_unique<core::AccountingEnclave>(*d.cloud, config);
  }
  d.ledger = std::make_unique<audit::Ledger>(kLedgerCheckpointEvery);
  d.ledger->set_ae_identity(d.ae->identity());
  core::AccountingEnclave* ae = d.ae.get();
  d.ledger->set_checkpoint_signer(
      [ae](BytesView payload) { return ae->sign_checkpoint(payload); });
  d.keys_derived = ie_capacity + config.signing_capacity;
  return d;
}

}  // namespace perfbench
