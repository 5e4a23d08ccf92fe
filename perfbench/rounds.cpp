#include "rounds.hpp"

#include <utility>

#include "deploy.hpp"
#include "selftest.hpp"
#include "wasm/binary.hpp"
#include "workloads/polybench.hpp"

namespace perfbench {

using namespace acctee;

namespace {

RoundOutput run_gateway_round(Workload workload, uint64_t seed,
                              Clock::time_point process_start,
                              bool* selftest_ok) {
  RoundOutput out;
  out.attempted = round_operations(workload);

  // --- Set-up, counted from the process start. ---
  std::unique_ptr<faas::ShardedGateway> gateway = make_gateway(workload, nullptr);
  GatewayInputs in = make_gateway_inputs(workload, seed, *gateway);
  const size_t n = in.requests.size();
  const size_t cold_starts = in.cold_starts.size();
  std::vector<uint64_t> signatures = signatures_per_request(workload, in);
  GatewayDeployment d =
      deploy_gateway(workload, std::move(gateway), in, signatures, nullptr);
  const double setup_s = seconds_since(process_start);

  // --- Serve the stream: one producer, one worker per shard. ---
  GatewayEvidence e;
  auto t_serve = Clock::now();
  faas::ScenarioResult result = d.gateway->run_scenario(in.requests, 1, &e.outputs);
  const double serve_s = seconds_since(t_serve);

  // --- Cold start of the deployed function, from binary to verified log. ---
  core::AccountingEnclave& cold_ae = *d.cold_ae;
  audit::Ledger cold_ledger(kLedgerCheckpointEvery);
  cold_ledger.set_ae_identity(cold_ae.identity());
  cold_ledger.set_checkpoint_signer(
      [&cold_ae](BytesView payload) { return cold_ae.sign_checkpoint(payload); });
  std::vector<double> cold_ms;
  std::vector<core::AccountingEnclave::Outcome> cold_outcomes;
  auto t_cold = Clock::now();
  for (size_t k = 0; k < cold_starts; ++k) {
    const faas::Request& request = in.requests[in.cold_starts[k]];
    Onboarded o = onboard(*d.ie, cold_ae, cold_ledger, d.binary,
                          request.tenant, request.input);
    if (!o.verified) {
      ++out.failed;
      out.problems.add("cold start " + std::to_string(k) +
                       ": log does not verify");
    }
    cold_ms.push_back(o.cold_ms);
    cold_outcomes.push_back(std::move(o.outcome));
  }
  const double cold_s = seconds_since(t_cold);
  cold_ledger.seal();

  // --- Offline audit of the run's ledgers. ---
  std::vector<const audit::Ledger*> ledgers = d.gateway->ledgers();
  std::string scrape;
  std::vector<double> audit_s;
  for (uint32_t pass = 0; pass < audit_passes(workload); ++pass) {
    auto t_audit = Clock::now();
    scrape = obs::Registry::global().prometheus();
    e.set_report = audit::verify_ledger_set(ledgers, d.gateway->ae_identities());
    e.reconcile_report = audit::reconcile_set(ledgers, scrape, 0.0);
    audit_s.push_back(seconds_since(t_audit));
  }

  // --- Checks against references computed apart from the system. ---
  interp::CompiledModulePtr plain = interp::compile(gateway_function(workload));
  for (const PlainRun& run : plain_runs(n, [&](size_t i) {
         return PlainJob{plain, &in.requests[i].input};
       })) {
    e.reference_weighted.push_back(run.weighted);
  }
  e.requests = &in.requests;
  e.expected = &in.expected;
  e.billed = billed_per_request(in.requests, ledgers);
  e.gateway_totals = d.gateway->billing_totals();
  e.executed = result.totals.requests;
  e.shed = result.shed_total;
  e.quota_rejected = result.quota_rejected_total;
  e.service_seconds = result.totals.latency_mean_ms * 1e-3 *
                      static_cast<double>(result.totals.latency_samples);
  e.wall_seconds = serve_s;
  e.workers = kShards;
  check_gateway(e, out.problems);
  if (selftest_ok != nullptr) {
    *selftest_ok =
        selftest_gateway(e, ledgers, d.gateway->ae_identities(), scrape);
  }
  out.failed += n - std::min<uint64_t>(n, result.totals.requests);
  for (size_t k = 0; k < cold_starts; ++k) {
    const auto& o = cold_outcomes[k];
    const size_t i = in.cold_starts[k];
    if (o.output != in.expected[i] ||
        o.signed_log.log.weighted_instructions != e.reference_weighted[i]) {
      out.problems.add("cold start " + std::to_string(k) +
                       ": response or bill differs from the reference");
    }
  }
  audit::LedgerSetReport cold_report =
      audit::verify_ledger_set({&cold_ledger}, {cold_ae.identity()});
  if (!cold_report.ok) out.problems.add("cold-start ledger does not verify");

  const uint64_t executed = result.totals.requests;
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"billed_rps", static_cast<double>(executed) / serve_s, "req/s"},
      {"request_p50_ms", result.totals.latency_p50_ms, "ms"},
      {"request_p99_ms", result.totals.latency_p99_ms, "ms"},
      {"audit_logs_per_s",
       static_cast<double>(ledger_entries(ledgers)) / median(audit_s),
       "logs/s"},
      {"ledger_bytes_per_request",
       static_cast<double>(ledger_bytes(ledgers)) /
           static_cast<double>(std::max<uint64_t>(executed, 1)),
       "B"},
      {"modules_per_s", static_cast<double>(cold_starts) / cold_s,
       "modules/s"},
      {"cold_p50_ms", median(cold_ms), "ms"},
  };
  out.reference = {
      {"simulated_rps", result.totals.requests_per_second, "req/s"},
      {"keys_derived", static_cast<double>(d.keys_derived), "count"},
  };
  return out;
}

RoundOutput run_module_round(uint64_t seed, Clock::time_point process_start,
                             bool* selftest_ok) {
  RoundOutput out;
  std::vector<ModuleInput> modules = make_polybench_inputs(seed);
  const size_t n = modules.size();
  out.attempted = round_operations(Workload::PolybenchCold);

  // --- Set-up, counted from the process start. ---
  ModuleDeployment d = deploy_modules(n, nullptr);
  const double setup_s = seconds_since(process_start);
  core::AccountingEnclave& ae = *d.ae;

  // --- Onboard every module: instrument, prepare (a cache miss: every
  // binary is new), one billed execution, log verify, ledger append. ---
  ModuleEvidence e;
  e.modules = &modules;
  BillingPlane billing;
  std::vector<double> cold_ms, request_ms;
  auto t_run = Clock::now();
  const Bytes no_input;
  for (const ModuleInput& m : modules) {
    Onboarded o = onboard(*d.ie, ae, *d.ledger, m.binary, m.tenant, no_input);
    if (o.verified) {
      billing.record(m.tenant, o.outcome.signed_log.log);
    } else {
      ++out.failed;
      out.problems.add(m.kernel + ": log does not verify");
    }
    request_ms.push_back(o.request_ms);
    cold_ms.push_back(o.cold_ms);
    std::vector<uint64_t> bits;
    for (const interp::TypedValue& v : o.outcome.results) bits.push_back(v.bits);
    e.result_bits.push_back(std::move(bits));
  }
  const double run_s = seconds_since(t_run);
  d.ledger->seal();

  // --- Offline audit. ---
  std::vector<const audit::Ledger*> ledgers = {d.ledger.get()};
  std::string scrape;
  std::vector<double> audit_s;
  for (uint32_t pass = 0; pass < audit_passes(Workload::PolybenchCold); ++pass) {
    auto t_audit = Clock::now();
    scrape = billing.scrape();
    e.set_report = audit::verify_ledger_set(ledgers, {ae.identity()});
    e.reconcile_report = audit::reconcile_set(ledgers, scrape, 0.0);
    audit_s.push_back(seconds_since(t_audit));
  }

  // --- Checks against the uninstrumented runs. ---
  for (PlainRun& run : plain_runs(n, [&](size_t i) {
         return PlainJob{interp::compile(wasm::decode(modules[i].binary)),
                         &no_input};
       })) {
    e.reference_bits.push_back(std::move(run.result_bits));
    e.reference_weighted.push_back(run.weighted);
  }
  e.billed_weighted = billed_per_module(*d.ledger);
  check_modules(e, out.problems);
  if (selftest_ok != nullptr) {
    *selftest_ok = selftest_modules(e, *d.ledger, ae.identity(), scrape);
  }

  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"billed_rps", static_cast<double>(n) / run_s, "req/s"},
      {"request_p50_ms", percentile(request_ms, 0.50), "ms"},
      {"request_p99_ms", percentile(request_ms, 0.99), "ms"},
      {"audit_logs_per_s",
       static_cast<double>(ledger_entries(ledgers)) / median(audit_s),
       "logs/s"},
      {"ledger_bytes_per_request",
       static_cast<double>(ledger_bytes(ledgers)) / static_cast<double>(n),
       "B"},
      {"modules_per_s", static_cast<double>(n) / run_s, "modules/s"},
      {"cold_p50_ms", percentile(cold_ms, 0.50), "ms"},
  };
  out.reference = {
      {"keys_derived", static_cast<double>(d.keys_derived), "count"},
  };
  return out;
}

}  // namespace

uint64_t round_operations(Workload workload) {
  switch (workload) {
    case Workload::EchoBilled: return kEchoRequests + kEchoColdStarts;
    case Workload::ResizeBilled:
      return kResizeRequests + kResizeColdStartsPerSide * kResizeSideCount;
    case Workload::PolybenchCold:
      return workloads::polybench().size() * kPolybenchSizesPerKernel;
  }
  return 1;
}

uint32_t audit_passes(Workload workload) {
  switch (workload) {
    case Workload::EchoBilled: return 2;
    case Workload::ResizeBilled: return 3;
    case Workload::PolybenchCold: return 12;
  }
  return 1;
}

RoundOutput run_round(Workload workload, uint64_t seed,
                      Clock::time_point process_start, bool* selftest_ok) {
  return workload == Workload::PolybenchCold
             ? run_module_round(seed, process_start, selftest_ok)
             : run_gateway_round(workload, seed, process_start, selftest_ok);
}

}  // namespace perfbench
