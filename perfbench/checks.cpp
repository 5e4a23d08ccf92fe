#include "checks.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

using namespace acctee;

void Problems::add(std::string problem) {
  ++count_;
  if (shown_.size() < 8) shown_.push_back(std::move(problem));
}

std::vector<BilledRequest> billed_per_request(
    const std::vector<faas::Request>& requests,
    const std::vector<const audit::Ledger*>& ledgers) {
  std::map<std::pair<uint64_t, uint64_t>, const core::ResourceUsageLog*> finals;
  for (const audit::Ledger* ledger : ledgers) {
    for (const audit::LedgerEntry& entry : ledger->entries()) {
      const core::ResourceUsageLog& log = entry.signed_log.log;
      if (log.is_final) finals[{log.trace_hi, log.trace_lo}] = &log;
    }
  }
  std::map<std::string, uint64_t> admissions;
  std::vector<BilledRequest> billed(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    obs::TraceContext ctx = obs::make_trace_context(
        requests[i].tenant, admissions[requests[i].tenant]++);
    auto it = finals.find({ctx.trace_hi, ctx.trace_lo});
    if (it == finals.end()) continue;
    billed[i] = {true, it->second->weighted_instructions,
                 it->second->io_bytes_in, it->second->io_bytes_out};
  }
  return billed;
}

namespace {

/// The fields of a bill the benchmark can tally on its own.
bool same_tallied_fields(const audit::UsageTotals& a,
                         const audit::UsageTotals& b) {
  return a.final_logs == b.final_logs &&
         a.weighted_instructions == b.weighted_instructions &&
         a.io_bytes_in == b.io_bytes_in && a.io_bytes_out == b.io_bytes_out;
}

void check_tally(const std::map<std::string, audit::UsageTotals>& billed,
                 const std::map<std::string, audit::UsageTotals>& tally,
                 const char* plane, Problems& problems) {
  if (billed.size() != tally.size()) {
    problems.add(std::string(plane) + " bills " +
                 std::to_string(billed.size()) + " tenants, expected " +
                 std::to_string(tally.size()));
  }
  for (const auto& [tenant, expected] : tally) {
    auto it = billed.find(tenant);
    if (it == billed.end() || !same_tallied_fields(it->second, expected)) {
      problems.add(std::string(plane) + " totals of " + tenant +
                   " differ from the benchmark's own tally");
    }
  }
}

void check_audit(const audit::LedgerSetReport& set_report,
                 const audit::ReconcileReport& reconcile_report,
                 Problems& problems) {
  if (!set_report.ok) {
    problems.add("verify_ledger_set failed: " + set_report.to_string());
  }
  if (!reconcile_report.ok) {
    problems.add("reconcile_set failed: " + reconcile_report.to_string());
  }
}

}  // namespace

void check_gateway(const GatewayEvidence& e, Problems& problems) {
  const std::vector<faas::Request>& requests = *e.requests;
  const size_t n = requests.size();
  if (e.executed != n || e.shed != 0 || e.quota_rejected != 0) {
    problems.add("executed " + std::to_string(e.executed) + " of " +
                 std::to_string(n) + " requests (shed " +
                 std::to_string(e.shed) + ", quota-rejected " +
                 std::to_string(e.quota_rejected) + ")");
  }
  if (e.outputs.size() != n || e.billed.size() != n ||
      e.reference_weighted.size() != n) {
    problems.add("evidence does not cover every request");
    return;
  }
  check_audit(e.set_report, e.reconcile_report, problems);
  std::map<std::string, audit::UsageTotals> tally;
  for (size_t i = 0; i < n; ++i) {
    const Bytes& expected = (*e.expected)[i];
    if (e.outputs[i] != expected) {
      problems.add("response " + std::to_string(i) +
                   " differs from the reference");
    }
    const BilledRequest& b = e.billed[i];
    if (!b.found) {
      problems.add("request " + std::to_string(i) + " has no final log");
    } else if (b.weighted != e.reference_weighted[i] ||
               b.io_bytes_in != requests[i].input.size() ||
               b.io_bytes_out != expected.size()) {
      problems.add("request " + std::to_string(i) + " billed " +
                   std::to_string(b.weighted) + " weighted instructions, " +
                   "uninstrumented run counts " +
                   std::to_string(e.reference_weighted[i]));
    }
    audit::UsageTotals& t = tally[requests[i].tenant];
    t.final_logs += 1;
    t.weighted_instructions += e.reference_weighted[i];
    t.io_bytes_in += requests[i].input.size();
    t.io_bytes_out += expected.size();
  }
  if (e.set_report.merged_totals != e.gateway_totals) {
    problems.add("ledger totals differ from the gateway's billing_totals()");
  }
  check_tally(e.set_report.merged_totals, tally, "ledger", problems);
  check_tally(e.gateway_totals, tally, "gateway", problems);
  if (e.service_seconds > e.workers * e.wall_seconds) {
    problems.add("service time exceeds workers x wall time");
  }
}

std::vector<uint64_t> billed_per_module(const audit::Ledger& ledger) {
  std::vector<uint64_t> billed;
  for (const audit::LedgerEntry& entry : ledger.entries()) {
    if (entry.signed_log.log.is_final) {
      billed.push_back(entry.signed_log.log.weighted_instructions);
    }
  }
  return billed;
}

void check_modules(const ModuleEvidence& e, Problems& problems) {
  const std::vector<ModuleInput>& modules = *e.modules;
  const size_t n = modules.size();
  if (e.result_bits.size() != n || e.reference_bits.size() != n ||
      e.reference_weighted.size() != n || e.billed_weighted.size() != n) {
    problems.add("evidence does not cover every module");
    return;
  }
  check_audit(e.set_report, e.reconcile_report, problems);
  std::map<std::string, audit::UsageTotals> tally;
  for (size_t i = 0; i < n; ++i) {
    const std::string label =
        modules[i].kernel + " n=" + std::to_string(modules[i].n);
    if (e.result_bits[i] != e.reference_bits[i]) {
      problems.add(label + ": result differs from the uninstrumented run");
    }
    if (e.billed_weighted[i] != e.reference_weighted[i]) {
      problems.add(label + ": billed " + std::to_string(e.billed_weighted[i]) +
                   " weighted instructions, uninstrumented run counts " +
                   std::to_string(e.reference_weighted[i]));
    }
    audit::UsageTotals& t = tally[modules[i].tenant];
    t.final_logs += 1;
    t.weighted_instructions += e.reference_weighted[i];
  }
  check_tally(e.set_report.merged_totals, tally, "ledger", problems);
}

}  // namespace perfbench
