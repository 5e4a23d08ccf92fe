#include "traced.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "core/runtime_env.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "deploy.hpp"
#include "faas/sequence_authority.hpp"
#include "interp/instance.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"

namespace perfbench {

using namespace acctee;

namespace {

// Sample sizes of the traced run, chosen so one replay pass takes a few
// tenths of a second on every workload.
constexpr size_t kGatewaySegmentRequests[] = {256, 32, 16};
constexpr size_t kReplayRequests[] = {48, 6, 29};
constexpr size_t kReplayColdStarts = 4;  // gateway workloads
constexpr size_t kHashBytes = 64 * 1024;

size_t index_of(Workload w) { return static_cast<size_t>(w); }

/// One module the replay onboards, and the inputs it is then run on.
struct ReplayModule {
  Bytes binary;  // uninstrumented
  std::string tenant;
  std::vector<Bytes> inputs;
};

/// What the replay passes need, rebuilt untimed before each pair of passes
/// so that one-time keys never run out however long the run is.
struct ReplayEnclaves {
  std::unique_ptr<sgx::Platform> ie_host, cloud;
  std::unique_ptr<core::InstrumentationEnclave> ie;
  std::unique_ptr<core::AccountingEnclave> ae;
  std::unique_ptr<audit::Ledger> ledger;
  std::unique_ptr<crypto::Signer> signer;
  std::unique_ptr<faas::SequenceAuthority> sequences;
};

class Replay {
 public:
  Replay(Workload workload, std::vector<ReplayModule> modules,
         uint64_t signatures_per_pass, SpanRecorder& spans, Problems& problems)
      : workload_(workload),
        modules_(std::move(modules)),
        signatures_per_pass_(signatures_per_pass),
        spans_(spans),
        problems_(problems),
        hash_input_(kHashBytes, 0x5a) {}

  void rebuild(uint32_t passes) {
    uint64_t onboardings = modules_.size() * passes;
    e_ = ReplayEnclaves{};
    e_.ie_host = std::make_unique<sgx::Platform>("replay-ie-host",
                                                 to_bytes("replay-ie-seed"));
    e_.cloud = std::make_unique<sgx::Platform>("replay-cloud",
                                               to_bytes("replay-cloud-seed"));
    e_.ie = std::make_unique<core::InstrumentationEnclave>(
        *e_.ie_host, instrument_options(),
        static_cast<uint32_t>(onboardings + kKeyMargin));
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = e_.ie->identity();
    config.instrumentation = instrument_options();
    config.checkpoint_interval = checkpoint_interval(workload_);
    config.prepared_cache_capacity = 0;
    config.signing_capacity =
        signing_capacity_for(signatures_per_pass_ * passes);
    e_.ae = std::make_unique<core::AccountingEnclave>(*e_.cloud, config);
    e_.ledger = std::make_unique<audit::Ledger>(kLedgerCheckpointEvery);
    core::AccountingEnclave* ae = e_.ae.get();
    e_.ledger->set_checkpoint_signer(
        [ae](BytesView payload) { return ae->sign_checkpoint(payload); });
    uint64_t requests = 0;
    for (const ReplayModule& m : modules_) requests += m.inputs.size();
    e_.signer = std::make_unique<crypto::Signer>(
        to_bytes("replay-signer-seed"),
        static_cast<uint32_t>(requests * passes + 1));
    e_.sequences = std::make_unique<faas::SequenceAuthority>();
  }

  /// One pass over every module (cold path by layer) and every request
  /// (billed execution by layer). Returns the operations attempted.
  uint64_t pass() {
    uint64_t ops = 0;
    int64_t request_id = 0;
    for (const ReplayModule& m : modules_) {
      auto prepared = cold(m, request_id++);
      ++ops;
      for (const Bytes& input : m.inputs) {
        request(*prepared, m.tenant, input, request_id++);
        ++ops;
      }
    }
    return ops;
  }

  uint64_t interim_logs() const { return interim_logs_; }
  uint64_t requests() const { return requests_; }
  uint64_t instructions() const { return instructions_; }
  double invoke_seconds() const { return invoke_seconds_; }
  size_t signature_bytes() const { return signature_bytes_; }

 private:
  using Scope = SpanRecorder::Scope;

  std::shared_ptr<const core::AccountingEnclave::PreparedModule> cold(
      const ReplayModule& m, int64_t id) {
    Scope root(&spans_, "cold", id);
    core::InstrumentationEnclave::Output out;
    {
      Scope s(&spans_, "core.ie_instrument");
      out = e_.ie->instrument_binary(m.binary);
    }
    std::shared_ptr<const core::AccountingEnclave::PreparedModule> prepared;
    {
      Scope s(&spans_, "core.ae_prepare");
      prepared = e_.ae->prepare(out.instrumented_binary, out.evidence);
    }
    // The same work again, one layer at a time.
    const instrument::InstrumentOptions options = instrument_options();
    wasm::Module original = wasm::decode(m.binary);
    wasm::Module module;
    {
      Scope s(&spans_, "wasm.decode");
      module = wasm::decode(out.instrumented_binary);
    }
    {
      Scope s(&spans_, "wasm.validate");
      wasm::validate(module);
    }
    {
      Scope s(&spans_, "instrument.pass");
      instrument::instrument(original, options);
    }
    interp::CompiledModulePtr compiled;
    {
      Scope s(&spans_, "interp.compile");
      interp::CompiledModule::CompileOptions copts;
      copts.validate = false;
      compiled = interp::compile(std::move(module), copts);
    }
    const instrument::HostChargePolicy charge =
        instrument::HostChargePolicy::for_module(compiled->module(),
                                                 options.host_call_weight);
    const uint32_t counter = out.evidence.counter_global;
    {
      Scope s(&spans_, "analysis.verify");
      if (!analysis::verify_instrumented_module(compiled->module(),
                                                compiled->flat(), counter,
                                                options.weights, charge)
               .ok) {
        problems_.add("replay: instrumentation does not verify");
      }
    }
    analysis::opt::PipelineResult pipeline;
    {
      Scope s(&spans_, "analysis.opt_pipeline");
      pipeline = analysis::opt::run_pipeline(compiled->module(),
                                             compiled->flat(), counter,
                                             options.opt_level, options.weights,
                                             charge);
    }
    interp::CompiledModulePtr optimised;
    {
      Scope s(&spans_, "interp.lower");
      interp::CompiledModule::CompileOptions copts;
      copts.validate = false;
      copts.lower = compiled->lower_options();
      optimised = std::make_shared<const interp::CompiledModule>(
          compiled->module(), std::move(pipeline.flat), compiled->flat(),
          std::move(copts), true);
    }
    {
      Scope s(&spans_, "analysis.check_lowering");
      if (analysis::check_lowering(*optimised)) {
        problems_.add("replay: lowering does not bind");
      }
    }
    {
      core::IoChannel channel;
      Scope s(&spans_, "interp.instantiate");
      interp::Instance instance(optimised, core::make_runtime_env(&channel),
                                instance_options(true));
    }
    return prepared;
  }

  void request(const core::AccountingEnclave::PreparedModule& prepared,
               const std::string& tenant, const Bytes& input, int64_t id) {
    Scope root(&spans_, "request", id);
    core::AccountingEnclave::Outcome outcome;
    {
      Scope s(&spans_, "core.ae_execute");
      outcome = e_.ae->execute(prepared, "run", {}, input, slot_);
    }
    interim_logs_ += outcome.interim_logs.size();
    ++requests_;
    std::vector<const core::SignedResourceLog*> logs;
    for (const auto& log : outcome.interim_logs) logs.push_back(&log);
    logs.push_back(&outcome.signed_log);
    for (const core::SignedResourceLog* log : logs) {
      bool ok = false;
      {
        Scope s(&spans_, "crypto.verify");
        ok = log->verify(e_.ae->identity());
      }
      {
        Scope s(&spans_, "faas.sequence_accept");
        ok = e_.sequences->accept(e_.ae->identity(), log->log.sequence) && ok;
      }
      if (!ok) problems_.add("replay: log rejected");
      Scope s(&spans_, "audit.append");
      e_.ledger->append({tenant, "run", *log});
    }
    signature_bytes_ = outcome.signed_log.signature.serialize().size();

    // The billed execution again, one layer at a time, on plain instances
    // of the same prepared module.
    Bytes canonical = outcome.signed_log.log.serialize();
    run_plain(prepared, input, true, "interp.invoke");
    run_plain(prepared, input, false, "interp.invoke_nocache");
    {
      Scope s(&spans_, "crypto.sign");
      e_.signer->sign(canonical);
    }
    {
      Scope s(&spans_, "crypto.sha256");
      crypto::sha256(hash_input_);
    }
  }

  interp::Instance::Options instance_options(bool cache_model) const {
    interp::Instance::Options options;
    options.platform = e_.ae->config().platform;
    options.cache_model = cache_model;
    return options;
  }

  void run_plain(const core::AccountingEnclave::PreparedModule& prepared,
                 const Bytes& input, bool cache_model, const char* invoke_span) {
    Plain& p = cache_model ? cached_ : uncached_;
    if (p.instance == nullptr || p.binary_hash != prepared.binary_hash) {
      p.channel = std::make_unique<core::IoChannel>();
      p.instance = std::make_unique<interp::Instance>(
          prepared.compiled, core::make_runtime_env(p.channel.get()),
          instance_options(cache_model));
      p.binary_hash = prepared.binary_hash;
    }
    *p.channel = core::IoChannel{};
    p.channel->input = input;
    {
      Scope s(cache_model ? &spans_ : nullptr, "interp.reset");
      p.instance->reset();
    }
    // The AE's checkpoint cadence, so the run takes the same serial
    // fallbacks as the billed execution.
    if (const uint64_t interval = checkpoint_interval(workload_)) {
      p.instance->set_checkpoint(interval, [](interp::Instance&) {});
    }
    auto t0 = Clock::now();
    {
      Scope s(&spans_, invoke_span);
      p.instance->invoke("run");
    }
    if (cache_model) {
      invoke_seconds_ += seconds_since(t0);
      instructions_ += p.instance->stats().instructions;
    }
  }

  struct Plain {
    crypto::Digest binary_hash{};
    std::unique_ptr<core::IoChannel> channel;
    std::unique_ptr<interp::Instance> instance;
  };

  Workload workload_;
  std::vector<ReplayModule> modules_;
  uint64_t signatures_per_pass_;
  SpanRecorder& spans_;
  Problems& problems_;
  Bytes hash_input_;
  ReplayEnclaves e_;
  core::AccountingEnclave::ExecSlot slot_;
  Plain cached_, uncached_;
  uint64_t interim_logs_ = 0, requests_ = 0, instructions_ = 0;
  double invoke_seconds_ = 0;
  size_t signature_bytes_ = 0;
};

struct LayerStats {
  std::vector<double> total_us, self_us;
};

/// Per span name: durations and self times (duration minus the part its
/// children cover) of every recorded span.
std::map<std::string, LayerStats> layer_stats(const SpanRecorder& spans) {
  const auto& all = spans.spans();
  std::vector<int64_t> child_ns(all.size(), 0);
  for (const auto& s : all) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerStats> stats;
  for (size_t i = 0; i < all.size(); ++i) {
    const double total =
        static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e3;
    LayerStats& l = stats[all[i].name];
    l.total_us.push_back(total);
    l.self_us.push_back(total - static_cast<double>(child_ns[i]) / 1e3);
  }
  return stats;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void write_outputs(const SpanRecorder& spans,
                   const std::map<std::string, LayerStats>& stats,
                   const std::string& stem) {
  std::ofstream jsonl(stem + ".spans.jsonl");
  const auto& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    JsonObject o;
    o.number("id", static_cast<double>(i));
    o.string("name", all[i].name);
    o.number("start_ns", static_cast<double>(all[i].start_ns));
    o.number("end_ns", static_cast<double>(all[i].end_ns));
    o.number("parent", all[i].parent);
    o.number("request", static_cast<double>(all[i].request));
    jsonl << o.str() << "\n";
  }
  std::ofstream table(stem + ".layers.txt");
  char line[256];
  std::snprintf(line, sizeof line, "%-26s %8s %12s %12s %12s\n", "span",
                "count", "p50_us", "self_p50_us", "self_sum_ms");
  table << line;
  for (const auto& [name, l] : stats) {
    std::snprintf(line, sizeof line, "%-26s %8zu %12.2f %12.2f %12.3f\n",
                  name.c_str(), l.total_us.size(), median(l.total_us),
                  median(l.self_us), sum(l.self_us) / 1e3);
    table << line;
  }
}

}  // namespace

RoundOutput run_traced(Workload workload, uint64_t seed, double seconds,
                       const std::string& out_dir) {
  RoundOutput out;
  SpanRecorder spans;
  const size_t w = index_of(workload);
  std::vector<ReplayModule> replay_modules;
  uint64_t signatures_per_pass = 0;
  double keys_derived = 0, busy_share = 0;
  uint64_t audited_logs = 0, checkpoints = 0, gateway_requests = 0;
  auto audit_segment = [&](const std::vector<const audit::Ledger*>& ledgers,
                           const std::vector<crypto::Digest>& identities,
                           const std::string& scrape) {
    bool ok = false;
    {
      SpanRecorder::Scope s(&spans, "audit.verify_ledger_set");
      ok = audit::verify_ledger_set(ledgers, identities).ok;
    }
    {
      SpanRecorder::Scope s(&spans, "audit.reconcile_set");
      ok = audit::reconcile_set(ledgers, scrape, 0.0).ok && ok;
    }
    if (!ok) out.problems.add("traced segment: ledgers do not verify or reconcile");
    audited_logs = ledger_entries(ledgers);
    checkpoints = ledger_checkpoints(ledgers);
  };
  // Σ service time ÷ (workers × wall) of a gateway run.
  auto busy = [](const faas::ScenarioResult& r, uint32_t workers) {
    return r.totals.latency_mean_ms * 1e-3 *
           static_cast<double>(r.totals.latency_samples) /
           (workers * r.wall_seconds);
  };

  if (workload != Workload::PolybenchCold) {
    // Set-up exactly as an untraced round of this seed, one span per call.
    GatewayInputs in;
    std::vector<uint64_t> sigs;
    GatewayDeployment d;
    {
      SpanRecorder::Scope s(&spans, "setup");
      std::unique_ptr<faas::ShardedGateway> gateway =
          make_gateway(workload, &spans);
      in = make_gateway_inputs(workload, seed, *gateway);
      sigs = signatures_per_request(workload, in);
      d = deploy_gateway(workload, std::move(gateway), in, sigs, &spans);
      // deploy_billing builds its worker AEs internally: time one more,
      // provisioned the same way.
      sgx::Platform host("replay-construct", to_bytes("replay-construct-seed"));
      SpanRecorder::Scope c(&spans, "core.ae_construct");
      core::AccountingEnclave one(host, d.worker_config);
    }
    keys_derived = static_cast<double>(d.keys_derived);

    // Gateway segment: a slice of the stream through the deployed gateway.
    const size_t g = kGatewaySegmentRequests[w];
    std::vector<faas::Request> slice(in.requests.begin(), in.requests.begin() + g);
    faas::ScenarioResult result;
    {
      SpanRecorder::Scope s(&spans, "faas.run_scenario");
      result = d.gateway->run_scenario(slice, 1);
    }
    busy_share = busy(result, kShards);
    gateway_requests = result.totals.requests;
    out.attempted += g;
    out.failed += g - std::min<uint64_t>(g, result.totals.requests);
    audit_segment(d.gateway->ledgers(), d.gateway->ae_identities(),
                  obs::Registry::global().prometheus());

    ReplayModule m;
    m.binary = d.binary;
    m.tenant = in.requests[0].tenant;
    for (size_t i = 0; i < kReplayRequests[w]; ++i) {
      m.inputs.push_back(in.requests[i].input);
      signatures_per_pass += sigs[i];
    }
    replay_modules.push_back(m);
    for (size_t k = 1; k < kReplayColdStarts; ++k) {
      replay_modules.push_back({d.binary, m.tenant, {}});
    }
  } else {
    std::vector<ModuleInput> modules = make_polybench_inputs(seed);
    ModuleDeployment d;
    {
      SpanRecorder::Scope s(&spans, "setup");
      d = deploy_modules(modules.size(), &spans);
    }
    keys_derived = static_cast<double>(d.keys_derived);

    // Onboarding segment: the sample modules as the untraced round bills
    // them, then the offline audit.
    const size_t r = kReplayRequests[w];
    BillingPlane billing;
    const Bytes no_input;
    for (size_t i = 0; i < r; ++i) {
      Onboarded o = onboard(*d.ie, *d.ae, *d.ledger, modules[i].binary,
                            modules[i].tenant, no_input);
      if (!o.verified) out.problems.add("traced segment: log does not verify");
      billing.record(modules[i].tenant, o.outcome.signed_log.log);
    }
    d.ledger->seal();
    out.attempted += r;
    gateway_requests = r;
    audit_segment({d.ledger.get()}, {d.ae->identity()}, billing.scrape());

    // The first sample module deployed on a one-worker gateway, for the
    // faas layer figures.
    core::InstrumentationEnclave::Output first =
        d.ie->instrument_binary(modules[0].binary);
    faas::ShardedGatewayConfig config;
    config.shards = 1;
    config.workers_per_shard = 1;
    faas::ShardedGateway gateway(wasm::decode(modules[0].binary), "run", config);
    core::AccountingEnclave::Config ae_config = d.ae->config();
    ae_config.signing_capacity =
        signing_capacity_for(kGatewaySegmentRequests[w]);
    {
      SpanRecorder::Scope s(&spans, "faas.deploy_billing");
      gateway.deploy_billing("replay-cloud", to_bytes("replay-gateway-seed"),
                             ae_config, first.instrumented_binary,
                             first.evidence, kLedgerCheckpointEvery);
    }
    std::vector<faas::Request> slice(kGatewaySegmentRequests[w],
                                     faas::Request{modules[0].tenant, {}});
    faas::ScenarioResult result;
    {
      SpanRecorder::Scope s(&spans, "faas.run_scenario");
      result = gateway.run_scenario(slice, 1);
    }
    busy_share = busy(result, 1);
    out.attempted += slice.size();
    out.failed += slice.size() - std::min<uint64_t>(slice.size(),
                                                    result.totals.requests);

    for (size_t i = 0; i < r; ++i) {
      replay_modules.push_back({modules[i].binary, modules[i].tenant, {Bytes{}}});
      signatures_per_pass += 1;
    }
  }
  signatures_per_pass +=
      signatures_per_pass / kLedgerCheckpointEvery + 1;  // checkpoints

  // Replay passes in pairs, one with span recording off and one with it on
  // (alternating which goes first), until the time is up: the pass times
  // give the tracing overhead.
  Replay replay(workload, std::move(replay_modules), signatures_per_pass, spans,
                out.problems);
  std::vector<double> off_s, on_s;
  auto t_start = Clock::now();
  while (on_s.size() < 2 ||
         (seconds_since(t_start) < seconds && on_s.size() < 64)) {
    replay.rebuild(2);
    const bool on_first = on_s.size() % 2 == 1;
    for (bool record : {on_first, !on_first}) {
      spans.set_enabled(record);
      auto t0 = Clock::now();
      out.attempted += replay.pass();
      (record ? on_s : off_s).push_back(seconds_since(t0));
    }
  }
  spans.set_enabled(true);

  std::map<std::string, LayerStats> stats = layer_stats(spans);
  auto p50 = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : median(it->second.total_us);
  };
  auto mean = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() || it->second.total_us.empty()
               ? 0.0
               : sum(it->second.total_us) /
                     static_cast<double>(it->second.total_us.size());
  };
  const double off = median(off_s);
  out.metrics = {
      {"core.ae_construct_ms", p50("core.ae_construct") / 1e3, "ms"},
      {"core.ie_construct_ms", p50("core.ie_construct") / 1e3, "ms"},
      {"faas.deploy_billing_ms", p50("faas.deploy_billing") / 1e3, "ms"},
      {"crypto.keys_derived", keys_derived, "count"},
      {"crypto.sign_us", p50("crypto.sign"), "us"},
      {"crypto.verify_us", p50("crypto.verify"), "us"},
      {"crypto.sha256_mb_s",
       static_cast<double>(kHashBytes) / p50("crypto.sha256"), "MB/s"},
      {"crypto.signatures_per_request",
       static_cast<double>(audited_logs + checkpoints) /
           static_cast<double>(gateway_requests),
       "count"},
      {"crypto.signature_bytes", static_cast<double>(replay.signature_bytes()),
       "B"},
      {"faas.sequence_accept_us", p50("faas.sequence_accept"), "us"},
      {"faas.busy_share", busy_share, "ratio"},
      {"audit.append_us", mean("audit.append"), "us"},
      {"audit.checkpoints", static_cast<double>(checkpoints), "count"},
      {"audit.verify_us_per_log",
       p50("audit.verify_ledger_set") / static_cast<double>(audited_logs),
       "us"},
      {"audit.reconcile_ms", p50("audit.reconcile_set") / 1e3, "ms"},
      {"core.ae_execute_us", p50("core.ae_execute"), "us"},
      {"core.interim_logs_per_request",
       static_cast<double>(replay.interim_logs()) /
           static_cast<double>(std::max<uint64_t>(replay.requests(), 1)),
       "count"},
      {"interp.reset_us", p50("interp.reset"), "us"},
      {"interp.invoke_us", p50("interp.invoke"), "us"},
      {"interp.minstr_per_s",
       static_cast<double>(replay.instructions()) / 1e6 /
           replay.invoke_seconds(),
       "Minstr/s"},
      {"interp.invoke_nocache_us", p50("interp.invoke_nocache"), "us"},
      {"core.ie_instrument_ms", p50("core.ie_instrument") / 1e3, "ms"},
      {"core.ae_prepare_ms", p50("core.ae_prepare") / 1e3, "ms"},
      {"instrument.pass_ms", p50("instrument.pass") / 1e3, "ms"},
      {"analysis.verify_ms", p50("analysis.verify") / 1e3, "ms"},
      {"analysis.opt_pipeline_ms", p50("analysis.opt_pipeline") / 1e3, "ms"},
      {"analysis.check_lowering_ms", p50("analysis.check_lowering") / 1e3,
       "ms"},
      {"wasm.decode_ms", p50("wasm.decode") / 1e3, "ms"},
      {"wasm.validate_ms", p50("wasm.validate") / 1e3, "ms"},
      {"interp.compile_ms", p50("interp.compile") / 1e3, "ms"},
      {"interp.instantiate_us", p50("interp.instantiate"), "us"},
      {"obs.tracing_overhead_pct", (median(on_s) - off) / off * 100.0, "%"},
  };
  const std::string stem = out_dir + "/" + workload_name(workload) + "-seed" +
                           std::to_string(seed);
  write_outputs(spans, stats, stem);
  return out;
}

}  // namespace perfbench
