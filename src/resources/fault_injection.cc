#include "resources/fault_injection.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <utility>

#include "util/parse_number.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// The fault verdict of one attempt, shared by the service decorator and the
/// serving hook: a permanent outage when `down`, else a timeout and then a
/// transient failure drawn from the (entity, attempt) stream of
/// `stream_seed`, else OK. Counts the attempt and any fault; `subject` names
/// the failing target in the error.
Status DrawFault(const ServiceFaultConfig& config, bool down,
                 uint64_t stream_seed, EntityId entity, int attempt,
                 ServiceHealthCounters* counters, std::string_view subject) {
  if (counters) counters->Add(counters->attempts);
  if (down) {
    if (counters) counters->Add(counters->permanent_failures);
    return Status::FailedPrecondition(std::string(subject) +
                                      " is permanently down");
  }
  Rng rng = AttemptRng(DeriveSeed(stream_seed, entity), attempt);
  if (config.timeout_rate > 0.0 && rng.Bernoulli(config.timeout_rate)) {
    if (counters) counters->Add(counters->timeouts);
    return Status::DeadlineExceeded(std::string(subject) + " timed out");
  }
  if (config.transient_rate > 0.0 && rng.Bernoulli(config.transient_rate)) {
    if (counters) counters->Add(counters->transient_failures);
    return Status::Unavailable(std::string(subject) + " failed transiently");
  }
  return Status::OK();
}

/// Counts one retry and the backoff accounted before it.
void CountRetry(uint64_t backoff_us, ServiceHealthCounters* counters) {
  if (counters == nullptr) return;
  counters->Add(counters->retries);
  counters->Add(counters->backoff_us, backoff_us);
}

/// Counts one attempt that got through, with its simulated latency.
void CountSuccess(const ServiceFaultConfig& config,
                  ServiceHealthCounters* counters) {
  if (counters == nullptr) return;
  counters->Add(counters->successes);
  if (config.latency_us > 0) {
    counters->Add(counters->simulated_latency_us, config.latency_us);
  }
}

}  // namespace

// ---- ServiceHealthCounters -------------------------------------------------

ServiceHealth ServiceHealthCounters::Snapshot(std::string service_name) const {
  ServiceHealth h;
  h.service = std::move(service_name);
  h.requests = requests.load(std::memory_order_relaxed);
  h.attempts = attempts.load(std::memory_order_relaxed);
  h.successes = successes.load(std::memory_order_relaxed);
  h.transient_failures = transient_failures.load(std::memory_order_relaxed);
  h.timeouts = timeouts.load(std::memory_order_relaxed);
  h.permanent_failures = permanent_failures.load(std::memory_order_relaxed);
  h.retries = retries.load(std::memory_order_relaxed);
  h.abstains_served = abstains_served.load(std::memory_order_relaxed);
  h.degraded_misses = degraded_misses.load(std::memory_order_relaxed);
  h.backoff_us = backoff_us.load(std::memory_order_relaxed);
  h.simulated_latency_us =
      simulated_latency_us.load(std::memory_order_relaxed);
  h.cache_hits = cache_hits.load(std::memory_order_relaxed);
  h.cache_misses = cache_misses.load(std::memory_order_relaxed);
  return h;
}

void ServiceHealthCounters::Reset() {
  for (auto* field :
       {&requests, &attempts, &successes, &transient_failures, &timeouts,
        &permanent_failures, &retries, &abstains_served, &degraded_misses,
        &backoff_us, &simulated_latency_us, &cache_hits, &cache_misses}) {
    field->store(0, std::memory_order_relaxed);
  }
}

// ---- FaultPlan -------------------------------------------------------------

const FaultPlan::Entry* FaultPlan::FindEntry(
    const std::string& service_name) const {
  const Entry* found = nullptr;
  for (const Entry& entry : entries) {
    if (entry.service == "*" || entry.service == service_name) {
      found = &entry;
    }
  }
  return found;
}

bool FaultPlan::IsScheduleDeterministic() const {
  return std::all_of(entries.begin(), entries.end(), [](const Entry& e) {
    return e.fault.down_after == 0 ||
           e.fault.down_after == ServiceFaultConfig::kNeverDown;
  });
}

const FaultPlan::Entry* FaultPlan::ExactEntry(const char* service) const {
  const Entry* found = nullptr;
  for (const Entry& entry : entries) {
    if (entry.service == service) found = &entry;
  }
  return found;
}

FaultPlan FaultPlan::WithoutReserved() const {
  FaultPlan plan;
  plan.seed = seed;
  for (const Entry& entry : entries) {
    if (entry.service != kServingFaultService &&
        entry.service != kIoFaultService) {
      plan.entries.push_back(entry);
    }
  }
  return plan;
}

IoFaultConfig IoFaultConfigFromPlan(const FaultPlan& plan) {
  IoFaultConfig config;
  const FaultPlan::Entry* entry = plan.ExactEntry(kIoFaultService);
  if (entry == nullptr) return config;
  config.open_fail_rate = entry->fault.transient_rate;
  config.torn_write_rate = entry->fault.torn_write_rate;
  config.corrupt_rate = entry->fault.corrupt_rate;
  config.retry = entry->retry;
  config.seed = DeriveSeed(plan.seed, kIoFaultService);
  return config;
}

namespace {

std::string Trim(const std::string& raw) {
  size_t begin = 0, end = raw.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(raw[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(raw[end - 1]))) {
    --end;
  }
  return raw.substr(begin, end - begin);
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

Status ApplyKeyValue(const std::string& kv, FaultPlan::Entry* entry) {
  const size_t eq = kv.find('=');
  const std::string key = Trim(eq == std::string::npos ? kv : kv.substr(0, eq));
  const std::string value =
      eq == std::string::npos ? "" : Trim(kv.substr(eq + 1));
  if (key == "down" && eq == std::string::npos) {
    entry->fault.down_after = 0;
    return Status::OK();
  }
  if (eq == std::string::npos) {
    return Status::InvalidArgument("fault plan: expected key=value, got '" +
                                   kv + "'");
  }
  if (key == "transient") {
    CM_ASSIGN_OR_RETURN(entry->fault.transient_rate, ParseFiniteDouble(value));
  } else if (key == "torn") {
    CM_ASSIGN_OR_RETURN(entry->fault.torn_write_rate,
                        ParseFiniteDouble(value));
  } else if (key == "corrupt") {
    CM_ASSIGN_OR_RETURN(entry->fault.corrupt_rate, ParseFiniteDouble(value));
  } else if (key == "timeout") {
    CM_ASSIGN_OR_RETURN(entry->fault.timeout_rate, ParseFiniteDouble(value));
  } else if (key == "latency_us") {
    CM_ASSIGN_OR_RETURN(entry->fault.latency_us, ParseUint64(value));
  } else if (key == "down_after") {
    CM_ASSIGN_OR_RETURN(entry->fault.down_after, ParseUint64(value));
  } else if (key == "attempts") {
    CM_ASSIGN_OR_RETURN(int64_t attempts, ParseInt64(value));
    if (attempts < 1) {
      return Status::InvalidArgument("fault plan: attempts must be >= 1");
    }
    entry->retry.max_attempts = static_cast<int>(attempts);
  } else if (key == "backoff_us") {
    CM_ASSIGN_OR_RETURN(entry->retry.base_backoff_us, ParseUint64(value));
  } else if (key == "max_backoff_us") {
    CM_ASSIGN_OR_RETURN(entry->retry.max_backoff_us, ParseUint64(value));
  } else {
    return Status::InvalidArgument("fault plan: unknown key '" + key + "'");
  }
  if (entry->fault.transient_rate < 0.0 || entry->fault.transient_rate > 1.0 ||
      entry->fault.timeout_rate < 0.0 || entry->fault.timeout_rate > 1.0 ||
      entry->fault.torn_write_rate < 0.0 ||
      entry->fault.torn_write_rate > 1.0 || entry->fault.corrupt_rate < 0.0 ||
      entry->fault.corrupt_rate > 1.0) {
    return Status::InvalidArgument(
        "fault plan: rates must be within [0, 1]");
  }
  return Status::OK();
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  if (Trim(spec).empty()) return plan;
  for (const std::string& raw : SplitOn(spec, ';')) {
    const std::string directive = Trim(raw);
    if (directive.empty()) continue;
    const size_t colon = directive.find(':');
    if (colon == std::string::npos) {
      // Global directive: currently only "seed=N".
      const size_t eq = directive.find('=');
      if (eq != std::string::npos && Trim(directive.substr(0, eq)) == "seed") {
        CM_ASSIGN_OR_RETURN(plan.seed,
                            ParseUint64(Trim(directive.substr(eq + 1))));
        continue;
      }
      return Status::InvalidArgument(
          "fault plan: expected 'service:key=value,...' or 'seed=N', got '" +
          directive + "'");
    }
    Entry entry;
    entry.service = Trim(directive.substr(0, colon));
    if (entry.service.empty()) {
      return Status::InvalidArgument("fault plan: empty service name in '" +
                                     directive + "'");
    }
    for (const std::string& kv : SplitOn(directive.substr(colon + 1), ',')) {
      if (Trim(kv).empty()) continue;
      CM_RETURN_IF_ERROR(ApplyKeyValue(Trim(kv), &entry));
    }
    plan.entries.push_back(std::move(entry));
  }
  return plan;
}

// ---- FaultInjectingService -------------------------------------------------

FaultInjectingService::FaultInjectingService(FeatureServicePtr inner,
                                             ServiceFaultConfig config,
                                             uint64_t fault_seed,
                                             ServiceHealthCounters* counters)
    : inner_(std::move(inner)),
      config_(config),
      service_seed_(DeriveSeed(fault_seed, inner_->name().c_str())),
      subject_("service '" + inner_->name() + "'"),
      counters_(counters) {}

FeatureValue FaultInjectingService::Apply(const Entity& entity) const {
  Result<FeatureValue> v = Call(entity, 0);
  if (v.ok()) return std::move(*v);
  if (counters_) counters_->Add(counters_->degraded_misses);
  return FeatureValue::Missing();
}

Result<FeatureValue> FaultInjectingService::Call(const Entity& entity,
                                                 int attempt) const {
  // Permanent outage. down_after == 0 is a hard outage (order-independent);
  // a mid-range threshold counts real arrivals, first attempts only.
  bool down = config_.down_after == 0;
  if (!down && config_.down_after != ServiceFaultConfig::kNeverDown) {
    const uint64_t arrival =
        attempt == 0 ? arrivals_.fetch_add(1, std::memory_order_relaxed)
                     : arrivals_.load(std::memory_order_relaxed) - 1;
    down = arrival >= config_.down_after;
  }
  CM_RETURN_IF_ERROR(DrawFault(config_, down, service_seed_, entity.id,
                               attempt, counters_, subject_));
  Result<FeatureValue> value = inner_->Call(entity, attempt);
  if (value.ok()) CountSuccess(config_, counters_);
  return value;
}

// ---- RetryingService -------------------------------------------------------

RetryingService::RetryingService(FeatureServicePtr inner, RetryPolicy policy,
                                 uint64_t fault_seed,
                                 ServiceHealthCounters* counters)
    : inner_(std::move(inner)),
      policy_(policy),
      retry_seed_(DeriveSeed(DeriveSeed(fault_seed, "retry"),
                             inner_->name().c_str())),
      counters_(counters) {}

FeatureValue RetryingService::Apply(const Entity& entity) const {
  Result<FeatureValue> v = Call(entity, 0);
  if (v.ok()) return std::move(*v);
  if (counters_) counters_->Add(counters_->degraded_misses);
  return FeatureValue::Missing();
}

Result<FeatureValue> RetryingService::Call(const Entity& entity,
                                           int attempt) const {
  // Nested retry layers (attempt > 0) get disjoint inner attempt ranges so
  // their fault draws stay independent.
  const int base = attempt * std::max(1, policy_.max_attempts);
  return RetryWithBackoff(
      policy_.max_attempts,
      [&](int k) { return inner_->Call(entity, base + k); }, IsTransientFault,
      [&](int k) {
        CountRetry(BackoffUs(policy_, k,
                             AttemptRng(DeriveSeed(retry_seed_, entity.id),
                                        base + k)),
                   counters_);
      });
}

// ---- ServingFaultHook ------------------------------------------------------

ServingFaultHook::ServingFaultHook(const FaultPlan::Entry& entry,
                                   uint64_t plan_seed,
                                   ServiceHealthCounters* counters)
    : active_(true),
      config_(entry.fault),
      retry_(entry.retry),
      serving_seed_(DeriveSeed(plan_seed, kServingFaultService)),
      retry_seed_(DeriveSeed(DeriveSeed(plan_seed, "retry"),
                             kServingFaultService)),
      counters_(counters) {}

ServingFaultHook ServingFaultHook::FromPlan(const FaultPlan& plan,
                                            ServiceHealthCounters* counters) {
  const FaultPlan::Entry* entry = plan.ExactEntry(kServingFaultService);
  if (entry == nullptr) return ServingFaultHook();
  return ServingFaultHook(*entry, plan.seed, counters);
}

Status ServingFaultHook::Probe(EntityId entity, int attempt) const {
  if (!active_) return Status::OK();
  // Mid-range down_after is order-sensitive and rejected by the serving
  // tier at construction, so only the hard outage is modeled here.
  CM_RETURN_IF_ERROR(DrawFault(config_, config_.down_after == 0,
                               serving_seed_, entity, attempt, counters_,
                               "serving request"));
  CountSuccess(config_, counters_);
  return Status::OK();
}

uint64_t ServingFaultHook::AccountRetryBackoff(EntityId entity,
                                               int attempt) const {
  if (!active_) return 0;
  const uint64_t backoff = BackoffUs(
      retry_, attempt, AttemptRng(DeriveSeed(retry_seed_, entity), attempt));
  CountRetry(backoff, counters_);
  return backoff;
}

}  // namespace crossmodal
