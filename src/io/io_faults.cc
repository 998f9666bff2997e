#include "io/io_faults.h"

#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// The installed injector. A plain atomic pointer (not a Mutex) because the
/// hot path is a lock-free load on every file operation; installation is
/// rare and guarded by compare-exchange.
std::atomic<const IoFaultInjector*> g_active_injector{nullptr};

}  // namespace

IoFaultInjector::IoFaultInjector(IoFaultConfig config)
    : config_(config),
      open_seed_(DeriveSeed(config.seed, "io/open")),
      torn_seed_(DeriveSeed(config.seed, "io/torn")),
      corrupt_seed_(DeriveSeed(config.seed, "io/corrupt")),
      retry_seed_(DeriveSeed(config.seed, "io/retry")) {}

Status IoFaultInjector::CheckOpen(char op, const std::string& key,
                                  int attempt) const {
  if (op == 'r') {
    read_attempts_.fetch_add(1, std::memory_order_relaxed);
  } else {
    write_attempts_.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.open_fail_rate <= 0.0) return Status::OK();
  Rng rng = AttemptRng(
      DeriveSeed(DeriveSeed(open_seed_, static_cast<uint64_t>(op)),
                 key.c_str()),
      attempt);
  if (rng.Bernoulli(config_.open_fail_rate)) {
    open_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected transient open failure: " + key);
  }
  return Status::OK();
}

bool IoFaultInjector::ShouldTearWrite(const std::string& key,
                                      int attempt) const {
  if (config_.torn_write_rate <= 0.0) return false;
  Rng rng = AttemptRng(DeriveSeed(torn_seed_, key.c_str()), attempt);
  const bool torn = rng.Bernoulli(config_.torn_write_rate);
  if (torn) torn_writes_.fetch_add(1, std::memory_order_relaxed);
  return torn;
}

bool IoFaultInjector::ShouldCorrupt(const std::string& key) const {
  if (config_.corrupt_rate <= 0.0) return false;
  // Keyed by the file alone, not the attempt: corruption models a bad disk,
  // which damages whichever write finally lands.
  Rng rng(DeriveSeed(corrupt_seed_, key.c_str()));
  const bool corrupt = rng.Bernoulli(config_.corrupt_rate);
  if (corrupt) corruptions_.fetch_add(1, std::memory_order_relaxed);
  return corrupt;
}

size_t IoFaultInjector::CorruptIndex(const std::string& key, size_t n) const {
  CM_CHECK(n > 0);
  // A distinct stream from ShouldCorrupt so the index does not correlate
  // with the decision draw.
  Rng rng(DeriveSeed(DeriveSeed(corrupt_seed_, key.c_str()), 0x1DFULL));
  return static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(n)));
}

uint64_t IoFaultInjector::AccountRetryBackoff(const std::string& key,
                                              int attempt) const {
  const uint64_t backoff =
      BackoffUs(config_.retry, attempt,
                AttemptRng(DeriveSeed(retry_seed_, key.c_str()), attempt));
  retries_.fetch_add(1, std::memory_order_relaxed);
  backoff_us_.fetch_add(backoff, std::memory_order_relaxed);
  return backoff;
}

IoFaultStats IoFaultInjector::stats() const {
  IoFaultStats s;
  s.read_attempts = read_attempts_.load(std::memory_order_relaxed);
  s.write_attempts = write_attempts_.load(std::memory_order_relaxed);
  s.open_failures = open_failures_.load(std::memory_order_relaxed);
  s.torn_writes = torn_writes_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.backoff_us = backoff_us_.load(std::memory_order_relaxed);
  return s;
}

ScopedIoFaultInjection::ScopedIoFaultInjection(IoFaultConfig config)
    : injector_(config) {
  const IoFaultInjector* expected = nullptr;
  CM_CHECK(g_active_injector.compare_exchange_strong(
      expected, &injector_, std::memory_order_release,
      std::memory_order_relaxed));
}

ScopedIoFaultInjection::~ScopedIoFaultInjection() {
  g_active_injector.store(nullptr, std::memory_order_release);
}

const IoFaultInjector* ActiveIoFaultInjector() {
  return g_active_injector.load(std::memory_order_acquire);
}

std::string IoFaultKey(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace crossmodal
