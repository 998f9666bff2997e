// Deterministic fault injection for the artifact IO layer.
//
// The resource fault layer (resources/fault_injection.h) rehearses flaky
// upstream *services*; this file gives the artifact read/write paths the
// same treatment so cmctl can rehearse end-to-end disaster scenarios:
// transient open failures, torn writes (a partial file left on disk), and
// silent byte corruption that only a checksum catches downstream.
//
// Layering: io/ sits below resources/, so this injector knows nothing about
// FaultPlan. Higher layers map a plan's reserved `io:` entry onto an
// IoFaultConfig (see IoFaultConfigFromPlan in resources/fault_injection.h)
// and install it process-wide with ScopedIoFaultInjection; the byte-file
// helpers in io/file_io.h consult the active injector on every operation.
//
// Determinism contract: every fault verdict is a pure function of
// (config seed, operation kind, file basename, attempt index) via the
// DeriveSeed chain — never of wall time, thread interleaving, or prior
// operations — so a faulty run is bit-reproducible across runs and thread
// counts and the determinism audit can run with IO faults enabled. Only the
// file's basename is keyed, not its full path, so per-process temp
// directories do not perturb the schedule.

#ifndef CROSSMODAL_IO_IO_FAULTS_H_
#define CROSSMODAL_IO_IO_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/retry.h"

namespace crossmodal {

/// Fault profile of the artifact IO layer.
struct IoFaultConfig {
  /// P(one open attempt fails with Unavailable), drawn deterministically
  /// per (seed, op, basename, attempt). Applies to reads and writes.
  double open_fail_rate = 0.0;
  /// P(one write attempt tears: a deterministic prefix of the bytes lands
  /// on disk and the attempt reports IOError, leaving the torn file for the
  /// retry to overwrite).
  double torn_write_rate = 0.0;
  /// P(a *successful* write silently flips one deterministic byte and still
  /// reports OK — only a content checksum can catch it downstream).
  double corrupt_rate = 0.0;
  /// Retry budget and backoff per logical operation; the backoff is
  /// accounted in the stats, never slept.
  RetryPolicy retry;
  /// Root of the deterministic fault schedule.
  uint64_t seed = 0xF11E;
};

/// Point-in-time snapshot of one injector's activity.
struct IoFaultStats {
  uint64_t read_attempts = 0;
  uint64_t write_attempts = 0;
  uint64_t open_failures = 0;
  uint64_t torn_writes = 0;
  uint64_t corruptions = 0;
  uint64_t retries = 0;
  uint64_t backoff_us = 0;
};

/// Draws deterministic fault verdicts for file operations and accumulates
/// activity counters. Thread-safe: verdicts are pure functions and the
/// counters are independent relaxed atomics (each total is a sum of
/// per-operation deterministic contributions).
class IoFaultInjector {
 public:
  explicit IoFaultInjector(IoFaultConfig config);
  IoFaultInjector(const IoFaultInjector&) = delete;
  IoFaultInjector& operator=(const IoFaultInjector&) = delete;

  const IoFaultConfig& config() const { return config_; }

  /// Verdict for open attempt `attempt` of operation `op` ('r' or 'w') on
  /// the file keyed `key` (see IoFaultKey): OK or Unavailable.
  [[nodiscard]] Status CheckOpen(char op, const std::string& key,
                                 int attempt) const;

  /// True when write attempt `attempt` on `key` should tear.
  bool ShouldTearWrite(const std::string& key, int attempt) const;

  /// True when the surviving write on `key` should silently corrupt.
  bool ShouldCorrupt(const std::string& key) const;

  /// Index of the byte to flip when corrupting `n` bytes keyed by `key`
  /// (n must be > 0).
  size_t CorruptIndex(const std::string& key, size_t n) const;

  /// Accounts the deterministic backoff before retry `attempt + 1` of an
  /// operation on `key` and returns it in microseconds (never slept).
  uint64_t AccountRetryBackoff(const std::string& key, int attempt) const;

  IoFaultStats stats() const;

 private:
  friend class ScopedIoFaultInjection;

  IoFaultConfig config_;
  uint64_t open_seed_;     // DeriveSeed(seed, "io/open")
  uint64_t torn_seed_;     // DeriveSeed(seed, "io/torn")
  uint64_t corrupt_seed_;  // DeriveSeed(seed, "io/corrupt")
  uint64_t retry_seed_;    // DeriveSeed(seed, "io/retry")
  mutable std::atomic<uint64_t> read_attempts_{0};
  mutable std::atomic<uint64_t> write_attempts_{0};
  mutable std::atomic<uint64_t> open_failures_{0};
  mutable std::atomic<uint64_t> torn_writes_{0};
  mutable std::atomic<uint64_t> corruptions_{0};
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> backoff_us_{0};
};

/// RAII guard installing a process-global IoFaultInjector for its scope.
/// At most one may be active at a time (checked); the file helpers fall
/// back to plain IO with no retries when none is installed.
class ScopedIoFaultInjection {
 public:
  explicit ScopedIoFaultInjection(IoFaultConfig config);
  ~ScopedIoFaultInjection();
  ScopedIoFaultInjection(const ScopedIoFaultInjection&) = delete;
  ScopedIoFaultInjection& operator=(const ScopedIoFaultInjection&) = delete;

  const IoFaultInjector& injector() const { return injector_; }
  IoFaultStats stats() const { return injector_.stats(); }

 private:
  IoFaultInjector injector_;
};

/// The currently installed injector, or nullptr.
const IoFaultInjector* ActiveIoFaultInjector();

/// Fault key of a path: its final component, so the schedule does not
/// depend on per-process temp directories.
std::string IoFaultKey(const std::string& path);

}  // namespace crossmodal

#endif  // CROSSMODAL_IO_IO_FAULTS_H_
