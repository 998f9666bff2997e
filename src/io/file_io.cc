#include "io/file_io.h"

#include <fcntl.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "io/io_faults.h"
#include "util/retry.h"

namespace crossmodal {

namespace {

Result<std::string> ReadOnce(const std::string& path, const std::string& key,
                             const IoFaultInjector* injector, int attempt) {
  if (injector != nullptr) {
    CM_RETURN_IF_ERROR(injector->CheckOpen('r', key, attempt));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return std::move(buffer).str();
}

Status WriteOnce(const std::string& path, const std::string& bytes,
                 const std::string& key, const IoFaultInjector* injector,
                 int attempt) {
  if (injector != nullptr) {
    CM_RETURN_IF_ERROR(injector->CheckOpen('w', key, attempt));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  if (injector != nullptr && injector->ShouldTearWrite(key, attempt)) {
    // Land a prefix and report failure: the torn file stays on disk for the
    // retry (which truncates) or for a downstream reader to choke on.
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    out.flush();
    return Status::IOError("injected torn write: " + path);
  }
  if (injector != nullptr && !bytes.empty() && injector->ShouldCorrupt(key)) {
    // Silent corruption: flip one deterministic byte and still report OK.
    std::string damaged = bytes;
    damaged[injector->CorruptIndex(key, damaged.size())] ^= 0x01;
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  } else {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<int> OpenOnce(const std::string& path, const std::string& key,
                     const IoFaultInjector* injector, int attempt) {
  if (injector != nullptr) {
    CM_RETURN_IF_ERROR(injector->CheckOpen('r', key, attempt));
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for reading: " + path);
  return fd;
}

/// Runs `once(path, key, injector, attempt)` with the installed injector's
/// retry budget, retrying Unavailable and IOError. With no injector it runs
/// once, keyed by an empty string.
template <typename OnceFn>
auto WithIoRetries(const std::string& path, OnceFn once) {
  const IoFaultInjector* injector = ActiveIoFaultInjector();
  const std::string key = injector == nullptr ? "" : IoFaultKey(path);
  return RetryWithBackoff(
      injector == nullptr ? 1 : injector->config().retry.max_attempts,
      [&](int attempt) { return once(path, key, injector, attempt); },
      [](StatusCode code) {
        return code == StatusCode::kUnavailable ||
               code == StatusCode::kIOError;
      },
      [&](int attempt) { injector->AccountRetryBackoff(key, attempt); });
}

}  // namespace

Result<std::string> ReadFileBytes(const std::string& path) {
  return WithIoRetries(path, ReadOnce);
}

Result<int> OpenFileForReading(const std::string& path) {
  return WithIoRetries(path, OpenOnce);
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  return WithIoRetries(
      path, [&](const std::string& p, const std::string& key,
                const IoFaultInjector* injector, int attempt) {
        return WriteOnce(p, bytes, key, injector, attempt);
      });
}

}  // namespace crossmodal
