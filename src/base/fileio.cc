#include "base/fileio.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "base/strings.h"

namespace tgdkit {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

enum class CrashPhase { kBegin, kMid, kCommit };

/// Parses the fault-injection environment. Returns false when unarmed.
bool CrashHookArmed(uint64_t* crash_at, CrashPhase* phase) {
  const char* at = std::getenv("TGDKIT_CRASH_AT");
  if (at == nullptr || *at == '\0') return false;
  char* end = nullptr;
  uint64_t n = std::strtoull(at, &end, 10);
  if (end == at || n == 0) return false;
  *crash_at = n;
  *phase = CrashPhase::kMid;
  const char* p = std::getenv("TGDKIT_CRASH_PHASE");
  if (p != nullptr) {
    if (std::strcmp(p, "begin") == 0) *phase = CrashPhase::kBegin;
    if (std::strcmp(p, "commit") == 0) *phase = CrashPhase::kCommit;
  }
  return true;
}

/// The n-th armed AtomicWriteFile call dies with SIGKILL at `at_phase`.
/// SIGKILL (not exit) so no destructor, stream flush or atexit handler can
/// soften the crash — this is the process-death model the snapshot layer
/// must survive.
class CrashPoint {
 public:
  CrashPoint() {
    armed_ = CrashHookArmed(&crash_at_, &phase_);
    if (armed_) {
      static std::atomic<uint64_t> write_counter{0};
      ordinal_ = ++write_counter;
    }
  }

  void Maybe(CrashPhase here) const {
    if (armed_ && ordinal_ == crash_at_ && here == phase_) {
      raise(SIGKILL);
    }
  }

 private:
  bool armed_ = false;
  uint64_t crash_at_ = 0;
  CrashPhase phase_ = CrashPhase::kMid;
  uint64_t ordinal_ = 0;
};

/// The n-th armed write call fails as if the disk filled up. Shares the
/// counting discipline of CrashPoint: the counter only advances while
/// TGDKIT_FAIL_WRITE_AT is set, so forked test children count from zero.
class FailWritePoint {
 public:
  FailWritePoint() {
    const char* at = std::getenv("TGDKIT_FAIL_WRITE_AT");
    if (at == nullptr || *at == '\0') return;
    char* end = nullptr;
    uint64_t n = std::strtoull(at, &end, 10);
    if (end == at || n == 0) return;
    fail_at_ = n;
    static std::atomic<uint64_t> write_counter{0};
    ordinal_ = ++write_counter;
  }

  bool ShouldFail() const { return fail_at_ != 0 && ordinal_ == fail_at_; }

 private:
  uint64_t fail_at_ = 0;
  uint64_t ordinal_ = 0;
};

Status IoError(const std::string& what, const std::string& path) {
  const int err = errno;
  std::string msg = Cat(what, " '", path, "': ", std::strerror(err));
  // Disk-full is an environmental resource stop, not a program bug: the
  // CLI maps ResourceExhausted to exit 4 and the last-good checkpoint on
  // disk stays intact (the failed write never reached its final name).
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

Status InjectedDiskFull(const std::string& path) {
  return Status::ResourceExhausted(
      Cat("cannot write '", path, "': injected disk full "
          "(TGDKIT_FAIL_WRITE_AT)"));
}

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  CrashPoint crash;
  FailWritePoint fail;
  const std::string tmp = path + ".tmp";
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot create", tmp);
  crash.Maybe(CrashPhase::kBegin);
  // Mid-write crash point: half the payload reaches the temp file, the
  // rest never does — the torn-write case the loader must reject.
  std::string_view first = contents.substr(0, contents.size() / 2);
  std::string_view second = contents.substr(contents.size() / 2);
  if (!WriteAll(fd, first)) {
    close(fd);
    return IoError("cannot write", tmp);
  }
  crash.Maybe(CrashPhase::kMid);
  if (fail.ShouldFail()) {
    // Injected ENOSPC mid-payload: remove the half-written temp file and
    // report cleanly; the destination is untouched.
    close(fd);
    unlink(tmp.c_str());
    return InjectedDiskFull(tmp);
  }
  if (!WriteAll(fd, second)) {
    close(fd);
    return IoError("cannot write", tmp);
  }
  if (fsync(fd) != 0) {
    close(fd);
    return IoError("cannot fsync", tmp);
  }
  if (close(fd) != 0) return IoError("cannot close", tmp);
  crash.Maybe(CrashPhase::kCommit);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError("cannot rename into", path);
  }
  // Durably record the rename itself: fsync the containing directory.
  std::string dir = path;
  size_t slash = dir.find_last_of('/');
  dir = (slash == std::string::npos) ? "." : dir.substr(0, slash);
  int dfd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    // Directory fsync failures (e.g. on exotic filesystems) degrade
    // durability but not atomicity; do not fail the write over them.
    fsync(dfd);
    close(dfd);
  }
  return Status::Ok();
}

Status AppendLineDurable(const std::string& path, std::string_view line) {
  CrashPoint crash;
  FailWritePoint fail;
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0644);
  if (fd < 0) return IoError("cannot open for append", path);
  crash.Maybe(CrashPhase::kBegin);
  if (fail.ShouldFail()) {
    // Injected ENOSPC before any byte is appended: the log stays intact.
    close(fd);
    return InjectedDiskFull(path);
  }
  // One buffer, two writes: the mid-phase crash leaves a torn trailing
  // line with no newline — exactly the artifact ledger readers must skip.
  std::string record(line);
  record += '\n';
  std::string_view all = record;
  std::string_view first = all.substr(0, all.size() / 2);
  std::string_view second = all.substr(all.size() / 2);
  if (!WriteAll(fd, first)) {
    close(fd);
    return IoError("cannot append to", path);
  }
  crash.Maybe(CrashPhase::kMid);
  if (!WriteAll(fd, second)) {
    close(fd);
    return IoError("cannot append to", path);
  }
  crash.Maybe(CrashPhase::kCommit);
  if (fsync(fd) != 0) {
    close(fd);
    return IoError("cannot fsync", path);
  }
  if (close(fd) != 0) return IoError("cannot close", path);
  return Status::Ok();
}

Status MakeDirectories(const std::string& path) {
  if (path.empty()) return Status::Ok();
  std::string prefix;
  size_t start = 0;
  if (path[0] == '/') prefix = "/";
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash > start) {
      prefix.append(path, start, slash - start);
      if (mkdir(prefix.c_str(), 0755) != 0) {
        if (errno != EEXIST) return IoError("cannot create directory", prefix);
        struct stat st;
        if (stat(prefix.c_str(), &st) != 0) {
          return IoError("cannot stat", prefix);
        }
        if (!S_ISDIR(st.st_mode)) {
          errno = ENOTDIR;
          return IoError("cannot create directory", prefix);
        }
      }
      prefix += '/';
    }
    start = slash + 1;
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(Cat("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace tgdkit
