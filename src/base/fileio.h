// Crash-consistent file I/O for the checkpoint/resume layer.
//
// AtomicWriteFile provides the durability contract snapshots rely on: the
// destination path either keeps its previous contents or holds the complete
// new contents — never a torn mixture — even if the process is SIGKILLed at
// any point during the write. The implementation is the classic
// write-to-temp + fsync + rename(2) + fsync-directory sequence.
//
// For the fault-injection harness, the writer honours two environment
// variables:
//
//   TGDKIT_CRASH_AT=<n>        raise(SIGKILL) during the n-th (1-based)
//                              AtomicWriteFile call of this process
//   TGDKIT_CRASH_PHASE=<p>     where in that call to die (default "mid"):
//                                begin  — after creating the temp file,
//                                         before writing any byte
//                                mid    — after writing roughly half the
//                                         payload (a torn temp file)
//                                commit — after the temp file is complete
//                                         and fsynced, before the rename
//
// The crash counter only advances while TGDKIT_CRASH_AT is set, so forked
// test children that arm the variable count from zero while the parent
// process is unaffected.
//
// A second hook simulates the disk filling up instead of the process
// dying:
//
//   TGDKIT_FAIL_WRITE_AT=<n>   the n-th (1-based) armed AtomicWriteFile /
//                              AppendLineDurable call fails mid-payload as
//                              ENOSPC would: the temp file is removed (the
//                              destination keeps its previous contents)
//                              and Status::ResourceExhausted comes back.
//
// Real ENOSPC/EDQUOT errors from the kernel are classified the same way:
// every write path in this file maps disk-full to ResourceExhausted (the
// CLI surfaces it as exit 4) rather than a generic Internal error, and no
// partial file is ever visible under its final name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace tgdkit {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Used to detect
/// truncated or bit-flipped snapshot payloads.
uint32_t Crc32(std::string_view data);

/// Atomically replaces `path` with `contents` (write temp + fsync + rename
/// + fsync directory). On any error the destination is untouched; the temp
/// file `path + ".tmp"` may be left behind and is overwritten by the next
/// attempt. Honours the TGDKIT_CRASH_AT fault-injection hook (see above).
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Durably appends `line` plus a trailing '\n' to `path` (O_APPEND +
/// fsync), creating the file if needed. `line` must not itself contain a
/// newline. A crash mid-append can leave at most one torn trailing line
/// without its newline; readers of append-only logs must ignore a final
/// unterminated line (see LoadLedger in src/supervise/ledger.h). Shares
/// the TGDKIT_CRASH_AT counter with AtomicWriteFile, with the same three
/// phases: begin (nothing appended), mid (half the line, torn), commit
/// (line complete, fsync skipped).
Status AppendLineDurable(const std::string& path, std::string_view line);

/// mkdir -p: creates `path` and any missing ancestors. Ok if it already
/// exists as a directory; an error if it or an ancestor exists as
/// anything else.
Status MakeDirectories(const std::string& path);

/// Reads a whole file. NotFound if it cannot be opened.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace tgdkit
