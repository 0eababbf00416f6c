// Crash-consistent checkpoint/resume for the Skolem chase, the
// semi-decision procedure behind `tgdkit chase`.
//
// A snapshot is a single self-contained file: it carries the vocabulary,
// the term arena, the rules and the engine's resumable state, so a
// resumed process needs nothing but the snapshot (plus fresh limits).
// See docs/CHECKPOINTS.md for the format specification and the
// consistency model.
//
// Durability: SaveChaseSnapshot writes through AtomicWriteFile (temp +
// fsync + rename), so a crash at any instant leaves either the previous
// complete snapshot or the new complete snapshot — never a torn file — at
// `path`. Integrity: the envelope carries the payload length and a
// CRC-32; truncated or bit-flipped files are rejected with
// Status::DataLoss, a snapshot written by a different format version
// with Status::Unsupported, and one whose header names another kind than
// `chase` with Status::InvalidArgument. Loading never crashes on corrupt
// input.
//
// Derived state is never serialized: the instance's per-position hash
// indexes are rebuilt fact-by-fact when the instance text is parsed back
// (ParseFacts routes through AddFact), and the thread pool is
// reconstructed from the resuming process's own ChaseLimits::threads —
// a snapshot written with --threads 4 resumes bit-identically under
// --threads 1 and vice versa (see docs/PARALLELISM.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "dep/dependency.h"
#include "term/term.h"

namespace tgdkit {

/// First line of every snapshot file: "tgdkit-snapshot v<N> <kind>".
inline constexpr std::string_view kSnapshotMagic = "tgdkit-snapshot";
inline constexpr uint32_t kSnapshotVersion = 1;

/// A loaded Skolem-chase snapshot. `state->instance` references `*vocab`;
/// the unique_ptrs keep those references stable under moves.
struct ChaseSnapshot {
  uint64_t seed = 0;
  uint64_t rng_state = 0;
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<TermArena> arena;
  SoTgd rules;
  std::unique_ptr<ChaseEngineState> state;
};

// ---------------------------------------------------------------------------
// Skolem chase

/// Renders a complete snapshot file (envelope + payload) for a chase
/// engine state captured with ChaseEngine::CaptureState() (or loaded by
/// ParseChaseSnapshot). `vocab` and `arena` must be the ones the engine
/// ran over. The instance is read where the state points (`state.live`,
/// else `state.instance`), keeping only the rows `state.keep_rows` names.
///
/// An in-core instance serializes as one exact-text `facts` section. A
/// spilled one (Instance::spill_enabled) serializes a SEGMENTED section:
/// sealed segments are referenced by file name + row count + payload CRC
/// (the files are immutable, so a checkpoint is a cheap dirty-segment
/// flush plus this small manifest), and only the mutable remainder is
/// rendered as text. Callers must flush dirty segments first —
/// SaveChaseSnapshot does.
std::string SerializeChaseSnapshot(const Vocabulary& vocab,
                                   const TermArena& arena, const SoTgd& rules,
                                   const ChaseEngineState& state,
                                   uint64_t seed, uint64_t rng_state);

/// Serializes and atomically writes a chase snapshot to `path`. For a
/// spill-mode state this first persists every dirty segment
/// (Instance::FlushDirtySegments); a segment write failure (e.g. disk
/// full) fails the checkpoint without touching `path` — the previous
/// complete snapshot survives.
Status SaveChaseSnapshot(const std::string& path, const Vocabulary& vocab,
                         const TermArena& arena, const SoTgd& rules,
                         const ChaseEngineState& state, uint64_t seed,
                         uint64_t rng_state);

/// Parses snapshot bytes. DataLoss on truncation/corruption/garbage,
/// Unsupported on a format version mismatch, InvalidArgument when the
/// header names a kind other than `chase` (older builds also wrote
/// `restricted` and `pcp` files) — or when the file holds a segmented
/// instance section and `spill_dir` is empty (the two-argument overload). A segmented snapshot streams its segment files from
/// `spill_dir` back through AddFact, re-sealing identical segments, and
/// rejects a file that is missing, corrupt (DataLoss) or does not match
/// the recorded row count / CRC.
Result<ChaseSnapshot> ParseChaseSnapshot(std::string_view bytes);
Result<ChaseSnapshot> ParseChaseSnapshot(std::string_view bytes,
                                         const std::string& spill_dir);

/// Reads and parses a chase snapshot file.
Result<ChaseSnapshot> LoadChaseSnapshot(const std::string& path);
Result<ChaseSnapshot> LoadChaseSnapshot(const std::string& path,
                                        const std::string& spill_dir);

// ---------------------------------------------------------------------------
// Task-derived checkpoint paths (batch supervisor)

/// The canonical checkpoint path for a supervised task:
/// `<dir>/<task_id>.snap`, with any byte outside [A-Za-z0-9._-] in the id
/// replaced by '_' so a task id can never escape `dir`. Stable across
/// runs — the batch supervisor's resume-from-checkpoint depends on a
/// rerun deriving the same path for the same task id.
std::string TaskCheckpointPath(const std::string& dir,
                               std::string_view task_id);

}  // namespace tgdkit
