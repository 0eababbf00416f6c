#include "api/api.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "analyze/lint.h"
#include "base/fileio.h"
#include "base/rng.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "snapshot/snapshot.h"
#include "classify/criteria.h"
#include "classify/dot.h"
#include "dep/syntactic.h"
#include "mc/model_check.h"
#include "exchange/exchange.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzz.h"
#include "fuzz/shrink.h"
#include "parse/parser.h"
#include "query/query.h"
#include "supervise/manifest.h"
#include "supervise/supervisor.h"
#include "transform/composition.h"
#include "transform/nested.h"

namespace tgdkit {

namespace {

constexpr const char* kUsage =
    "usage: tgdkit COMMAND ARGS...\n"
    "  classify  DEPS                 Figure 1 + Figure 2 membership\n"
    "                                 (+ one '# witness:' line per\n"
    "                                 failed Figure 2 criterion, + a\n"
    "                                 '# complexity:' chase tier line)\n"
    "  lint      DEPS                 static analysis diagnostics\n"
    "                                 (--format=text|json|sarif,\n"
    "                                 --fail-on=note|warning|error)\n"
    "  chase     DEPS INSTANCE        chase to fixpoint/budget\n"
    "  check     DEPS INSTANCE        model-check each dependency\n"
    "  certain   DEPS INSTANCE QUERY  certain answers to a query\n"
    "  normalize DEPS                 nested-to-so / nested-to-henkin\n"
    "  dot       DEPS                 GraphViz position/quantifier/Hasse\n"
    "                                 graphs\n"
    "  explain   DEPS INSTANCE        chase + provenance of every null\n"
    "  compose   DEPS12 DEPS23 [...]  compose s-t tgd mappings -> SO tgd\n"
    "  solve     DEPS INSTANCE        data exchange: universal + core\n"
    "                                 solution (target = head relations)\n"
    "  batch     MANIFEST             supervise a task manifest with\n"
    "                                 fault-isolated workers, retries and\n"
    "                                 a durable run ledger (docs/BATCH.md)\n"
    "  serve     [--socket PATH]      resident reasoning service: line-\n"
    "                                 JSON requests over a Unix/TCP\n"
    "                                 socket, each run as the one-shot\n"
    "                                 CLI runs it; admission control\n"
    "                                 and graceful drain (docs/SERVE.md)\n"
    "  fuzz      [--seeds N]          adversarial chaos fuzzing: per-seed\n"
    "                                 scenario + fault schedule, invariant\n"
    "                                 cross-checks, delta-debugging\n"
    "                                 shrinking, reproducer corpus;\n"
    "                                 --replay FILE|DIR re-runs\n"
    "                                 reproducers as a regression gate\n"
    "                                 (docs/FUZZING.md)\n"
    "exit codes (docs/FORMAT.md): 0 ok, 1 usage, 2 input, 3 negative\n"
    "verdict, 4 resource-stopped (partial result), 5 internal\n"
    "options: --max-rounds N  --max-facts N  --max-depth N\n"
    "         --max-steps N  --deadline-ms N  --max-memory-mb N\n"
    "         --seed N\n"
    "         --auto-budget  fill unset --max-steps/--deadline-ms from\n"
    "                        the structural chase-complexity tier\n"
    "                        (docs/BUDGETS.md); the choice is echoed on\n"
    "                        the '# status:' line\n"
    "         --threads N   chase staging lanes (0 = all hardware\n"
    "                       threads); output is byte-identical for every\n"
    "                       N (see docs/PARALLELISM.md)\n"
    "chase checkpointing (see docs/CHECKPOINTS.md):\n"
    "         --checkpoint PATH            write crash-safe snapshots\n"
    "         --checkpoint-every-steps N   snapshot cadence (steps)\n"
    "         --checkpoint-every-ms N      snapshot cadence (wall clock)\n"
    "         --resume PATH                continue from a snapshot\n"
    "                                      (no DEPS/INSTANCE arguments)\n"
    "out-of-core storage (see docs/STORAGE.md):\n"
    "         --spill-dir DIR        spill sealed fact segments to DIR\n"
    "                                under memory pressure instead of\n"
    "                                stopping with exit 4; output stays\n"
    "                                byte-identical to the in-core run\n"
    "         --spill-segment-kb N   segment payload size (default 256)\n"
    "batch supervision (see docs/BATCH.md):\n"
    "         --run-dir DIR      artifacts + checkpoints (MANIFEST.runs)\n"
    "         --ledger PATH      run ledger (RUN_DIR/ledger.jsonl)\n"
    "         --worker PATH      fork+exec this binary per task instead\n"
    "                            of in-process forks\n"
    "         --max-parallel N  --retries N  --backoff-ms N\n"
    "         --backoff-cap-ms N  --grace-ms N  --task-deadline-ms N\n"
    "         --escalate-factor N  --accept-resource\n"
    "fuzzing (see docs/FUZZING.md):\n"
    "         --seeds N  --seed-start N   campaign size and first seed\n"
    "         --shape NAME       one family only: skolem-tower,\n"
    "                            pcp-near-divergent, high-fanout-join,\n"
    "                            wide-guard, triangular-frontier\n"
    "                            (default: rotate over all)\n"
    "         --no-faults        skip fork-based crash/ENOSPC injection\n"
    "         --corpus-dir DIR   write shrunk reproducers here\n"
    "         --scratch-dir DIR  workspace (default: a temp dir)\n"
    "         --shrink-rounds N  shrinker re-execution cap\n"
    "         --inject-bug NAME  seed a known defect (tamper-witness,\n"
    "                            torn-checkpoint) to exercise the\n"
    "                            catch -> shrink -> reproduce loop\n"
    "         --replay FILE|DIR  re-run reproducers; exit 3 when any\n"
    "                            still fails\n";

struct CliContext {
  /// The request's execution context (cancellation, virtual files).
  const ApiOptions* api = nullptr;
  Vocabulary vocab;
  TermArena arena;
  ChaseLimits limits;
  uint64_t seed = 0;
  std::string checkpoint_path;
  uint64_t checkpoint_every_steps = 0;
  uint64_t checkpoint_every_ms = 0;
  std::string resume_path;
  std::string lint_format = "text";
  LintSeverity fail_on = LintSeverity::kError;
  bool auto_budget = false;
  /// Extra tokens for '# status:' lines (e.g. the --auto-budget echo).
  std::string status_suffix;
  std::vector<std::string> positional;
};

std::optional<std::string> ReadFile(const CliContext& ctx,
                                    const std::string& path,
                                    std::ostream& err) {
  if (ctx.api != nullptr && ctx.api->resolver) {
    std::optional<std::string> virtual_file = ctx.api->resolver(path);
    if (virtual_file.has_value()) return virtual_file;
  }
  std::ifstream in(path);
  if (!in) {
    err << "tgdkit: cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses options into `ctx`; returns false on a malformed option.
bool ParseOptions(const std::vector<std::string>& args, CliContext* ctx,
                  std::ostream& err) {
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto numeric = [&](uint64_t* slot, uint64_t max = UINT64_MAX) {
      return ParseNumericFlag(args, &i, max, slot, err);
    };
    auto pathval = [&](std::string* slot) {
      if (i + 1 >= args.size()) {
        err << "tgdkit: missing value for " << arg << "\n";
        return false;
      }
      *slot = args[++i];
      if (slot->empty()) {
        err << "tgdkit: empty value for " << arg << "\n";
        return false;
      }
      return true;
    };
    if (arg == "--max-rounds") {
      if (!numeric(&ctx->limits.max_rounds)) return false;
    } else if (arg == "--max-facts") {
      if (!numeric(&ctx->limits.max_facts)) return false;
    } else if (arg == "--max-depth") {
      uint64_t depth = 0;
      if (!numeric(&depth, UINT32_MAX)) return false;
      ctx->limits.max_term_depth = static_cast<uint32_t>(depth);
    } else if (arg == "--max-steps") {
      if (!numeric(&ctx->limits.budget.max_steps)) return false;
    } else if (arg == "--deadline-ms") {
      if (!numeric(&ctx->limits.budget.deadline_ms)) return false;
    } else if (arg == "--max-memory-mb") {
      uint64_t mb = 0;
      if (!numeric(&mb, UINT64_MAX >> 20)) return false;
      ctx->limits.budget.max_memory_bytes = mb << 20;
    } else if (arg == "--seed") {
      if (!numeric(&ctx->seed)) return false;
    } else if (arg == "--auto-budget") {
      ctx->auto_budget = true;
    } else if (arg == "--threads") {
      uint64_t threads = 0;
      if (!numeric(&threads)) return false;
      if (threads > 256) {
        err << "tgdkit: --threads must be between 0 and 256\n";
        return false;
      }
      ctx->limits.threads = static_cast<uint32_t>(threads);
    } else if (arg == "--checkpoint") {
      if (!pathval(&ctx->checkpoint_path)) return false;
    } else if (arg == "--checkpoint-every-steps") {
      if (!numeric(&ctx->checkpoint_every_steps)) return false;
    } else if (arg == "--checkpoint-every-ms") {
      if (!numeric(&ctx->checkpoint_every_ms)) return false;
    } else if (arg == "--resume") {
      if (!pathval(&ctx->resume_path)) return false;
    } else if (arg == "--spill-dir") {
      if (!pathval(&ctx->limits.spill_dir)) return false;
    } else if (arg == "--spill-segment-kb") {
      // The chase engine scales it to bytes.
      if (!numeric(&ctx->limits.spill_segment_kb, UINT64_MAX >> 10)) {
        return false;
      }
      if (ctx->limits.spill_segment_kb == 0) {
        err << "tgdkit: --spill-segment-kb must be positive\n";
        return false;
      }
    } else if (arg == "--format" || arg.rfind("--format=", 0) == 0 ||
               arg == "--fail-on" || arg.rfind("--fail-on=", 0) == 0) {
      // Lint options take "--opt value" or "--opt=value".
      std::string name = arg, value;
      if (auto eq = arg.find('='); eq != std::string::npos) {
        name = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      } else if (i + 1 < args.size()) {
        value = args[++i];
      } else {
        err << "tgdkit: missing value for " << name << "\n";
        return false;
      }
      if (name == "--format") {
        if (value != "text" && value != "json" && value != "sarif") {
          err << "tgdkit: --format must be text, json or sarif\n";
          return false;
        }
        ctx->lint_format = value;
      } else if (!ParseLintSeverity(value, &ctx->fail_on)) {
        err << "tgdkit: --fail-on must be note, warning or error\n";
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      err << "tgdkit: unknown option " << arg << "\n";
      return false;
    } else {
      ctx->positional.push_back(arg);
    }
  }
  return true;
}

/// Loads and parses a dependency program.
std::optional<DependencyProgram> LoadDependencies(CliContext* ctx,
                                                  const std::string& path,
                                                  std::ostream& err) {
  std::optional<std::string> text = ReadFile(*ctx, path, err);
  if (!text.has_value()) return std::nullopt;
  Parser parser(&ctx->arena, &ctx->vocab);
  Result<DependencyProgram> program = parser.ParseDependencies(*text);
  if (!program.ok()) {
    err << "tgdkit: " << path << ": " << program.status().ToString() << "\n";
    return std::nullopt;
  }
  return std::move(*program);
}

std::optional<Instance> LoadInstance(CliContext* ctx,
                                     const std::string& path,
                                     std::ostream& err) {
  std::optional<std::string> text = ReadFile(*ctx, path, err);
  if (!text.has_value()) return std::nullopt;
  Parser parser(&ctx->arena, &ctx->vocab);
  Instance instance(&ctx->vocab);
  Status status = parser.ParseInstanceInto(*text, &instance);
  if (!status.ok()) {
    err << "tgdkit: " << path << ": " << status.ToString() << "\n";
    return std::nullopt;
  }
  return instance;
}

/// --auto-budget: fills the still-unset step/deadline budgets from the
/// structural chase-complexity tier (docs/BUDGETS.md) and records the
/// '# status:' echo token. Explicit flags always win — only zero-valued
/// budget fields are filled — and without the flag this is a no-op, so
/// default output stays byte-identical.
void ApplyAutoBudget(CliContext* ctx, const SoTgd& rules) {
  if (!ctx->auto_budget) return;
  ComplexityBound bound = AnalyzeSo(ctx->arena, rules).complexity;
  uint64_t steps = 0, deadline_ms = 0;
  switch (bound.tier) {
    case ComplexityTier::kPolynomial:
      // Terminating by construction: scale the step budget with the
      // proven null-nesting rank and allow a generous deadline.
      steps = (uint64_t{bound.rank} + 1) * 2000000;
      deadline_ms = 120000;
      break;
    case ComplexityTier::kExponential:
      steps = 1000000;
      deadline_ms = 30000;
      break;
    case ComplexityTier::kNonElementary:
      steps = 250000;
      deadline_ms = 10000;
      break;
  }
  if (ctx->limits.budget.max_steps == 0) {
    ctx->limits.budget.max_steps = steps;
  }
  if (ctx->limits.budget.deadline_ms == 0) {
    ctx->limits.budget.deadline_ms = deadline_ms;
  }
  ctx->status_suffix = Cat(" auto_budget=", ComplexityTierName(bound.tier),
                           ":max-steps=", ctx->limits.budget.max_steps,
                           ":deadline-ms=", ctx->limits.budget.deadline_ms);
}

/// The governor a command's output renders under once its engines have
/// stopped: the run's deadline, counted from the start of rendering, and
/// its cancellation token (SIGINT/SIGTERM, serve disconnects and serve
/// deadlines). Rendering counts no steps, and the bytes the writers hold
/// are not charged, so both limits are cleared.
ResourceGovernor RenderGovernor(const ExecutionBudget& budget) {
  ExecutionBudget render = budget;
  render.max_steps = 0;
  render.max_memory_bytes = 0;
  return ResourceGovernor(render);
}

/// Ends output that stopped mid-render. After a stream failure nothing
/// more is written (CliMain reports kExitPipe); after a budget stop the
/// current line is finished and the stop's `# status:` line comes last,
/// which is the line the batch ledger reads.
void EndStoppedRender(ChunkedWriter* out, bool mid_line,
                      const ResourceGovernor& render, const char* command) {
  if (!out->ok() || !render.exhausted()) return;
  if (mid_line) out->Append('\n');
  out->Append("# status: ");
  out->Append(render.ToStatus(command).ToString());
  out->Append('\n');
}

const char* KindName(ParsedDependency::Kind kind) {
  switch (kind) {
    case ParsedDependency::Kind::kTgd:
      return "tgd";
    case ParsedDependency::Kind::kSo:
      return "so-tgd";
    case ParsedDependency::Kind::kNested:
      return "nested-tgd";
    case ParsedDependency::Kind::kHenkin:
      return "henkin-tgd";
  }
  return "?";
}

int CmdClassify(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 1) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  for (size_t i = 0; i < program->dependencies.size(); ++i) {
    const ParsedDependency& dep = program->dependencies[i];
    SoTgd so = SkolemizeStatement(&ctx->arena, &ctx->vocab, dep);
    out << StatementLabel(dep, i) << " (" << KindName(dep.kind) << ")\n";
    out << "  figure-1: " << ToString(ClassifyFigure1(ctx->arena, so))
        << "\n";
    // Per-statement analysis, labeled so witnesses read naturally. The
    // membership row itself stays byte-identical to the pre-analyzer
    // output; witnesses ride along as '#'-prefixed extra lines.
    ProgramAnalysis analysis = AnalyzeRules(
        ctx->arena, StatementRules(dep, static_cast<uint32_t>(i), so));
    out << "  figure-2: " << ToString(analysis.Membership()) << "\n";
    for (const CriterionVerdict& verdict : analysis.verdicts) {
      if (verdict.holds) continue;
      out << "  # witness: not " << CriterionName(verdict.criterion) << ": "
          << WitnessToString(ctx->arena, ctx->vocab, analysis, verdict)
          << "\n";
    }
    out << "  # complexity: " << ComplexityToString(ctx->vocab, analysis)
        << "\n";
  }
  // Whole-program termination check via the critical instance.
  SoTgd rules = SkolemizeProgram(&ctx->arena, &ctx->vocab, *program);
  std::set<RelationId> schema;
  for (const SoPart& part : rules.parts) {
    for (const Atom& atom : part.body) schema.insert(atom.relation);
    for (const Atom& atom : part.head) schema.insert(atom.relation);
  }
  std::vector<RelationId> relations(schema.begin(), schema.end());
  ChaseLimits limits = ctx->limits;
  limits.max_term_depth = std::min<uint32_t>(limits.max_term_depth, 32);
  limits.max_facts = std::min<uint64_t>(limits.max_facts, 200000);
  CriticalInstanceReport report = TerminatesOnCriticalInstance(
      &ctx->arena, &ctx->vocab, rules, relations, limits);
  out << "chase termination (critical instance): "
      << (report.terminated ? "PROVEN for all inputs"
                            : "no fixpoint within budget")
      << " (" << report.rounds << " rounds, " << report.facts
      << " facts)\n";
  // Structural bound on the chase cost for the merged program
  // (Hanisch–Krötzsch-style tiering over generating components).
  out << "chase complexity (structural): "
      << ComplexityToString(ctx->vocab, AnalyzeSo(ctx->arena, rules)) << "\n";
  // The termination probe is expected to hit its budget on
  // non-terminating programs; its verdict is in-band, not an exit code.
  return kExitOk;
}

/// Runs a (fresh or resumed) chase engine to completion, writing periodic
/// and final snapshots when --checkpoint is set, and prints the result.
/// The final snapshot is written for ANY stop reason — fixpoint included —
/// so an interrupted pipeline can always pick up from the last state.
int RunChaseEngine(CliContext* ctx, ChaseEngine* engine,
                   const Vocabulary& vocab, const TermArena& arena,
                   const SoTgd& rules, uint64_t seed, Rng* rng,
                   std::ostream& out, std::ostream& err) {
  Status checkpoint_status;  // first failure, sticky
  auto save = [&](const ChaseEngine& e) {
    Status status =
        SaveChaseSnapshot(ctx->checkpoint_path, vocab, arena, rules,
                          e.CaptureState(), seed, rng->state());
    if (!status.ok()) {
      // Report once; the run itself continues (a full disk should not
      // kill an hour-long chase, it just stops being checkpointed).
      if (checkpoint_status.ok()) {
        err << "tgdkit: checkpoint: " << status.ToString() << "\n";
        checkpoint_status = std::move(status);
      }
    }
  };
  if (!ctx->checkpoint_path.empty()) {
    engine->SetCheckpointHook(ctx->checkpoint_every_steps,
                              ctx->checkpoint_every_ms, save);
  }
  engine->Run();
  if (!ctx->checkpoint_path.empty()) save(*engine);
  out << "# chase " << ToString(engine->stop_reason()) << " after "
      << engine->rounds() << " rounds, " << engine->facts_created()
      << " facts created\n";
  out << "# status: "
      << StopReasonToStatus(engine->stop_reason(), "chase").ToString()
      << " seed=" << seed << " threads=" << engine->threads()
      << ctx->status_suffix;
  if (engine->instance().spill_enabled()) {
    // Only the content-derived fields go to stdout: they are identical
    // after a kill-and-resume, so stdout stays byte-reproducible. The
    // process-local I/O counters are diagnostics and go to stderr.
    SpillStats spill = engine->instance().spill_stats();
    out << " spill_segments=" << spill.sealed_segments
        << " spill_bytes=" << spill.spilled_bytes;
    err << "# spill: faults=" << spill.faults
        << " evictions=" << spill.evictions
        << " segment_writes=" << spill.segment_writes << "\n";
  }
  out << "\n";
  ResourceGovernor render = RenderGovernor(ctx->limits.budget);
  {
    ChunkedWriter writer(&out);
    if (!engine->instance().WriteCanonical(&writer, &render)) {
      EndStoppedRender(&writer, false, render, "chase");
    }
  }
  // A failed checkpoint outranks the engine verdict: the caller asked for
  // durability and did not get it. Disk exhaustion maps to the resource
  // exit so the batch supervisor can retry/escalate instead of
  // quarantining the task as broken.
  if (!checkpoint_status.ok()) {
    return ExitCodeForStatus(checkpoint_status) == kExitResource
               ? kExitResource
               : kExitInternal;
  }
  return ExitCodeForStop(render.exhausted() ? render.reason()
                                            : engine->stop_reason());
}

int CmdChaseResume(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (!ctx->positional.empty()) {
    err << "tgdkit: --resume is self-contained; no DEPS/INSTANCE "
           "arguments expected\n";
    return kExitUsage;
  }
  Result<ChaseSnapshot> loaded =
      LoadChaseSnapshot(ctx->resume_path, ctx->limits.spill_dir);
  if (!loaded.ok()) {
    err << "tgdkit: " << ctx->resume_path << ": "
        << loaded.status().ToString() << "\n";
    return kExitInput;
  }
  ChaseSnapshot snap = std::move(*loaded);
  ApplyAutoBudget(ctx, snap.rules);
  ChaseEngine engine(snap.arena.get(), snap.vocab.get(), snap.rules,
                     std::move(*snap.state), ctx->limits);
  Rng rng(snap.seed);
  rng.set_state(snap.rng_state);
  return RunChaseEngine(ctx, &engine, *snap.vocab, *snap.arena, snap.rules,
                        snap.seed, &rng, out, err);
}

int CmdChase(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (!ctx->resume_path.empty()) return CmdChaseResume(ctx, out, err);
  if (ctx->positional.size() != 2) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  auto instance = LoadInstance(ctx, ctx->positional[1], err);
  if (!instance.has_value()) return kExitInput;
  SoTgd rules = SkolemizeProgram(&ctx->arena, &ctx->vocab, *program);
  ApplyAutoBudget(ctx, rules);
  ChaseEngine engine(&ctx->arena, &ctx->vocab, rules, std::move(*instance),
                     ctx->limits);
  Rng rng(ctx->seed);
  return RunChaseEngine(ctx, &engine, ctx->vocab, ctx->arena, rules,
                        ctx->seed, &rng, out, err);
}

int CmdCheck(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 2) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  auto instance = LoadInstance(ctx, ctx->positional[1], err);
  if (!instance.has_value()) return kExitInput;
  bool violated = false;
  std::optional<StopReason> unknown;
  McOptions mc_options;
  mc_options.budget = ctx->limits.budget;
  for (size_t i = 0; i < program->dependencies.size(); ++i) {
    const ParsedDependency& dep = program->dependencies[i];
    std::string verdict;
    switch (dep.kind) {
      case ParsedDependency::Kind::kTgd: {
        ResourceGovernor governor(ctx->limits.budget);
        auto violation =
            FindTgdViolation(ctx->arena, *instance, dep.tgd, &governor);
        if (governor.exhausted()) {
          unknown = governor.reason();
          verdict = Cat("UNKNOWN (", ToString(governor.reason()), ")");
        } else if (violation.has_value()) {
          verdict = Cat("VIOLATED at ",
                        violation->ToString(ctx->vocab, *instance));
        } else {
          verdict = "satisfied";
        }
        break;
      }
      case ParsedDependency::Kind::kNested: {
        ResourceGovernor governor(ctx->limits.budget);
        auto violation =
            FindNestedViolation(ctx->arena, *instance, dep.nested,
                                &governor);
        if (governor.exhausted()) {
          unknown = governor.reason();
          verdict = Cat("UNKNOWN (", ToString(governor.reason()), ")");
        } else if (violation.has_value()) {
          verdict = Cat("VIOLATED at ",
                        violation->ToString(ctx->vocab, *instance));
        } else {
          verdict = "satisfied";
        }
        break;
      }
      case ParsedDependency::Kind::kHenkin: {
        McResult result = CheckHenkin(&ctx->arena, &ctx->vocab, *instance,
                                      dep.henkin, mc_options);
        if (result.budget_exceeded) unknown = result.stop;
        verdict = result.budget_exceeded
                      ? Cat("UNKNOWN (", ToString(result.stop), ")")
                  : result.satisfied ? "satisfied"
                                     : "VIOLATED";
        break;
      }
      case ParsedDependency::Kind::kSo: {
        McResult result = CheckSo(ctx->arena, *instance, dep.so, mc_options);
        if (result.budget_exceeded) unknown = result.stop;
        verdict = result.budget_exceeded
                      ? Cat("UNKNOWN (", ToString(result.stop), ")")
                  : result.satisfied ? "satisfied"
                                     : "VIOLATED";
        break;
      }
    }
    violated |= verdict.rfind("VIOLATED", 0) == 0;
    out << StatementLabel(dep, i) << " (" << KindName(dep.kind)
        << "): " << verdict << "\n";
  }
  // A definite violation outranks an UNKNOWN: the negative verdict stands
  // no matter how much budget a bigger run would get.
  if (violated) {
    out << "# status: OK\n";
    return kExitVerdict;
  }
  if (unknown.has_value()) {
    out << "# status: " << StopReasonToStatus(*unknown, "check").ToString()
        << "\n";
    return kExitResource;
  }
  out << "# status: OK\n";
  return kExitOk;
}

int CmdCertain(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 3) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  auto instance = LoadInstance(ctx, ctx->positional[1], err);
  if (!instance.has_value()) return kExitInput;
  Parser parser(&ctx->arena, &ctx->vocab);
  Result<ConjunctiveQuery> query = parser.ParseQuery(ctx->positional[2]);
  if (!query.ok()) {
    err << "tgdkit: query: " << query.status().ToString() << "\n";
    return kExitInput;
  }
  // Only the parts that reach the query are chased, and --auto-budget
  // takes its tier from them.
  std::vector<RelationId> targets;
  for (const Atom& atom : query->atoms) targets.push_back(atom.relation);
  SoTgd rules = PartsReaching(
      SkolemizeProgram(&ctx->arena, &ctx->vocab, *program), targets);
  ApplyAutoBudget(ctx, rules);
  CertainAnswers answers =
      ComputeCertainAnswers(&ctx->arena, &ctx->vocab, rules,
                            std::move(*instance), *query, ctx->limits);
  out << "# " << (answers.Complete() ? "complete" : "TRUNCATED")
      << " (chase " << answers.chase_rounds << " rounds)\n";
  out << "# status: "
      << StopReasonToStatus(answers.chase_stop, "certain").ToString()
      << ctx->status_suffix << "\n";
  if (query->IsBoolean()) {
    out << (answers.answers.empty() ? "false" : "true") << "\n";
  } else {
    // Answers hold constants only.
    for (const auto& row : answers.answers) {
      out << JoinMapped(row, ", ",
                        [&](Value v) {
                          return ConstantToString(ctx->vocab, v.index());
                        })
          << "\n";
    }
  }
  // Truncated answers are sound but incomplete: a resource exit so
  // pipelines (and the batch supervisor) can escalate budgets.
  return ExitCodeForStop(answers.chase_stop);
}

int CmdNormalize(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 1) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  for (size_t i = 0; i < program->dependencies.size(); ++i) {
    const ParsedDependency& dep = program->dependencies[i];
    if (dep.kind != ParsedDependency::Kind::kNested) continue;
    out << StatementLabel(dep, i) << ":\n";
    SoTgd so = NestedToSo(&ctx->arena, &ctx->vocab, dep.nested);
    out << "  nested-to-so: " << ToString(ctx->arena, ctx->vocab, so)
        << "\n";
    bool overflow = false;
    std::vector<HenkinTgd> henkins = NestedToHenkin(
        &ctx->arena, &ctx->vocab, dep.nested, 1u << 12, &overflow);
    if (overflow) {
      out << "  nested-to-henkin: overflow ("
          << NestedToHenkinRuleCount(dep.nested) << " rules)\n";
      continue;
    }
    out << "  nested-to-henkin (" << henkins.size() << " rules):\n";
    for (const HenkinTgd& henkin : henkins) {
      out << "    " << ToString(ctx->arena, ctx->vocab, henkin) << "\n";
    }
  }
  return kExitOk;
}

int CmdExplain(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 2) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  auto instance = LoadInstance(ctx, ctx->positional[1], err);
  if (!instance.has_value()) return kExitInput;
  SoTgd rules = SkolemizeProgram(&ctx->arena, &ctx->vocab, *program);
  ApplyAutoBudget(ctx, rules);
  ChaseResult result = Chase(&ctx->arena, &ctx->vocab, rules,
                             std::move(*instance), ctx->limits);
  out << "# chase " << ToString(result.stop_reason) << "; "
      << result.instance.num_nulls() << " nulls\n";
  out << "# status: "
      << StopReasonToStatus(result.stop_reason, "explain").ToString()
      << ctx->status_suffix << "\n";
  // A null's Skolem term expands its shared subterms, so one line can be
  // exponential in the chase depth: the render polls once per term node.
  ResourceGovernor render = RenderGovernor(ctx->limits.budget);
  {
    ChunkedWriter writer(&out);
    for (uint32_t i = 0; i < result.instance.num_nulls(); ++i) {
      Value null = Value::Null(i);
      writer.Append(result.instance.ValueToString(null));
      writer.Append(" = ");
      if (!result.WriteExplanation(ctx->arena, ctx->vocab, null, &writer,
                                   &render)) {
        EndStoppedRender(&writer, true, render, "explain");
        break;
      }
      writer.Append('\n');
    }
  }
  return ExitCodeForStop(render.exhausted() ? render.reason()
                                            : result.stop_reason);
}

int CmdCompose(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() < 2) {
    err << kUsage;
    return kExitUsage;
  }
  std::vector<std::vector<Tgd>> chain;
  for (const std::string& path : ctx->positional) {
    auto program = LoadDependencies(ctx, path, err);
    if (!program.has_value()) return kExitInput;
    std::vector<Tgd> tgds = program->Tgds();
    if (tgds.empty()) {
      err << "tgdkit: " << path << ": composition needs plain tgds\n";
      return kExitInput;
    }
    chain.push_back(std::move(tgds));
  }
  Result<SoTgd> composed =
      chain.size() == 2
          ? ComposeMappings(&ctx->arena, &ctx->vocab, chain[0], chain[1])
          : ComposeChain(&ctx->arena, &ctx->vocab, chain);
  if (!composed.ok()) {
    err << "tgdkit: " << composed.status().ToString() << "\n";
    return kExitInput;
  }
  if (composed->parts.empty()) {
    out << "// empty composition: the second mapping never fires\n";
    return kExitOk;
  }
  out << ToString(ctx->arena, ctx->vocab, *composed) << " .\n";
  return kExitOk;
}

int CmdSolve(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 2) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  auto instance = LoadInstance(ctx, ctx->positional[1], err);
  if (!instance.has_value()) return kExitInput;
  SchemaMapping mapping;
  mapping.rules = SkolemizeProgram(&ctx->arena, &ctx->vocab, *program);
  // Infer the split: body relations are source, head relations target.
  for (const SoPart& part : mapping.rules.parts) {
    for (const Atom& atom : part.body) {
      mapping.source_relations.insert(atom.relation);
    }
    for (const Atom& atom : part.head) {
      mapping.target_relations.insert(atom.relation);
    }
  }
  Status status = ValidateSourceToTarget(mapping);
  if (!status.ok()) {
    err << "tgdkit: mapping is not source-to-target: "
        << status.ToString() << "\n";
    return kExitInput;
  }
  ExchangeResult result = Solve(&ctx->arena, &ctx->vocab, mapping,
                                *instance, ctx->limits);
  Instance core = CoreSolution(&ctx->arena, &ctx->vocab, result.solution,
                               ctx->limits.budget);
  ResourceGovernor render = RenderGovernor(ctx->limits.budget);
  ChunkedWriter writer(&out);
  writer.Append(Cat("# ", result.IsUniversal() ? "universal" : "TRUNCATED",
                    " solution (", result.solution.NumFacts(), " facts)\n"));
  if (!result.solution.WriteCanonical(&writer, &render)) {
    EndStoppedRender(&writer, false, render, "solve");
    return ExitCodeForStop(render.reason());
  }
  writer.Append(Cat("# core solution (", core.NumFacts(), " facts)\n"));
  if (!core.WriteCanonical(&writer, &render)) {
    EndStoppedRender(&writer, false, render, "solve");
    return ExitCodeForStop(render.reason());
  }
  writer.Append(Cat("# status: ",
                    StopReasonToStatus(result.chase_stop, "solve").ToString(),
                    "\n"));
  return ExitCodeForStop(result.chase_stop);
}

int CmdLint(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 1) {
    err << kUsage;
    return kExitUsage;
  }
  const std::string& path = ctx->positional[0];
  std::optional<std::string> text = ReadFile(*ctx, path, err);
  if (!text.has_value()) return kExitInput;
  Parser parser(&ctx->arena, &ctx->vocab);
  // Lenient parse: semantic validation failures become located lint
  // errors instead of aborting; only grammar errors stop the run.
  Result<DependencyProgram> program = parser.ParseDependenciesLenient(*text);
  if (!program.ok()) {
    err << "tgdkit: " << path << ": " << program.status().ToString() << "\n";
    return kExitInput;
  }
  LintReport report = LintProgram(&ctx->arena, &ctx->vocab, *program);
  if (ctx->lint_format == "json") {
    out << RenderLintJson(path, report);
  } else if (ctx->lint_format == "sarif") {
    out << RenderLintSarif(path, report);
  } else {
    out << RenderLintText(path, report);
  }
  // Findings are a negative verdict, not a usage error: exit 3 so the
  // batch supervisor records them as completed-with-verdict instead of
  // quarantining the task as misconfigured.
  return report.HasAtLeast(ctx->fail_on) ? kExitVerdict : kExitOk;
}

int CmdDot(CliContext* ctx, std::ostream& out, std::ostream& err) {
  if (ctx->positional.size() != 1) {
    err << kUsage;
    return kExitUsage;
  }
  auto program = LoadDependencies(ctx, ctx->positional[0], err);
  if (!program.has_value()) return kExitInput;
  ProgramAnalysis analysis =
      AnalyzeProgram(&ctx->arena, &ctx->vocab, *program);
  out << "// position dependency graph (dashed = special edges)\n";
  out << PositionGraphDot(ctx->vocab, analysis);
  out << "// analysis graph (edges labeled rule/variable; affected "
         "shaded, marked bold; witness cycle and unguarded triangle "
         "red)\n";
  out << AnalysisDot(ctx->vocab, analysis);
  out << "// Figure 2 Hasse diagram (members filled)\n";
  out << Figure2HasseDot(analysis.Membership());
  for (size_t i = 0; i < program->dependencies.size(); ++i) {
    const ParsedDependency& dep = program->dependencies[i];
    if (dep.kind == ParsedDependency::Kind::kHenkin) {
      out << "// quantifier order of " << StatementLabel(dep, i) << "\n";
      out << QuantifierDot(ctx->vocab, dep.henkin.quantifier);
    } else if (dep.kind == ParsedDependency::Kind::kNested) {
      out << "// nesting tree of " << StatementLabel(dep, i) << "\n";
      out << NestingTreeDot(ctx->arena, ctx->vocab, dep.nested);
    }
  }
  return kExitOk;
}

/// Hidden test command: a worker with scriptable misbehaviour, so the
/// batch supervisor's crash/timeout/escalation paths are testable
/// deterministically and without a real engine. Not in kUsage on purpose.
///
///   tgdkit selftest [--stdout-lines N] [--stderr-lines N] [--spin-ms N]
///                   [--ignore-term] [--die-signal N] [--die-exit N]
///
/// Order: print, optionally ignore SIGTERM, spin (checking cooperative
/// cancellation unless --ignore-term), then die as instructed.
int CmdSelftest(const std::vector<std::string>& args,
                const ApiOptions& api, std::ostream& out,
                std::ostream& err) {
  uint64_t stdout_lines = 0, stderr_lines = 0, spin_ms = 0;
  uint64_t die_signal = 0, die_exit = 0;
  bool has_die_exit = false, ignore_term = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto numeric = [&](uint64_t* slot, uint64_t max = UINT64_MAX) {
      return ParseNumericFlag(args, &i, max, slot, err);
    };
    if (arg == "--stdout-lines") {
      if (!numeric(&stdout_lines)) return kExitUsage;
    } else if (arg == "--stderr-lines") {
      if (!numeric(&stderr_lines)) return kExitUsage;
    } else if (arg == "--spin-ms") {
      if (!numeric(&spin_ms)) return kExitUsage;
    } else if (arg == "--die-signal") {
      if (!numeric(&die_signal, NSIG - 1)) return kExitUsage;
    } else if (arg == "--die-exit") {
      // An exit status is one byte; a wider value would wrap.
      if (!numeric(&die_exit, 255)) return kExitUsage;
      has_die_exit = true;
    } else if (arg == "--ignore-term") {
      ignore_term = true;
    } else {
      err << "tgdkit: selftest: unknown option " << arg << "\n";
      return kExitUsage;
    }
  }
  for (uint64_t i = 0; i < stdout_lines; ++i) {
    out << "selftest stdout line " << i << "\n";
  }
  for (uint64_t i = 0; i < stderr_lines; ++i) {
    err << "selftest stderr line " << i << "\n";
  }
  out.flush();
  err.flush();
  // Process-level dispositions are only touched when this process is
  // ours alone (a forked worker / the one-shot CLI). In a shared
  // process (the serve daemon) --ignore-term still means "do not poll
  // the cancellation token", which is the part hard-overrun tests need.
  if (ignore_term && !api.forbid_fork_workers) {
    std::signal(SIGTERM, SIG_IGN);
  }
  if (die_signal != 0 && api.forbid_fork_workers) {
    err << "tgdkit: selftest: --die-signal is unavailable in a shared "
           "process\n";
    return kExitUsage;
  }
  if (spin_ms > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(spin_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!ignore_term && api.cancel.cancelled()) {
        out << "# status: "
            << StopReasonToStatus(StopReason::kCancelled, "selftest")
                   .ToString()
            << "\n";
        return kExitResource;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (die_signal != 0) {
    out.flush();
    err.flush();
    std::raise(static_cast<int>(die_signal));
    // Still here: the signal is ignored or handled (SIGCHLD, SIGTERM),
    // and a task meant to crash must not complete.
    err << "tgdkit: selftest: signal " << die_signal
        << " did not end the process\n";
    return kExitInternal;
  }
  if (has_die_exit) return static_cast<int>(die_exit);
  out << "# status: OK\n";
  return kExitOk;
}

/// `tgdkit batch MANIFEST`: parses its own flag set (task argvs already
/// carry the engine options), merges CLI > manifest `batch` directives >
/// built-in defaults, and hands off to the supervisor.
int CmdBatch(const std::vector<std::string>& args, const ApiOptions& api,
             std::ostream& out, std::ostream& err) {
  SupervisorOptions options;
  SupervisorCliOverrides set;
  std::vector<std::string> positional;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto numeric = [&](uint64_t* slot, bool* explicit_flag) {
      if (!ParseNumericFlag(args, &i, UINT64_MAX, slot, err)) return false;
      *explicit_flag = true;
      return true;
    };
    auto pathval = [&](std::string* slot) {
      if (i + 1 >= args.size()) {
        err << "tgdkit: missing value for " << arg << "\n";
        return false;
      }
      *slot = args[++i];
      return !slot->empty();
    };
    if (arg == "--run-dir") {
      if (!pathval(&options.run_dir)) return kExitUsage;
    } else if (arg == "--ledger") {
      if (!pathval(&options.ledger_path)) return kExitUsage;
    } else if (arg == "--worker") {
      if (!pathval(&options.worker_binary)) return kExitUsage;
    } else if (arg == "--max-parallel") {
      if (!numeric(&options.max_parallel, &set.max_parallel)) {
        return kExitUsage;
      }
    } else if (arg == "--retries") {
      if (!numeric(&options.retries, &set.retries)) return kExitUsage;
    } else if (arg == "--backoff-ms") {
      if (!numeric(&options.backoff_ms, &set.backoff_ms)) return kExitUsage;
    } else if (arg == "--backoff-cap-ms") {
      if (!numeric(&options.backoff_cap_ms, &set.backoff_cap_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--grace-ms") {
      if (!numeric(&options.grace_ms, &set.grace_ms)) return kExitUsage;
    } else if (arg == "--task-deadline-ms") {
      if (!numeric(&options.task_deadline_ms, &set.task_deadline_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--escalate-factor") {
      if (!numeric(&options.escalate_factor, &set.escalate_factor)) {
        return kExitUsage;
      }
    } else if (arg == "--checkpoint-every-steps") {
      if (!numeric(&options.checkpoint_every_steps,
                   &set.checkpoint_every_steps)) {
        return kExitUsage;
      }
    } else if (arg == "--checkpoint-every-ms") {
      if (!numeric(&options.checkpoint_every_ms,
                   &set.checkpoint_every_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--accept-resource") {
      options.accept_resource = true;
      set.accept_resource = true;
    } else if (arg.rfind("--", 0) == 0) {
      err << "tgdkit: batch: unknown option " << arg << "\n";
      return kExitUsage;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    err << kUsage;
    return kExitUsage;
  }
  options.manifest_path = positional[0];
  Result<Manifest> manifest = LoadManifest(options.manifest_path);
  if (!manifest.ok()) {
    err << "tgdkit: " << options.manifest_path << ": "
        << manifest.status().ToString() << "\n";
    return ExitCodeForStatus(manifest.status());
  }
  ApplyManifestDefaults(manifest->defaults, set, &options);
  if (options.run_dir.empty()) {
    options.run_dir = options.manifest_path + ".runs";
  }
  if (options.ledger_path.empty()) {
    options.ledger_path = options.run_dir + "/ledger.jsonl";
  }
  if (options.max_parallel == 0) options.max_parallel = 1;
  if (api.forbid_fork_workers && options.worker_binary.empty()) {
    // fork() without exec from a multithreaded process (the serve
    // daemon) can deadlock in the child; only fork+exec workers are
    // safe there.
    err << "tgdkit: batch: in-process fork workers are unavailable in "
           "this context; pass --worker BIN\n";
    return kExitUsage;
  }
  options.cancel = api.cancel;
  Result<SupervisorReport> report = RunBatch(*manifest, options, out, err);
  if (!report.ok()) {
    err << "tgdkit: batch: " << report.status().ToString() << "\n";
    return ExitCodeForStatus(report.status());
  }
  return report->ExitCode();
}

uint64_t CountStatements(const std::string& text) {
  uint64_t count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++count;
  }
  return count;
}

std::string OneLine(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

/// `tgdkit fuzz --replay FILE|DIR`: re-runs reproducers as a regression
/// gate. A missing or empty corpus directory passes (nothing regressed);
/// a named file that does not exist or does not parse is an input error.
int FuzzReplay(const std::string& path, const FuzzOptions& options,
               std::ostream& out, std::ostream& err) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    files = ListReproducers(path);
  } else if (fs::exists(path, ec)) {
    files.push_back(path);
  } else if (fs::path(path).extension() == ".repro") {
    err << "tgdkit: fuzz: cannot open reproducer '" << path << "'\n";
    return kExitInput;
  }
  if (files.empty()) {
    out << "# fuzz replay: no reproducers under " << path << "\n";
    out << "# status: OK\n";
    return kExitOk;
  }
  uint64_t failing = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string invariant;
    Result<FuzzScenario> scenario = ParseReproducer(buffer.str(), &invariant);
    if (!scenario.ok()) {
      err << "tgdkit: fuzz: " << file << ": "
          << scenario.status().ToString() << "\n";
      return kExitInput;
    }
    ScenarioVerdict verdict = RunScenario(*scenario, options, invariant);
    out << "# fuzz replay " << file;
    if (verdict.violation) {
      ++failing;
      out << " verdict=FAIL invariant=" << verdict.violation->invariant
          << " detail=\"" << OneLine(verdict.violation->detail) << "\"\n";
    } else {
      out << " verdict=ok\n";
    }
  }
  out << "# fuzz replay summary files=" << files.size()
      << " failing=" << failing << "\n";
  out << "# status: OK\n";
  return failing != 0 ? kExitVerdict : kExitOk;
}

/// `tgdkit fuzz`: the chaos-fuzzing campaign driver (docs/FUZZING.md).
/// Parses its own flag set — the engine options of the runs it launches
/// are fixed by the campaign so the verdict log is deterministic per
/// seed.
int CmdFuzz(const std::vector<std::string>& args, const ApiOptions& api,
            std::ostream& out, std::ostream& err) {
  namespace fs = std::filesystem;
  FuzzOptions options;
  std::string replay_path;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto numeric = [&](uint64_t* slot, uint64_t max = UINT64_MAX) {
      return ParseNumericFlag(args, &i, max, slot, err);
    };
    auto pathval = [&](std::string* slot) {
      if (i + 1 >= args.size()) {
        err << "tgdkit: missing value for " << arg << "\n";
        return false;
      }
      *slot = args[++i];
      return !slot->empty();
    };
    if (arg == "--seeds") {
      if (!numeric(&options.seeds)) return kExitUsage;
    } else if (arg == "--seed-start") {
      if (!numeric(&options.seed_start)) return kExitUsage;
    } else if (arg == "--shape") {
      std::string name;
      if (!pathval(&name)) return kExitUsage;
      AdversarialShape shape;
      if (!ParseAdversarialShapeName(name, &shape)) {
        err << "tgdkit: fuzz: unknown shape '" << name << "'\n";
        return kExitUsage;
      }
      options.shape = shape;
    } else if (arg == "--no-faults") {
      options.fork_faults = false;
    } else if (arg == "--corpus-dir") {
      if (!pathval(&options.corpus_dir)) return kExitUsage;
    } else if (arg == "--scratch-dir") {
      if (!pathval(&options.scratch_dir)) return kExitUsage;
    } else if (arg == "--shrink-rounds") {
      uint64_t rounds = 0;
      if (!numeric(&rounds, UINT32_MAX)) return kExitUsage;
      options.shrink_attempts = static_cast<uint32_t>(rounds);
    } else if (arg == "--inject-bug") {
      if (!pathval(&options.inject_bug)) return kExitUsage;
      if (options.inject_bug != "tamper-witness" &&
          options.inject_bug != "torn-checkpoint") {
        err << "tgdkit: fuzz: --inject-bug must be tamper-witness or "
               "torn-checkpoint\n";
        return kExitUsage;
      }
    } else if (arg == "--replay") {
      if (!pathval(&replay_path)) return kExitUsage;
    } else {
      err << "tgdkit: fuzz: unknown argument " << arg << "\n";
      return kExitUsage;
    }
  }
  if (api.forbid_fork_workers && options.fork_faults) {
    // fork() from a multithreaded daemon can deadlock in the child;
    // crash/ENOSPC injection is only available from the one-shot CLI.
    options.fork_faults = false;
    err << "tgdkit: fuzz: fault forks are unavailable in this context; "
           "running without crash injection\n";
  }
  options.run_cli = [&api](const std::vector<std::string>& cli_args,
                           std::ostream& cli_out, std::ostream& cli_err) {
    return RunCommand(cli_args, cli_out, cli_err, api);
  };
  bool scratch_is_temp = false;
  if (options.scratch_dir.empty()) {
    std::error_code ec;
    fs::path base = fs::temp_directory_path(ec);
    if (!ec) {
      options.scratch_dir =
          (base / Cat("tgdkit-fuzz-", static_cast<uint64_t>(getpid())))
              .string();
      scratch_is_temp = true;
    }
  }
  if (!options.scratch_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.scratch_dir, ec);
    if (ec) options.scratch_dir.clear();  // CLI invariants degrade away
  }
  int code;
  if (!replay_path.empty()) {
    code = FuzzReplay(replay_path, options, out, err);
  } else {
    uint64_t violations = 0;
    for (uint64_t i = 0; i < options.seeds; ++i) {
      uint64_t seed = options.seed_start + i;
      FuzzScenario scenario = MakeScenario(seed, options);
      ScenarioVerdict verdict = RunScenario(scenario, options);
      out << "# fuzz seed=" << seed
          << " shape=" << AdversarialShapeName(scenario.shape)
          << " fault=\"" << ToString(scenario.fault) << "\"";
      if (!verdict.violation) {
        out << " verdict=ok\n";
        continue;
      }
      ++violations;
      out << " verdict=FAIL invariant=" << verdict.violation->invariant
          << " detail=\"" << OneLine(verdict.violation->detail) << "\"\n";
      ShrinkOutcome shrunk =
          ShrinkScenario(scenario, verdict.violation->invariant, options);
      out << "# fuzz shrunk seed=" << seed
          << " statements=" << CountStatements(shrunk.scenario.program)
          << " facts=" << CountStatements(shrunk.scenario.instance)
          << " attempts=" << shrunk.attempts << "\n";
      if (!options.corpus_dir.empty()) {
        std::string path;
        Status written = WriteReproducer(options.corpus_dir, shrunk.scenario,
                                         *verdict.violation, &path);
        if (written.ok()) {
          out << "# fuzz reproducer: " << path << "\n";
        } else {
          err << "tgdkit: fuzz: " << written.ToString() << "\n";
        }
      }
    }
    out << "# fuzz summary seeds=" << options.seeds
        << " violations=" << violations << "\n";
    out << "# status: OK\n";
    code = violations != 0 ? kExitVerdict : kExitOk;
  }
  if (scratch_is_temp) {
    std::error_code ec;
    fs::remove_all(options.scratch_dir, ec);
  }
  return code;
}

}  // namespace

bool ParseNumericFlag(const std::vector<std::string>& args, size_t* i,
                      uint64_t max, uint64_t* value, std::ostream& err) {
  const std::string& flag = args[*i];
  if (*i + 1 >= args.size()) {
    err << "tgdkit: missing value for " << flag << "\n";
    return false;
  }
  const std::string& text = args[++*i];
  // Validate by hand: strtoull skips leading space, takes a sign and
  // stops at trailing junk; option values must be pure digits.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    err << "tgdkit: invalid value '" << text << "' for " << flag << "\n";
    return false;
  }
  errno = 0;
  uint64_t parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || parsed > max) {
    err << "tgdkit: value '" << text << "' for " << flag
        << " is out of range (at most " << max << ")\n";
    return false;
  }
  *value = parsed;
  return true;
}

int ExitCodeForStop(StopReason stop) {
  return IsResourceStop(stop) ? kExitResource : kExitOk;
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return kExitOk;
    case Status::Code::kInvalidArgument:
    case Status::Code::kParseError:
    case Status::Code::kNotFound:
    case Status::Code::kUnsupported:
    case Status::Code::kDataLoss:
      return kExitInput;
    case Status::Code::kResourceExhausted:
      return kExitResource;
    case Status::Code::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}


int RunCommand(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err, const ApiOptions& options) {
  if (args.empty()) {
    err << kUsage;
    return kExitUsage;
  }
  // batch and selftest parse their own flag sets (a manifest task's argv
  // must pass through to the worker untouched).
  if (args[0] == "batch") return CmdBatch(args, options, out, err);
  if (args[0] == "selftest") return CmdSelftest(args, options, out, err);
  if (args[0] == "fuzz") return CmdFuzz(args, options, out, err);
  CliContext ctx;
  ctx.api = &options;
  ctx.limits.budget.cancel = options.cancel;
  if (!ParseOptions(args, &ctx, err)) return kExitUsage;
  const std::string& command = args[0];
  bool wants_checkpointing =
      !ctx.checkpoint_path.empty() || !ctx.resume_path.empty() ||
      ctx.checkpoint_every_steps != 0 || ctx.checkpoint_every_ms != 0;
  if (wants_checkpointing && command != "chase") {
    err << "tgdkit: --checkpoint/--resume are only supported by 'chase'\n";
    return kExitUsage;
  }
  // Spill is limited to commands that run exactly one chase engine at a
  // time: segment file names are engine-relative, so two live engines
  // sharing a spill directory would clobber each other's segments
  // (solve runs the universal and the core chase back to back with both
  // instances alive).
  if (!ctx.limits.spill_dir.empty() && command != "chase" &&
      command != "certain" && command != "explain") {
    err << "tgdkit: --spill-dir is only supported by 'chase', 'certain' "
           "and 'explain'\n";
    return kExitUsage;
  }
  // The engine needs a usable spill directory before its first fact: an
  // unusable one is an input error here, not a silently in-core run.
  if (!ctx.limits.spill_dir.empty()) {
    Status made = MakeDirectories(ctx.limits.spill_dir);
    if (!made.ok()) {
      err << "tgdkit: --spill-dir '" << ctx.limits.spill_dir
          << "': " << made.ToString() << "\n";
      return kExitInput;
    }
  }
  // The command itself landed in positional[0]; drop it.
  if (!ctx.positional.empty() && ctx.positional[0] == command) {
    ctx.positional.erase(ctx.positional.begin());
  }
  if (command == "classify") return CmdClassify(&ctx, out, err);
  if (command == "lint") return CmdLint(&ctx, out, err);
  if (command == "chase") return CmdChase(&ctx, out, err);
  if (command == "check") return CmdCheck(&ctx, out, err);
  if (command == "certain") return CmdCertain(&ctx, out, err);
  if (command == "normalize") return CmdNormalize(&ctx, out, err);
  if (command == "dot") return CmdDot(&ctx, out, err);
  if (command == "explain") return CmdExplain(&ctx, out, err);
  if (command == "compose") return CmdCompose(&ctx, out, err);
  if (command == "solve") return CmdSolve(&ctx, out, err);
  err << kUsage;
  return kExitUsage;
}

}  // namespace tgdkit
