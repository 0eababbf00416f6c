#include "fuzz/fuzz.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analyze/analysis.h"
#include "base/fileio.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "parse/parser.h"
#include "query/query.h"
#include "snapshot/snapshot.h"

namespace tgdkit {

std::string ToString(const FaultSchedule& fault) {
  switch (fault.kind) {
    case FaultSchedule::Kind::kNone:
      return "none";
    case FaultSchedule::Kind::kCrashAt:
      return Cat("crash-at ", fault.value, " ",
                 fault.phase.empty() ? "commit" : fault.phase);
    case FaultSchedule::Kind::kFailWriteAt:
      return Cat("fail-write-at ", fault.value);
    case FaultSchedule::Kind::kStepBudget:
      return Cat("step-budget ", fault.value);
  }
  return "none";
}

bool ParseFaultSchedule(const std::string& text, FaultSchedule* out) {
  std::istringstream in(text);
  std::string kind;
  if (!(in >> kind)) return false;
  FaultSchedule fault;
  if (kind == "none") {
    *out = fault;
    return true;
  }
  if (kind == "crash-at") {
    fault.kind = FaultSchedule::Kind::kCrashAt;
    if (!(in >> fault.value >> fault.phase)) return false;
    if (fault.phase != "begin" && fault.phase != "mid" &&
        fault.phase != "commit") {
      return false;
    }
  } else if (kind == "fail-write-at") {
    fault.kind = FaultSchedule::Kind::kFailWriteAt;
    if (!(in >> fault.value)) return false;
  } else if (kind == "step-budget") {
    fault.kind = FaultSchedule::Kind::kStepBudget;
    if (!(in >> fault.value)) return false;
  } else {
    return false;
  }
  if (fault.kind != FaultSchedule::Kind::kNone && fault.value == 0) {
    return false;
  }
  *out = fault;
  return true;
}

FuzzScenario MakeScenario(uint64_t seed, const FuzzOptions& options) {
  Rng rng(seed);
  AdversarialShape shape =
      options.shape ? *options.shape
                    : static_cast<AdversarialShape>(
                          seed % kNumAdversarialShapes);
  AdversarialScenario generated =
      GenerateAdversarialScenario(&rng, shape, options.gen);

  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.shape = generated.shape;
  scenario.program = std::move(generated.program);
  scenario.instance = std::move(generated.instance);
  scenario.query = std::move(generated.query);
  scenario.may_diverge = generated.may_diverge;
  scenario.inject_bug = options.inject_bug;

  // Randomized fault schedule. The torn-checkpoint defect lives on the
  // durability path, so force that schedule when it is being seeded.
  static const std::vector<std::string> kPhases = {"begin", "mid", "commit"};
  switch (rng.Below(4)) {
    case 0:
      break;  // kNone
    case 1:
      scenario.fault.kind = FaultSchedule::Kind::kCrashAt;
      scenario.fault.value = 1 + rng.Below(6);
      scenario.fault.phase = rng.Pick(kPhases);
      break;
    case 2:
      scenario.fault.kind = FaultSchedule::Kind::kFailWriteAt;
      scenario.fault.value = 1 + rng.Below(6);
      break;
    default:
      scenario.fault.kind = FaultSchedule::Kind::kStepBudget;
      scenario.fault.value = 1 + rng.Below(12);
      break;
  }
  if (scenario.inject_bug == "torn-checkpoint" &&
      scenario.fault.kind != FaultSchedule::Kind::kFailWriteAt) {
    scenario.fault.kind = FaultSchedule::Kind::kFailWriteAt;
    scenario.fault.value = 1 + (seed % 6);
    scenario.fault.phase.clear();
  }
  return scenario;
}

namespace {

namespace fs = std::filesystem;

/// A freshly parsed copy of the scenario: every engine run gets its own
/// arena/vocabulary/instance so runs can never contaminate each other.
struct Workload {
  Vocabulary vocab;
  TermArena arena;
  DependencyProgram program;
  SoTgd merged;
  std::vector<Tgd> tgds;
  Instance input{&vocab};
  std::optional<ConjunctiveQuery> query;
};

Status BuildWorkload(const FuzzScenario& scenario, Workload* w) {
  Parser parser(&w->arena, &w->vocab);
  Result<DependencyProgram> program =
      parser.ParseDependencies(scenario.program);
  if (!program.ok()) return program.status();
  w->program = std::move(*program);
  Status st = parser.ParseInstanceInto(scenario.instance, &w->input);
  if (!st.ok()) return st;
  if (!scenario.query.empty()) {
    Result<ConjunctiveQuery> query = parser.ParseQuery(scenario.query);
    if (!query.ok()) return query.status();
    w->query = std::move(*query);
  }
  w->tgds = w->program.Tgds();
  w->merged = SkolemizeProgram(&w->arena, &w->vocab, w->program);
  return Status::Ok();
}

ChaseLimits CapsFor(const FuzzOptions& options) {
  ChaseLimits limits;
  limits.max_rounds = options.max_rounds;
  limits.max_facts = options.max_facts;
  limits.budget.max_steps = options.max_steps;
  limits.threads = 1;
  return limits;
}

/// Canonicalizes the thread/spill-specific tokens of `# status:` lines so
/// runs that must agree on everything else compare byte-for-byte.
std::string NormalizeStatus(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.rfind("# status:", 0) == 0) {
      std::istringstream tokens(line);
      std::string token, rebuilt;
      while (tokens >> token) {
        if (token.rfind("threads=", 0) == 0) token = "threads=*";
        if (token.rfind("spill_segments=", 0) == 0 ||
            token.rfind("spill_bytes=", 0) == 0) {
          continue;
        }
        if (!rebuilt.empty()) rebuilt += ' ';
        rebuilt += token;
      }
      line = rebuilt;
    }
    if (!first) out += '\n';
    out += line;
    first = false;
  }
  if (!text.empty() && text.back() == '\n') out += '\n';
  return out;
}

struct CliRun {
  int code = -1;
  std::string out;
  std::string err;
};

/// The per-run working files, unique per battery execution so shrinker
/// re-runs and concurrent campaigns never collide.
struct RunDir {
  fs::path dir;
  std::string program_path, instance_path, checkpoint_path, spill_dir;

  ~RunDir() {
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

/// Replaces every occurrence of the scratch directory in `text` with
/// "$SCRATCH" so violation details (and hence the verdict log) stay
/// byte-identical across machines and re-runs.
std::string ScrubPaths(std::string text, const RunDir& run) {
  if (run.dir.empty()) return text;
  const std::string needle = run.dir.string();
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at)) {
    text.replace(at, needle.size(), "$SCRATCH");
    at += 8;
  }
  return text;
}

class BatteryRunner {
 public:
  BatteryRunner(const FuzzScenario& scenario, const FuzzOptions& options,
                const std::string& only)
      : scenario_(scenario), options_(options), only_(only) {
    verdict_.scenario = scenario;
  }

  ScenarioVerdict Run() {
    Workload parsed;
    Status parse_status = BuildWorkload(scenario_, &parsed);
    if (Wants("parse")) {
      if (!parse_status.ok()) {
        return Fail("parse", parse_status.ToString());
      }
    }
    if (!parse_status.ok()) return verdict_;  // nothing else can run

    if (!Analysis(parsed)) return verdict_;
    if (!PolyTermination()) return verdict_;
    if (!EngineAgreement(parsed)) return verdict_;

    // CLI-level invariants need a scratch workspace and a CLI runner.
    if (!options_.run_cli || options_.scratch_dir.empty()) return verdict_;
    if (!PrepareRunDir()) return verdict_;
    if (!LintAccepts()) return verdict_;
    if (!GoldenAndIdentity()) return verdict_;
    if (!FaultInvariants()) return verdict_;
    return verdict_;
  }

 private:
  /// True when the battery should run (and record) this invariant.
  bool Wants(const std::string& name) {
    if (!only_.empty() && only_ != name) return false;
    verdict_.invariants.push_back(name);
    return true;
  }

  ScenarioVerdict Fail(std::string invariant, std::string detail) {
    verdict_.violation =
        Violation{std::move(invariant), ScrubPaths(std::move(detail), run_)};
    return verdict_;
  }

  CliRun Cli(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    CliRun run;
    run.code = options_.run_cli(args, out, err);
    run.out = out.str();
    run.err = err.str();
    return run;
  }

  std::vector<std::string> ChaseCmd(
      const std::vector<std::string>& extra) const {
    std::vector<std::string> args = {"chase",
                                     run_.program_path,
                                     run_.instance_path,
                                     "--seed",
                                     Cat(scenario_.seed),
                                     "--max-rounds",
                                     Cat(options_.max_rounds),
                                     "--max-facts",
                                     Cat(options_.max_facts),
                                     "--max-steps",
                                     Cat(options_.max_steps)};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  }

  // --- in-process invariants ----------------------------------------------

  bool Analysis(Workload& w) {
    ProgramAnalysis analysis = AnalyzeProgram(&w.arena, &w.vocab, w.program);
    if (Wants("witness-replay")) {
      if (scenario_.inject_bug == "tamper-witness") {
        // The seeded analyzer defect: a complexity bound that does not
        // match the graph it claims to describe.
        if (analysis.complexity.tier == ComplexityTier::kPolynomial) {
          analysis.complexity.rank += 1;
        } else if (!analysis.complexity.cycle.empty()) {
          analysis.complexity.cycle.pop_back();
        } else {
          analysis.complexity.tier = ComplexityTier::kPolynomial;
        }
      }
      Status replay = ReplayAllWitnesses(w.arena, analysis);
      if (!replay.ok()) {
        Fail("witness-replay", replay.ToString());
        return false;
      }
    }
    bool wa = analysis.verdict(Criterion::kWeaklyAcyclic).holds;
    bool wg = analysis.verdict(Criterion::kWeaklyGuarded).holds;
    bool sj = analysis.verdict(Criterion::kStickyJoin).holds;
    bool tg = analysis.verdict(Criterion::kTriangularlyGuarded).holds;
    if (Wants("tg-subsumption")) {
      if ((wa || wg || sj) && !tg) {
        Fail("tg-subsumption",
             Cat("weakly-acyclic=", wa, " weakly-guarded=", wg,
                 " sticky-join=", sj, " but triangularly-guarded=false"));
        return false;
      }
    }
    poly_tier_ = analysis.complexity.tier == ComplexityTier::kPolynomial;
    if (Wants("tier-wa-agreement")) {
      if (poly_tier_ != wa) {
        Fail("tier-wa-agreement",
             Cat("polynomial-tier=", poly_tier_, " weakly-acyclic=", wa));
        return false;
      }
    }
    return true;
  }

  bool PolyTermination() {
    if (!Wants("poly-termination")) return true;
    if (!poly_tier_) return true;
    Workload w;
    if (!BuildWorkload(scenario_, &w).ok()) return true;
    ChaseResult result =
        Chase(&w.arena, &w.vocab, w.merged, w.input, CapsFor(options_));
    if (result.stop_reason != StopReason::kFixpoint) {
      Fail("poly-termination",
           Cat("polynomial tier but chase stopped by ",
               ToString(result.stop_reason), " after ", result.rounds,
               " rounds, ", result.facts_created, " facts"));
      return false;
    }
    return true;
  }

  /// Renders the null-free answer tuples of `w.query` over `instance`,
  /// sorted, one per line.
  static std::string GroundAnswers(const Workload& w,
                                   const Instance& instance) {
    std::vector<std::string> rows;
    for (const std::vector<Value>& tuple :
         Evaluate(w.arena, instance, *w.query)) {
      bool ground = std::all_of(tuple.begin(), tuple.end(),
                                [](Value v) { return v.is_constant(); });
      if (!ground) continue;
      std::string row;
      for (Value v : tuple) {
        if (!row.empty()) row += ", ";
        row += instance.ValueToString(v);
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    std::string out;
    for (const std::string& row : rows) {
      out += row;
      out += '\n';
    }
    return out;
  }

  bool EngineAgreement(const Workload& parsed) {
    if (!Wants("engine-agreement")) return true;
    // Applies to first-order programs with a query: the Skolem and the
    // restricted chase then both compute universal models, so the
    // null-free certain answers must agree whenever both terminate.
    if (!parsed.query || parsed.tgds.size() != parsed.program.dependencies.size()) {
      return true;
    }
    Workload a, b;
    if (!BuildWorkload(scenario_, &a).ok()) return true;
    if (!BuildWorkload(scenario_, &b).ok()) return true;
    ChaseResult skolem =
        Chase(&a.arena, &a.vocab, a.merged, a.input, CapsFor(options_));
    if (skolem.stop_reason != StopReason::kFixpoint) return true;
    ChaseResult restricted =
        RestrictedChaseTgds(&b.arena, b.tgds, b.input, CapsFor(options_));
    if (restricted.stop_reason != StopReason::kFixpoint) return true;
    std::string from_skolem = GroundAnswers(a, skolem.instance);
    std::string from_restricted = GroundAnswers(b, restricted.instance);
    if (from_skolem != from_restricted) {
      Fail("engine-agreement",
           Cat("certain answers disagree between the Skolem and restricted "
               "chase\nskolem:\n",
               from_skolem, "restricted:\n", from_restricted));
      return false;
    }
    return true;
  }

  // --- CLI-level invariants -----------------------------------------------

  bool PrepareRunDir() {
    static std::atomic<uint64_t> counter{0};
    uint64_t id = counter.fetch_add(1) + 1;
    run_.dir = fs::path(options_.scratch_dir) /
               Cat("run", static_cast<uint64_t>(getpid()), "_", id);
    std::error_code ec;
    fs::create_directories(run_.dir, ec);
    if (ec) return false;  // no workspace: skip CLI invariants
    run_.program_path = (run_.dir / "prog.tgd").string();
    run_.instance_path = (run_.dir / "inst.facts").string();
    run_.checkpoint_path = (run_.dir / "ck.snap").string();
    run_.spill_dir = (run_.dir / "spill").string();
    std::ofstream(run_.program_path) << scenario_.program;
    std::ofstream(run_.instance_path) << scenario_.instance;
    return true;
  }

  bool LintAccepts() {
    if (!Wants("lint-accepts")) return true;
    CliRun lint = Cli({"lint", run_.program_path, "--fail-on=error"});
    if (lint.code != 0) {
      Fail("lint-accepts", Cat("lint exited ", lint.code,
                               " on a generated (valid) program: ",
                               lint.err.substr(0, 400)));
      return false;
    }
    return true;
  }

  bool GoldenAndIdentity() {
    golden_ = Cli(ChaseCmd({}));
    if (Wants("determinism")) {
      CliRun again = Cli(ChaseCmd({}));
      if (again.code != golden_.code || again.out != golden_.out) {
        Fail("determinism",
             Cat("two identical chase runs disagree (exit ", golden_.code,
                 " vs ", again.code, ")"));
        return false;
      }
    }
    std::string golden_norm = NormalizeStatus(golden_.out);
    if (Wants("thread-identity")) {
      CliRun threaded = Cli(ChaseCmd({"--threads", Cat(options_.threads)}));
      if (threaded.code != golden_.code ||
          NormalizeStatus(threaded.out) != golden_norm) {
        Fail("thread-identity",
             Cat("--threads ", options_.threads,
                 " diverges from --threads 1 (exit ", golden_.code, " vs ",
                 threaded.code, ")"));
        return false;
      }
    }
    if (Wants("spill-identity")) {
      std::error_code ec;
      fs::create_directories(run_.spill_dir, ec);
      CliRun spilled = Cli(
          ChaseCmd({"--spill-dir", run_.spill_dir, "--spill-segment-kb", "4"}));
      if (spilled.code != golden_.code ||
          NormalizeStatus(spilled.out) != golden_norm) {
        Fail("spill-identity",
             Cat("spill run diverges from in-core (exit ", golden_.code,
                 " vs ", spilled.code, ")"));
        return false;
      }
    }
    return true;
  }

  /// Resumes from the checkpoint and compares against the golden run.
  /// Only called when the golden run reached a fixpoint, so the result
  /// must be byte-identical whatever point the checkpoint froze.
  bool ResumeMatchesGolden(const char* invariant) {
    CliRun resumed = Cli({"chase", "--resume", run_.checkpoint_path,
                          "--max-rounds", Cat(options_.max_rounds),
                          "--max-facts", Cat(options_.max_facts),
                          "--max-steps", Cat(options_.max_steps)});
    if (resumed.code != golden_.code || resumed.out != golden_.out) {
      Fail(invariant, Cat("resume after ", ToString(scenario_.fault),
                          " diverges from the uninterrupted run (exit ",
                          golden_.code, " vs ", resumed.code, ")"));
      return false;
    }
    return true;
  }

  bool FaultInvariants() {
    const FaultSchedule& fault = scenario_.fault;
    bool tear = scenario_.inject_bug == "torn-checkpoint";
    switch (fault.kind) {
      case FaultSchedule::Kind::kNone:
        return true;
      case FaultSchedule::Kind::kStepBudget: {
        if (!Wants("budget-resume")) return true;
        if (golden_.code != 0) return true;  // needs a terminating golden
        CliRun capped = Cli({"chase", run_.program_path, run_.instance_path,
                             "--seed", Cat(scenario_.seed), "--max-rounds",
                             Cat(options_.max_rounds), "--max-facts",
                             Cat(options_.max_facts), "--max-steps",
                             Cat(fault.value), "--checkpoint",
                             run_.checkpoint_path,
                             "--checkpoint-every-steps", "1"});
        if (capped.code != 0 && capped.code != 4) {
          Fail("budget-resume",
               Cat("budget-capped run exited ", capped.code,
                   " (want 0 or 4): ", capped.err.substr(0, 400)));
          return false;
        }
        if (!fs::exists(run_.checkpoint_path)) return true;  // ran 0 steps
        return ResumeMatchesGolden("budget-resume");
      }
      case FaultSchedule::Kind::kCrashAt: {
        if (!options_.fork_faults) return true;
        if (!Wants("crash-resume")) return true;
        if (golden_.code != 0) return true;
        pid_t pid = fork();
        if (pid < 0) return true;
        if (pid == 0) {
          setenv("TGDKIT_CRASH_AT", Cat(fault.value).c_str(), 1);
          setenv("TGDKIT_CRASH_PHASE", fault.phase.c_str(), 1);
          std::ostringstream out, err;
          options_.run_cli(
              ChaseCmd({"--checkpoint", run_.checkpoint_path,
                        "--checkpoint-every-steps", "1"}),
              out, err);
          _exit(0);
        }
        int wstatus = 0;
        waitpid(pid, &wstatus, 0);
        bool killed = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
        bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
        if (!killed && !clean) {
          Fail("crash-resume",
               Cat("chase child under ", ToString(fault),
                   " neither died by SIGKILL nor exited cleanly (wstatus ",
                   wstatus, ")"));
          return false;
        }
        if (!fs::exists(run_.checkpoint_path)) return true;  // died pre-write
        return ResumeMatchesGolden("crash-resume");
      }
      case FaultSchedule::Kind::kFailWriteAt: {
        if (!Wants("fail-write-durability")) return true;
        bool arm = options_.fork_faults;
        int child_code = 0;
        if (arm) {
          pid_t pid = fork();
          if (pid < 0) return true;
          if (pid == 0) {
            setenv("TGDKIT_FAIL_WRITE_AT", Cat(fault.value).c_str(), 1);
            std::ostringstream out, err;
            int code = options_.run_cli(
                ChaseCmd({"--checkpoint", run_.checkpoint_path,
                          "--checkpoint-every-steps", "1"}),
                out, err);
            _exit(code & 0xff);
          }
          int wstatus = 0;
          waitpid(pid, &wstatus, 0);
          if (!WIFEXITED(wstatus)) {
            Fail("fail-write-durability",
                 Cat("chase child under ", ToString(fault),
                     " died abnormally (wstatus ", wstatus, ")"));
            return false;
          }
          child_code = WEXITSTATUS(wstatus);
        } else {
          CliRun plain = Cli(ChaseCmd({"--checkpoint", run_.checkpoint_path,
                                       "--checkpoint-every-steps", "1"}));
          child_code = plain.code;
        }
        if (child_code != 0 && child_code != 4) {
          Fail("fail-write-durability",
               Cat("chase under ", ToString(fault), " exited ", child_code,
                   " (want 0 or 4: a refused write is a resource stop)"));
          return false;
        }
        if (!fs::exists(run_.checkpoint_path)) return true;
        if (tear) {
          // The seeded durability defect: the checkpoint "survived" only
          // as a torn prefix, as if the writer had skipped the atomic
          // fsync+rename step.
          Result<std::string> bytes = ReadFileBytes(run_.checkpoint_path);
          if (bytes.ok() && bytes->size() > 4) {
            std::ofstream torn(run_.checkpoint_path,
                               std::ios::binary | std::ios::trunc);
            torn << bytes->substr(0, bytes->size() * 3 / 5);
          }
        }
        Result<ChaseSnapshot> snap = LoadChaseSnapshot(run_.checkpoint_path);
        if (!snap.ok()) {
          Fail("fail-write-durability",
               Cat("checkpoint exists but does not load after ",
                   ToString(fault), ": ", snap.status().ToString()));
          return false;
        }
        if (golden_.code != 0) return true;
        return ResumeMatchesGolden("fail-write-durability");
      }
    }
    return true;
  }

  const FuzzScenario& scenario_;
  const FuzzOptions& options_;
  const std::string& only_;
  ScenarioVerdict verdict_;
  RunDir run_;
  CliRun golden_;
  bool poly_tier_ = false;
};

}  // namespace

ScenarioVerdict RunScenario(const FuzzScenario& scenario,
                            const FuzzOptions& options,
                            const std::string& only_invariant) {
  BatteryRunner runner(scenario, options, only_invariant);
  return runner.Run();
}

}  // namespace tgdkit
