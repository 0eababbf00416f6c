// perfbench_trace: the in-process, layer-timed replay behind
// `perfbench/run.py --trace 1`.
//
// It times calls into each module's public functions from outside the
// program, so nothing in src/ carries tracing code. Every timed call is a
// span (name, start, end, parent, run id); counts are recorded at the
// same boundaries. Spans stay in memory and are written as JSON lines
// when the run ends; run.py turns them into per-layer self times.
//
//   perfbench_trace chase --run ID --spans FILE --out FILE
//                         --other-threads N -- CHASE-ARGV
//     Runs the argv through RunCommand, then replays the same `tgdkit
//     chase` invocation call by call: parse, Skolemize, engine load,
//     every Step(), print. The printed text goes to --out so run.py can
//     compare it byte-for-byte with the CLI's stdout. Then it probes the
//     fixpoint (matcher, arena, storage) and re-runs the rounds at
//     --other-threads lanes.
//
//   perfbench_trace serve --run ID --spans FILE --frames FILE --out FILE
//                         [--slope FILE,FILE,...]
//     Replays serve request frames through the parse, transform,
//     analyze, classify and query calls, then runs each frame through
//     RunCommand and writes its result line to --out. --slope times
//     AnalyzeSo on each listed ruleset.
//
//   perfbench_trace verify --frames FILE --out FILE
//     RunCommand on every frame, untimed (the serve-mix classify check).
//
//   perfbench_trace probe
//     Prints the seconds a fixed integer loop took (the host-speed probe).
//
//   perfbench_trace spawn --result FILE -- COMMAND...
//     Runs COMMAND and writes "wall_s exit utime_s stime_s maxrss_kb".
//
// Match callbacks are generic lambdas and seeds are written `{}` so the
// harness compiles against any Assignment representation.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/lint.h"
#include "api/api.h"
#include "base/budget.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "classify/criteria.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "dep/skolem.h"
#include "dep/syntactic.h"
#include "homo/matcher.h"
#include "parse/parser.h"
#include "query/query.h"
#include "serve/protocol.h"
#include "supervise/jsonl.h"
#include "term/term.h"
#include "transform/nested.h"

namespace {

using namespace tgdkit;
using Clock = std::chrono::steady_clock;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

/// In-memory span and counter store, written out once at the end.
class Tracer {
 public:
  explicit Tracer(std::string run) : run_(std::move(run)) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), index_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  int Begin(const std::string& name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[index].end = Now();
    open_.pop_back();
  }
  /// Adds to a counter; counters are sums over the run.
  void Count(const std::string& name, double value) { counts_[name] += value; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string line = "{";
      AppendJsonString(&line, "run", run_);
      AppendJsonRaw(&line, "id", std::to_string(i));
      AppendJsonString(&line, "name", s.name);
      AppendJsonRaw(&line, "parent", std::to_string(s.parent));
      AppendJsonRaw(&line, "start", Fixed(s.start));
      AppendJsonRaw(&line, "end", Fixed(s.end));
      out << line << "}\n";
    }
    for (const auto& [name, value] : counts_) {
      std::string line = "{";
      AppendJsonString(&line, "run", run_);
      AppendJsonString(&line, "count", name);
      AppendJsonRaw(&line, "value", Fixed(value));
      out << line << "}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };

  static std::string Fixed(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9f", v);
    return buf;
  }
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::string run_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
};

std::optional<std::string> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_trace: " << message << "\n";
  std::exit(2);
}

/// `--key value` options before `--`, and everything after it.
struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> rest;

  std::string Get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) Die("missing " + key);
    return it->second;
  }
  std::string GetOr(const std::string& key, std::string fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      args.rest.assign(argv + i + 1, argv + argc);
      break;
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad option " + arg);
    args.options[arg] = argv[++i];
  }
  return args;
}

/// The CLI's ProgramRules: every statement Skolemized into one rule set.
SoTgd Skolemize(Tracer* t, TermArena* arena, Vocabulary* vocab,
                const DependencyProgram& program) {
  std::vector<SoTgd> pieces;
  std::vector<Tgd> tgds = program.Tgds();
  if (!tgds.empty()) {
    Tracer::Scope s(t, "dep.tgds");
    pieces.push_back(TgdsToSo(arena, vocab, tgds));
  }
  std::vector<HenkinTgd> henkins = program.Henkins();
  if (!henkins.empty()) {
    Tracer::Scope s(t, "dep.henkins");
    pieces.push_back(HenkinsToSo(arena, vocab, henkins));
  }
  for (const NestedTgd& nested : program.Nesteds()) {
    Tracer::Scope s(t, "dep.nested");
    pieces.push_back(NestedToSo(arena, vocab, nested));
  }
  for (const SoTgd& so : program.Sos()) pieces.push_back(so);
  Tracer::Scope s(t, "dep.merge");
  SoTgd merged = MergeSo(pieces);
  t->Count("dep.parts", static_cast<double>(merged.parts.size()));
  return merged;
}

DependencyProgram ParseDeps(Tracer* t, Parser* parser,
                            const std::string& text) {
  Tracer::Scope s(t, "parse.deps");
  Result<DependencyProgram> program = parser->ParseDependencies(text);
  if (!program.ok()) Die("rules: " + program.status().ToString());
  return std::move(*program);
}

void ParseFacts(Tracer* t, Parser* parser, const std::string& text,
                Instance* out) {
  Tracer::Scope s(t, "parse.instance");
  Status status = parser->ParseInstanceInto(text, out);
  if (!status.ok()) Die("instance: " + status.ToString());
  t->Count("parse.facts", static_cast<double>(out->NumFacts()));
}

/// The options of `tgdkit chase` the CLI workloads use.
struct ChaseArgv {
  std::string deps_path;
  std::string instance_path;
  ChaseLimits limits;
};

ChaseArgv ParseChaseArgv(const std::vector<std::string>& argv) {
  if (argv.empty() || argv[0] != "chase") Die("expected a chase argv");
  ChaseArgv parsed;
  std::vector<std::string> positional;
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= argv.size()) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--threads") {
      parsed.limits.threads = std::stoul(value());
    } else if (arg == "--spill-dir") {
      parsed.limits.spill_dir = value();
    } else if (arg == "--spill-segment-kb") {
      parsed.limits.spill_segment_kb = std::stoull(value());
    } else if (arg == "--max-memory-mb") {
      parsed.limits.budget.max_memory_bytes =
          std::stoull(value()) * 1024 * 1024;
    } else if (arg.rfind("--", 0) == 0) {
      Die("unsupported chase option " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) Die("chase needs DEPS INSTANCE");
  parsed.deps_path = positional[0];
  parsed.instance_path = positional[1];
  return parsed;
}

/// A fresh, empty directory `base`-`suffix` for an extra spill run.
std::string FreshDir(const std::string& base, const std::string& suffix) {
  std::string dir = base + "-" + suffix;
  if (mkdir(dir.c_str(), 0755) != 0) Die("cannot create " + dir);
  return dir;
}

/// Chase rounds only (no parse/print), for the lane-count comparison:
/// records their wall and CPU seconds as chase.other_rounds_s and
/// chase.other_rounds_cpu_s.
void TimeOtherLanes(Tracer* t, const std::string& rules_text,
                    const std::string& facts_text, ChaseLimits limits) {
  Tracer scratch("rerun");
  TermArena arena;
  Vocabulary vocab;
  Parser parser(&arena, &vocab);
  DependencyProgram program = ParseDeps(&scratch, &parser, rules_text);
  Instance input(&vocab);
  ParseFacts(&scratch, &parser, facts_text, &input);
  SoTgd rules = Skolemize(&scratch, &arena, &vocab, program);
  ChaseEngine engine(&arena, &vocab, rules, input, limits);
  double cpu = CpuSeconds();
  Clock::time_point start = Clock::now();
  while (engine.Step()) {
  }
  t->Count("chase.other_rounds_s",
           std::chrono::duration<double>(Clock::now() - start).count());
  t->Count("chase.other_rounds_cpu_s", CpuSeconds() - cpu);
}

int CmdChase(const Args& args) {
  Tracer t(args.Get("--run"));
  ChaseArgv argv = ParseChaseArgv(args.rest);
  std::optional<std::string> rules_text = ReadAll(argv.deps_path);
  std::optional<std::string> facts_text = ReadAll(argv.instance_path);
  if (!rules_text || !facts_text) Die("cannot read chase inputs");

  // The whole command through the API layer first, while the process is
  // as fresh as the CLI's.
  std::vector<std::string> api_argv = args.rest;
  for (size_t i = 0; i + 1 < api_argv.size(); ++i) {
    if (api_argv[i] == "--spill-dir") {
      api_argv[i + 1] = FreshDir(api_argv[i + 1], "api");
    }
  }
  std::ostringstream api_out, api_err;
  int exit_code;
  {
    Tracer::Scope s(&t, "api.run");
    exit_code = RunCommand(api_argv, api_out, api_err);
  }
  t.Count("api.exit", exit_code);
  TermArena arena;
  Vocabulary vocab;
  std::string printed;
  std::unique_ptr<ChaseEngine> engine;
  SoTgd rules;
  {
    Tracer::Scope run(&t, "replay");
    Parser parser(&arena, &vocab);
    DependencyProgram program = ParseDeps(&t, &parser, *rules_text);
    Instance input(&vocab);
    ParseFacts(&t, &parser, *facts_text, &input);
    rules = Skolemize(&t, &arena, &vocab, program);
    {
      Tracer::Scope s(&t, "chase.load");
      engine = std::make_unique<ChaseEngine>(&arena, &vocab, rules, input,
                                             argv.limits);
    }
    for (bool more = true; more;) {
      double cpu = CpuSeconds();
      {
        Tracer::Scope s(&t, "chase.round");
        more = engine->Step();
      }
      t.Count("chase.rounds_cpu_s", CpuSeconds() - cpu);
    }
    Tracer::Scope s(&t, "data.print");
    std::ostringstream out;
    out << "# chase " << ToString(engine->stop_reason()) << " after "
        << engine->rounds() << " rounds, " << engine->facts_created()
        << " facts created\n";
    out << "# status: "
        << StopReasonToStatus(engine->stop_reason(), "chase").ToString()
        << " seed=0 threads=" << engine->threads();
    if (engine->instance().spill_enabled()) {
      SpillStats spill = engine->instance().spill_stats();
      out << " spill_segments=" << spill.sealed_segments
          << " spill_bytes=" << spill.spilled_bytes;
    }
    out << "\n" << engine->instance().ToString();
    printed = out.str();
  }
  {
    std::ofstream out(args.Get("--out"), std::ios::binary);
    out << printed;
  }
  const Instance& fixpoint = engine->instance();
  // Storage I/O of the workload itself, before the probes below fault
  // spilled segments back in.
  SpillStats spill = fixpoint.spill_stats();
  t.Count("data.spill_evictions", static_cast<double>(spill.evictions));
  t.Count("data.spill_faults", static_cast<double>(spill.faults));
  t.Count("data.spill_segment_writes",
          static_cast<double>(spill.segment_writes));
  t.Count("chase.rounds", static_cast<double>(engine->rounds()));
  t.Count("chase.facts_created",
          static_cast<double>(engine->facts_created()));
  t.Count("chase.steps",
          static_cast<double>(engine->governor().total_steps()));

  uint64_t matches = 0;
  {
    Tracer::Scope s(&t, "homo.match");
    for (const SoPart& part : rules.parts) {
      Matcher matcher(&arena, &fixpoint, part.body);
      matcher.ForEach({}, [&](const auto&) {
        ++matches;
        return true;
      });
    }
  }
  t.Count("homo.matches", static_cast<double>(matches));
  t.Count("term.arena_nodes", static_cast<double>(arena.size()));
  t.Count("term.arena_bytes", static_cast<double>(arena.ApproxBytes()));
  t.Count("data.instance_bytes", static_cast<double>(fixpoint.ApproxBytes()));
  t.Count("data.index_bytes", static_cast<double>(fixpoint.IndexBytes()));
  t.Count("data.facts", static_cast<double>(fixpoint.NumFacts()));
  {
    Instance copy(&vocab);
    Tracer::Scope s(&t, "data.insert");
    CopyFacts(fixpoint, &copy);
  }

  // The same rounds at the other lane count, on a fresh parse, with the
  // replay's engine freed first so the two fixpoints never coexist.
  engine.reset();
  ChaseLimits other = argv.limits;
  other.threads = std::stoul(args.Get("--other-threads"));
  if (!other.spill_dir.empty()) {
    other.spill_dir = FreshDir(other.spill_dir, "lanes");
  }
  TimeOtherLanes(&t, *rules_text, *facts_text, other);

  t.Count("api.identical", api_out.str() == printed ? 1 : 0);
  t.Write(args.Get("--spans"));
  return 0;
}

/// Runs one frame through RunCommand exactly as the daemon does; returns
/// the exit code and stores stdout in `out`.
int RunFrame(const ServeRequest& request, std::string* out) {
  std::vector<std::string> argv{request.command};
  argv.insert(argv.end(), request.args.begin(), request.args.end());
  std::map<std::string, std::string> files;
  for (size_t i = 0; i < request.file_names.size(); ++i) {
    files[request.file_names[i]] = request.file_contents[i];
  }
  ApiOptions api;
  api.forbid_fork_workers = true;
  api.resolver = [&files](const std::string& path)
      -> std::optional<std::string> {
    auto it = files.find(path);
    if (it == files.end()) return std::nullopt;
    return it->second;
  };
  std::ostringstream o, e;
  int exit_code = RunCommand(argv, o, e, api);
  *out = o.str();
  return exit_code;
}

std::vector<ServeRequest> LoadFrames(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<ServeRequest> frames;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ServeRequest request;
    Status status = ParseServeRequest(line, &request);
    if (!status.ok()) Die("frame: " + status.ToString());
    frames.push_back(std::move(request));
  }
  return frames;
}

std::string FileOf(const ServeRequest& request, size_t arg) {
  for (size_t i = 0; i < request.file_names.size(); ++i) {
    if (request.file_names[i] == request.args.at(arg)) {
      return request.file_contents[i];
    }
  }
  Die("frame " + request.id + " lacks inline file " + request.args.at(arg));
}

void WriteResult(std::ostream& out, const std::string& id, int exit_code,
                 const std::string& stdout_text) {
  std::string line = "{";
  AppendJsonString(&line, "id", id);
  AppendJsonRaw(&line, "exit", std::to_string(exit_code));
  AppendJsonString(&line, "stdout", stdout_text);
  out << line << "}\n";
}

void ReplayCertain(Tracer* t, const ServeRequest& request) {
  TermArena arena;
  Vocabulary vocab;
  Parser parser(&arena, &vocab);
  DependencyProgram program = ParseDeps(t, &parser, FileOf(request, 0));
  Instance input(&vocab);
  ParseFacts(t, &parser, FileOf(request, 1), &input);
  std::optional<ConjunctiveQuery> query;
  {
    Tracer::Scope s(t, "parse.query");
    Result<ConjunctiveQuery> parsed = parser.ParseQuery(request.args.at(2));
    if (!parsed.ok()) Die("query: " + parsed.status().ToString());
    query = std::move(*parsed);
  }
  SoTgd rules = Skolemize(t, &arena, &vocab, program);
  Tracer::Scope s(t, "query.certain");
  CertainAnswers answers =
      ComputeCertainAnswers(&arena, &vocab, rules, input, *query);
  t->Count("query.answers", static_cast<double>(answers.answers.size()));
}

void ReplayLint(Tracer* t, const ServeRequest& request) {
  TermArena arena;
  Vocabulary vocab;
  Parser parser(&arena, &vocab);
  std::optional<DependencyProgram> program;
  {
    Tracer::Scope s(t, "parse.deps");
    Result<DependencyProgram> parsed =
        parser.ParseDependenciesLenient(FileOf(request, 0));
    if (!parsed.ok()) Die("lint rules: " + parsed.status().ToString());
    program = std::move(*parsed);
  }
  {
    Tracer::Scope s(t, "analyze.lint");
    LintReport report = LintProgram(&arena, &vocab, *program);
    t->Count("analyze.findings",
             static_cast<double>(report.diagnostics.size()));
  }
  SoTgd rules = Skolemize(t, &arena, &vocab, *program);
  std::optional<ProgramAnalysis> analysis;
  {
    Tracer::Scope s(t, "analyze.analyze");
    analysis = AnalyzeSo(arena, rules);
  }
  Tracer::Scope s(t, "analyze.replay");
  Status replay = ReplayAllWitnesses(arena, *analysis);
  if (!replay.ok()) Die("witness replay: " + replay.ToString());
}

void ReplayClassify(Tracer* t, const ServeRequest& request) {
  TermArena arena;
  Vocabulary vocab;
  Parser parser(&arena, &vocab);
  DependencyProgram program = ParseDeps(t, &parser, FileOf(request, 0));
  for (size_t i = 0; i < program.dependencies.size(); ++i) {
    const ParsedDependency& dep = program.dependencies[i];
    SoTgd so;
    {
      Tracer::Scope s(t, "dep.one");
      switch (dep.kind) {
        case ParsedDependency::Kind::kTgd:
          so = TgdToSo(&arena, &vocab, dep.tgd);
          break;
        case ParsedDependency::Kind::kSo:
          so = dep.so;
          break;
        case ParsedDependency::Kind::kNested:
          so = NestedToSo(&arena, &vocab, dep.nested);
          break;
        case ParsedDependency::Kind::kHenkin:
          so = HenkinToSo(&arena, &vocab, dep.henkin);
          break;
      }
    }
    Tracer::Scope s(t, "classify.figures");
    ClassifyFigure1(arena, so);
    std::vector<AnalyzedRule> analyzed;
    for (uint32_t j = 0; j < so.parts.size(); ++j) {
      AnalyzedRule rule;
      rule.part = so.parts[j];
      rule.dep_index = static_cast<uint32_t>(i);
      rule.part_index = j;
      rule.label = dep.label;
      analyzed.push_back(std::move(rule));
    }
    AnalyzeRules(arena, std::move(analyzed));
  }
  SoTgd rules = Skolemize(t, &arena, &vocab, program);
  std::set<RelationId> schema;
  for (const SoPart& part : rules.parts) {
    for (const Atom& atom : part.body) schema.insert(atom.relation);
    for (const Atom& atom : part.head) schema.insert(atom.relation);
  }
  std::vector<RelationId> relations(schema.begin(), schema.end());
  // The limits `tgdkit classify` applies to its termination probe.
  ChaseLimits limits;
  limits.max_term_depth = 32;
  limits.max_facts = 200000;
  Tracer::Scope s(t, "classify.critical");
  TerminatesOnCriticalInstance(&arena, &vocab, rules, relations, limits);
}

/// Times AnalyzeSo on each comma-separated ruleset file; the counter is
/// "slope.s.<file>".
void TimeSlope(Tracer* t, const std::string& files) {
  std::stringstream list(files);
  std::string file;
  while (std::getline(list, file, ',')) {
    std::optional<std::string> text = ReadAll(file);
    if (!text) Die("cannot read " + file);
    TermArena arena;
    Vocabulary vocab;
    Parser parser(&arena, &vocab);
    Tracer scratch("slope");
    DependencyProgram program = ParseDeps(&scratch, &parser, *text);
    SoTgd rules = Skolemize(&scratch, &arena, &vocab, program);
    Clock::time_point start = Clock::now();
    AnalyzeSo(arena, rules);
    t->Count("slope.s." + file,
             std::chrono::duration<double>(Clock::now() - start).count());
  }
}

int CmdServe(const Args& args) {
  Tracer t(args.Get("--run"));
  std::vector<ServeRequest> frames = LoadFrames(args.Get("--frames"));
  std::ofstream out(args.Get("--out"), std::ios::binary);
  {
    Tracer::Scope run(&t, "replay");
    for (const ServeRequest& request : frames) {
      Tracer::Scope s(&t, "request." + request.command);
      if (request.command == "certain") {
        ReplayCertain(&t, request);
      } else if (request.command == "lint") {
        ReplayLint(&t, request);
      } else if (request.command == "classify") {
        ReplayClassify(&t, request);
      } else {
        Die("unexpected command " + request.command);
      }
    }
  }
  for (const ServeRequest& request : frames) {
    std::string stdout_text;
    int exit_code;
    {
      Tracer::Scope s(&t, "api.run");
      exit_code = RunFrame(request, &stdout_text);
    }
    WriteResult(out, request.id, exit_code, stdout_text);
  }
  std::string slope = args.GetOr("--slope", "");
  if (!slope.empty()) TimeSlope(&t, slope);
  t.Write(args.Get("--spans"));
  return 0;
}

/// Runs a command from this small process and reports its fork -> exit
/// wall time, exit code and wait4 rusage. A child's ru_maxrss starts at
/// its parent's peak RSS (Linux carries it across fork and exec), so the
/// commands are not spawned straight from run.py.
int CmdSpawn(const Args& args) {
  if (args.rest.empty()) Die("spawn needs a command");
  std::vector<char*> argv;
  for (const std::string& arg : args.rest) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  Clock::time_point start = Clock::now();
  pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) Die("wait4 failed");
  double wall = std::chrono::duration<double>(Clock::now() - start).count();
  int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::ofstream out(args.Get("--result"));
  out << std::fixed << std::setprecision(9) << wall << " " << exit_code << " "
      << usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 << " "
      << usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6 << " "
      << usage.ru_maxrss << "\n";
  return 0;
}

/// A fixed, cache-resident integer loop. Its time tracks how fast this
/// machine runs right now; run.py records its median in the run context
/// and scales no metric by it.
int CmdProbe() {
  constexpr uint64_t kIterations = 10'000'000;
  std::vector<uint64_t> table(4096);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = i * 0x9E3779B97F4A7C15ull;
  }
  uint64_t x = 1;
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ull + table[x >> 52];
    table[i & 4095] ^= x;
  }
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(x));
  return 0;
}

int CmdVerify(const Args& args) {
  std::vector<ServeRequest> frames = LoadFrames(args.Get("--frames"));
  std::ofstream out(args.Get("--out"), std::ios::binary);
  for (const ServeRequest& request : frames) {
    std::string stdout_text;
    int exit_code = RunFrame(request, &stdout_text);
    WriteResult(out, request.id, exit_code, stdout_text);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: perfbench_trace chase|serve|verify|probe|spawn ...");
  }
  std::string mode = argv[1];
  Args args = ParseArgs(argc, argv);
  if (mode == "chase") return CmdChase(args);
  if (mode == "serve") return CmdServe(args);
  if (mode == "verify") return CmdVerify(args);
  if (mode == "probe") return CmdProbe();
  if (mode == "spawn") return CmdSpawn(args);
  Die("unknown mode " + mode);
}
